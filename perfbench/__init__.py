"""Closed-loop benchmark of the phonassess command-line pipeline."""
