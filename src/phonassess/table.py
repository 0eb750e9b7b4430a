"""Contour summarization and feature-matrix assembly.

Matrix layout: one row per subject (single-vowel scope) or per subject with
vowel-prefixed columns (whole-task scope); column order follows the
registry. Cross-vowel articulation indices are computed here from the
summarized corner-vowel formants and appear once per task in whole-task
scope. Missing values stay missing (empty CSV cells), never silently
imputed.

Scope grammar: ``<vowel>_<task>`` names one vowel's matrix, ``all_<task>``
the five vowels' matrix; either reads the task's corner vowels as well
(``scope_recordings``).
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .audio import TASKS, VOWELS
from .errors import ConfigError, PhonassessError
from .features import articulation
from .features.registry import REGISTRY, SUMMARY_STATS, column_names
from .manifest import SCORE_COLUMNS, CohortManifest

log = logging.getLogger(__name__)

WHOLE_TASK = "all"  # the scope vowel token meaning every vowel
VOWELS_FOR_CROSS = ("a", "i", "u")
CROSS_VOWEL_NAMES = tuple(e.name for e in REGISTRY if e.cross_vowel)


def summarize(contour) -> dict[str, float]:
    """(median, std, p1, p99, ir) of a contour, NaN-aware.

    std is the population standard deviation; percentiles interpolate
    linearly between closest ranks; ir = p99 - p1 exactly. An empty (or
    all-NaN) contour yields five missing values.
    """
    arr = np.asarray(contour, dtype=np.float64).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {stat: float("nan") for stat in SUMMARY_STATS}
    p1, p99 = np.percentile(arr, [1, 99])
    return {
        "median": float(np.median(arr)),
        "std": float(np.std(arr)),
        "p1": float(p1),
        "p99": float(p99),
        "ir": float(p99 - p1),
    }


def summarize_features(features: dict[str, float | np.ndarray]) -> dict[str, float]:
    """Flatten one recording's extraction output to matrix columns."""
    out: dict[str, float] = {}
    for entry in REGISTRY:
        value = features.get(entry.name, float("nan"))
        if entry.kind == "contour":
            stats = summarize(np.atleast_1d(value))
            for stat, v in stats.items():
                out[f"{entry.name}_{stat}"] = v
        else:
            out[entry.name] = float(value) if np.ndim(value) == 0 else float("nan")
    return out


def cross_vowel_features(per_vowel_columns: dict[str, dict[str, float]]) -> dict[str, float]:
    """Articulation indices from the summarized [a], [i], [u] formants."""
    try:
        cols_a = per_vowel_columns["a"]
        cols_i = per_vowel_columns["i"]
        cols_u = per_vowel_columns["u"]
        return articulation.vowel_space_features(
            cols_a["f1_median"], cols_a["f2_median"],
            cols_i["f1_median"], cols_i["f2_median"],
            cols_u["f1_median"], cols_u["f2_median"],
        )
    except (KeyError, ValueError):  # a missing corner vowel, unusable formants
        return {name: float("nan") for name in CROSS_VOWEL_NAMES}


@dataclass
class FeatureMatrix:
    """Subjects-by-features table with missing-value support."""

    scope: str
    subject_ids: list[str]
    columns: list[str]
    values: np.ndarray                      # (subjects, columns), NaN = missing
    groups: list[str] = field(default_factory=list)
    scores: dict[str, np.ndarray] = field(default_factory=dict)  # clinical targets

    def __post_init__(self):
        if self.values.shape != (len(self.subject_ids), len(self.columns)):
            raise ValueError("matrix shape does not match ids/columns")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def to_csv(self, path) -> None:
        """Deterministic CSV: header, then one row per subject; missing = empty."""
        score_names = sorted(self.scores)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "group"] + score_names + self.columns)
            for i, sid in enumerate(self.subject_ids):
                row = [sid, self.groups[i] if self.groups else ""]
                for s in score_names:
                    v = self.scores[s][i]
                    row.append("" if np.isnan(v) else f"{v:.12g}")
                row.extend("" if np.isnan(v) else f"{v:.12g}" for v in self.values[i])
                w.writerow(row)

    @classmethod
    def from_csv(cls, path, scope: str = "") -> "FeatureMatrix":
        """The matrix ``to_csv`` wrote to ``path``. A file that is not one
        raises ``PhonassessError`` naming the file, the line and the column."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or len(rows[0]) < 2:
            raise PhonassessError(f"{path}, line 1: no header of subject_id, group and columns")
        header, rows = rows[0], rows[1:]
        cells = []  # every row's scores, then its values
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise PhonassessError(f"{path}, line {line}: {len(row)} cells where the "
                                      f"header has {len(header)}")
            try:
                cells.append([float(c) if c else float("nan") for c in row[2:]])
            except ValueError:
                for name, text in zip(header[2:], row[2:]):
                    try:
                        float(text or 0)
                    except ValueError:
                        raise PhonassessError(f"{path}, line {line}, column {name}: "
                                              f"{text!r} is not a number") from None
        cells = np.asarray(cells, dtype=np.float64).reshape(len(rows), len(header) - 2)
        score_names = [h for h in header[2:] if h in SCORE_COLUMNS]
        n_scores = len(score_names)
        return cls(scope=scope, subject_ids=[row[0] for row in rows],
                   columns=header[2 + n_scores:],
                   values=np.ascontiguousarray(cells[:, n_scores:]),
                   groups=[row[1] for row in rows],
                   scores={s: cells[:, k].copy() for k, s in enumerate(score_names)})


def parse_scope(scope: str) -> tuple[str, str]:
    """'a_s' -> ('a', 's'); 'all_ls' -> ('all', 'ls')."""
    try:
        vowel, task = scope.split("_", 1)
    except ValueError as exc:
        raise ConfigError(f"bad scope {scope!r}; use '<vowel>_<task>' or 'all_<task>'") from exc
    if vowel not in (*VOWELS, WHOLE_TASK) or task not in TASKS:
        raise ConfigError(f"bad scope {scope!r}")
    return vowel, task


def _scope_vowels(vowel: str) -> tuple[str, ...]:
    return VOWELS if vowel == WHOLE_TASK else (vowel,)


def scope_recordings(scope: str) -> list[tuple[str, str]]:
    """The (vowel, task) recordings a scope reads: its own vowels and the
    corner vowels its cross-vowel columns need, in ``VOWELS`` order."""
    vowel, task = parse_scope(scope)
    wanted = set(_scope_vowels(vowel)) | set(VOWELS_FOR_CROSS)
    return [(v, task) for v in VOWELS if v in wanted]


def default_scopes(manifest: CohortManifest) -> list[str]:
    """Every (vowel, task) pair the cohort recorded, then each task's whole-task scope."""
    scopes = [f"{v}_{t}" for (v, t) in manifest.pairs_present()]
    scopes += [f"{WHOLE_TASK}_{t}" for t in manifest.tasks_present()]
    return scopes


def build_matrix(
    manifest: CohortManifest,
    extracted: dict[tuple[str, str, str], dict[str, float | np.ndarray]],
    scope: str,
) -> FeatureMatrix:
    """Assemble one scope's matrix from per-recording extraction outputs.

    ``extracted`` maps (subject_id, vowel, task) to extraction features.
    Subjects missing a recording keep their row with missing cells (warned).
    """
    vowel_sel, task = parse_scope(scope)
    whole_task = vowel_sel == WHOLE_TASK
    vowels = _scope_vowels(vowel_sel)

    base_cols = column_names(include_cross_vowel=False)
    cross_cols = list(CROSS_VOWEL_NAMES)
    if whole_task:
        columns = [f"{v}_{c}" for v in vowels for c in base_cols] + cross_cols
    else:
        # single vowel: registry order with cross-vowel features in place
        columns = column_names(include_cross_vowel=True)

    subject_ids = [row.subject_id for row in manifest.rows]
    values = np.full((len(subject_ids), len(columns)), np.nan)
    col_index = {c: k for k, c in enumerate(columns)}

    for i, row in enumerate(manifest.rows):
        per_vowel: dict[str, dict[str, float]] = {}
        for v, t in scope_recordings(scope):
            feats = extracted.get((row.subject_id, v, t))
            if feats is not None:
                per_vowel[v] = summarize_features(feats)
        cross = cross_vowel_features(per_vowel)

        for v in vowels:
            if v not in per_vowel:
                log.warning("subject %s missing recording (%s, %s); row kept with missing cells",
                            row.subject_id, v, task)
                continue
            cols = per_vowel[v]
            prefix = f"{v}_" if whole_task else ""
            for name, val in cols.items():
                key = f"{prefix}{name}"
                if key in col_index:
                    values[i, col_index[key]] = val
        for name, val in cross.items():
            if name in col_index:
                values[i, col_index[name]] = val

    scores = {s: np.array([float("nan") if row.scores.get(s) is None else row.scores[s]
                           for row in manifest.rows])
              for s in SCORE_COLUMNS}
    matrix = FeatureMatrix(
        scope=scope,
        subject_ids=subject_ids,
        columns=columns,
        values=values,
        groups=[row.group for row in manifest.rows],
        scores=scores,
    )
    log.info("matrix %s: %d subjects x %d columns", scope, len(subject_ids), len(columns))
    return matrix
