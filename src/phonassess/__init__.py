"""Acoustic phonation analysis toolkit.

Extracts six families of vowel-phonation biomarkers, estimates clinical
scale scores with regression trees, separates patient and control groups
with random forests, and emits evaluation tables and correlation plot data.

Importing ``phonassess.cli`` loads numpy and no scipy module: each scipy
import sits in the function that calls it, so ``classify`` and ``regress``
never load scipy and ``correlate`` loads only ``scipy.special``. ``extract``
needs only ``scipy.fft``, ``scipy.linalg`` and ``scipy.special`` (its
signal routines are in ``phonassess.dsp``) and imports them once, before it
forks its workers (``phonassess.parallel``), so the workers inherit them.
Import the submodules themselves; this package re-exports nothing.
"""
import os

# One BLAS thread per process, set before anything imports numpy: extraction
# runs one forked worker per core (phonassess.parallel), and threaded BLAS in
# each of them would oversubscribe the cores. A value already set wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
