"""Acoustic phonation analysis toolkit.

Extracts six families of vowel-phonation biomarkers, estimates clinical
scale scores with regression trees, separates patient and control groups
with random forests, and emits evaluation tables and correlation plot data.
"""
import os

# One BLAS thread per process, set before anything imports numpy: extraction
# runs one forked worker per core (phonassess.parallel), and threaded BLAS in
# each of them would oversubscribe the cores. A value already set wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .audio import Recording, FrameSequence, load_recording, resample, frame_signal
from .errors import (AudioError, ConfigError, InsufficientSignalError, ManifestError,
                     PhonassessError)
from .evaluation import (ClinicalScale, SCALES, classification_metrics,
                         correlation_graph_data, estimation_errors, loo_validate,
                         regression_metrics, spearman, trade_off_sen_spe)
from .manifest import CohortManifest, load_manifest
from .models import DecisionTree, ForestModel, predict, train_cart, train_forest
from .pitch import CycleMarks, F0Contour, detect_cycles, estimate_f0
from .selection import LearnerSpec, SelectionResult, mrmr_rank, sffs
from .table import FeatureMatrix, build_matrix, summarize

__version__ = "0.1.0"
