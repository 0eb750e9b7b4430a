"""Acoustic phonation analysis toolkit.

Extracts six families of vowel-phonation biomarkers, estimates clinical
scale scores with regression trees, separates patient and control groups
with random forests, and emits evaluation tables and correlation plot data.
"""

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
