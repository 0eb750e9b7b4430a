"""Leave-one-out harness, classification/regression metrics, estimation
errors, and correlation analysis."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import PhonassessError
from .models import LearnerSpec, is_regression_target

POSITIVE_CLASS = "PD"


@dataclass(frozen=True)
class ClinicalScale:
    """A clinical rating scale: id plus theoretical range [0, max].

    max is None for unbounded quantities (disease duration, medication
    dose), for which the max-normalized estimation error is undefined.
    """

    id: str
    theoretical_max: float | None
    theoretical_min: float = 0.0

    @property
    def bounded(self) -> bool:
        return self.theoretical_max is not None


SCALES: dict[str, ClinicalScale] = {
    s.id: s
    for s in (
        ClinicalScale("duration", None),
        ClinicalScale("updrs3", 108),
        ClinicalScale("updrs4", 23),
        ClinicalScale("rbdsq", 13),
        ClinicalScale("fog", 24),
        ClinicalScale("nmss", 360),
        ClinicalScale("bdi", 63),
        ClinicalScale("mmse", 30),
        ClinicalScale("acer", 100),
        ClinicalScale("led", None),
    )
}


def round_half_away(x: float, decimals: int = 2) -> float:
    """Round half away from zero, the tables' convention."""
    factor = 10**decimals
    return math.copysign(math.floor(abs(x) * factor + 0.5) / factor, x)


@dataclass
class ClassificationMetrics:
    acc: float  # percent
    sen: float  # percent
    spe: float  # percent
    tss: float  # dimensionless, in [1, 2]


def trade_off_sen_spe(sen_fraction: float, spe_fraction: float) -> float:
    """2 ** (sin(pi SEN / 2) sin(pi SPE / 2)) with SEN, SPE as fractions."""
    return 2.0 ** (math.sin(math.pi * sen_fraction / 2.0) * math.sin(math.pi * spe_fraction / 2.0))


def classification_metrics(pred, truth) -> ClassificationMetrics:
    """ACC, SEN, SPE (percent) and TSS of predicted labels against the truth;
    ``POSITIVE_CLASS`` is the positive label.

    Every prediction must be one of the truth's labels: a NaN, say from a
    failed fold, raises rather than counting as a negative.
    """
    pred = np.asarray(pred, dtype=object)  # a NaN stays a float, not the label "nan"
    truth = np.asarray(truth)
    if len(pred) != len(truth) or len(truth) == 0:
        raise PhonassessError("prediction/truth length mismatch")
    if stray := set(pred.tolist()) - set(truth.tolist()):
        raise PhonassessError(f"prediction is not a class label: {sorted(map(repr, stray))[0]}")
    pos = truth == POSITIVE_CLASS
    neg = ~pos
    if not pos.any() or not neg.any():
        raise PhonassessError("both classes must be present in the truth labels")
    hit = pred == POSITIVE_CLASS
    tp = np.sum(pos & hit)
    fn = np.sum(pos & ~hit)
    tn = np.sum(neg & ~hit)
    fp = np.sum(neg & hit)
    sen = tp / (tp + fn)
    spe = tn / (tn + fp)
    acc = (tp + tn) / len(truth)
    return ClassificationMetrics(
        acc=100.0 * acc, sen=100.0 * sen, spe=100.0 * spe,
        tss=trade_off_sen_spe(sen, spe),
    )


def regression_metrics(pred, truth) -> tuple[float, float]:
    """(mae, pearson rho); rho is NaN when the truth is constant."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if len(pred) != len(truth) or len(truth) < 3:
        raise PhonassessError("need >= 3 prediction/truth pairs")
    mae = float(np.mean(np.abs(pred - truth)))
    if np.std(truth) == 0 or np.std(pred) == 0:
        return mae, float("nan")
    rho = float(np.corrcoef(pred, truth)[0, 1])
    return mae, rho


def estimation_errors(mae: float, scale: ClinicalScale, observed_range: float) -> tuple[float, float | None]:
    """(ee1, ee2) as percentages; ee2 is None for unbounded scales.

    ee1 normalizes by the observed score range of the evaluated subjects;
    ee2 by the scale's theoretical maximum.
    """
    if mae < 0:
        raise PhonassessError("mae must be non-negative")
    if observed_range <= 0:
        raise PhonassessError("observed score range must be positive")
    ee1 = 100.0 * mae / observed_range
    ee2 = 100.0 * mae / scale.theoretical_max if scale.bounded else None
    return ee1, ee2


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of tied values sharing the mean of its ranks."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], len(xs))  # one past each run's last position
    ranks = np.empty(len(xs))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def spearman(x, y) -> tuple[float, float]:
    """Rank correlation with average ranks; p via the t approximation.

    ``stdtr(df, -|t|)`` is the Student-t survival function at ``|t|``, the
    call ``scipy.stats.t.sf`` makes, without importing ``scipy.stats``.
    """
    from scipy.special import stdtr

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    n = len(x)
    if n < 5:
        raise PhonassessError("need >= 5 complete pairs for rank correlation")
    if np.std(x) == 0 or np.std(y) == 0:
        raise PhonassessError("constant input: rank correlation undefined")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    if abs(rho) >= 1.0:
        return float(np.sign(rho)), 0.0
    t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t_stat)))
    return rho, p


@dataclass
class CorrelationPanel:
    feature_values: np.ndarray
    clinical_values: np.ndarray
    coefficients: tuple[float, float, float]  # quadratic, linear, constant
    rho: float
    p: float


def correlation_graph_data(feature_values, clinical_values) -> CorrelationPanel:
    """Scatter points with a least-squares quadratic fit plus (rho, p)."""
    x = np.asarray(feature_values, dtype=np.float64)
    y = np.asarray(clinical_values, dtype=np.float64)
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if len(x) < 5:
        raise PhonassessError("need >= 5 pairs for the correlation panel")
    if np.ptp(x) == 0:
        raise PhonassessError("degenerate design matrix: constant feature")
    coeffs = np.polyfit(x, y, 2)
    rho, p = spearman(x, y)
    return CorrelationPanel(
        feature_values=x, clinical_values=y,
        coefficients=(float(coeffs[0]), float(coeffs[1]), float(coeffs[2])),
        rho=rho, p=p,
    )


@dataclass
class LooResult:
    predictions: np.ndarray
    failed_folds: list[int] = field(default_factory=list)


def loo_validate(X, y, learner: LearnerSpec) -> LooResult:
    """Leave-one-out: for each row i, train ``learner`` on the others and predict i.

    The rows must be complete: a missing cell in ``X``, or a missing or
    infinite value in a numeric ``y``, raises ``PhonassessError`` before any
    fold is built (every fold but that row's own would fail to train).
    No model is built. The lanes of all folds go through one call of the
    learner's router (``LearnerSpec.route``), which grows them in batches
    under its byte budget (``models.LANE_BUDGET_BYTES``) and carries each
    fold's held-out row down its trees' splits as they are made. A fold
    predicts what ``models.predict`` would: its CART's leaf, or its forest's
    majority label (a tie goes to the lexicographically smallest). Fold i
    trains with ``learner.seed + i``, so the result is deterministic given
    the learner, and a forest's tree streams are set up once per process
    (``models.STREAM_MEMO_BYTES``) however many subsets a search scores.
    Folds whose training fails (a forest fold left with one class) are
    recorded and predict NaN. A numeric ``y`` gives float predictions, class
    labels object ones.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 3:
        raise PhonassessError("need >= 3 rows for leave-one-out")
    y = np.asarray(y)
    if np.isnan(X).any():
        raise PhonassessError("leave-one-out matrix contains missing values; drop rows first")
    if is_regression_target(y) and not np.isfinite(y).all():
        raise PhonassessError("target contains missing or infinite values; drop rows first")
    folds = {}
    for i in range(n):
        try:
            folds[i] = learner.lanes(X, y, np.delete(np.arange(n), i), learner.seed + i)
        except PhonassessError:
            pass
    held_out = np.repeat(np.fromiter(folds, dtype=np.intp, count=len(folds)),
                         [len(lanes) for lanes in folds.values()])
    leaves = learner.route(X, y, chain.from_iterable(folds.values()), held_out)
    preds = np.full(n, float("nan"), dtype=object)
    for i in folds:
        preds[i] = learner.vote(leaves)  # takes this fold's leaves, in order
    if is_regression_target(y):
        preds = preds.astype(np.float64)
    return LooResult(predictions=preds, failed_folds=[i for i in range(n) if i not in folds])
