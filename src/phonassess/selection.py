"""Two-step feature selection: an mRMR filter then an SFFS wrapper.

Mutual information for mRMR runs on 10-quantile-discretized values, which
makes the ranking invariant to strictly monotone transforms of any feature.
The SFFS wrapper evaluates candidate subsets with the same leave-one-out
protocol the final report uses; all ties break to the lowest column index.
The target's dtype picks the task (``models.is_regression_target``): a
numeric target is regressed, class labels are classified.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import PhonassessError
from .evaluation import classification_metrics, loo_validate
# predict, train_cart and train_forest stay bound here: perfbench/tracing.py wraps them
# at this module
from .models import (LearnerSpec, is_regression_target, predict, train_cart,  # noqa: F401
                     train_forest)

log = logging.getLogger(__name__)

MRMR_BINS = 10
QUANTILES = np.linspace(0, 1, MRMR_BINS + 1)[1:-1]  # inner bin edges
MI_COLUMNS = 256  # columns per pass of the batched mutual information
SFFS_PATIENCE_DEFAULT = 3
SFFS_MAX_FEATURES = 20


def quantile_discretize(col: np.ndarray) -> np.ndarray:
    """Bin indices at the column's own quantiles (monotone-invariant)."""
    col = np.asarray(col, dtype=np.float64)
    return _bin_codes(col, np.quantile(col, QUANTILES))


def _bin_codes(col: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.unique(edges), col, side="right")


def _feature_codes(X: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """``quantile_discretize`` of each column's finite cells; 0 where missing.

    The edges of all complete columns come from one ``np.quantile`` call,
    equal column by column to a call per column; a column with missing
    cells is discretized on its own.
    """
    codes = np.zeros(X.shape, dtype=np.int64)
    complete = finite.all(axis=0)
    edges = np.quantile(X[:, complete], QUANTILES, axis=0)
    for i, j in enumerate(np.flatnonzero(complete)):
        codes[:, j] = _bin_codes(X[:, j], edges[:, i])
    for j in np.flatnonzero(~complete & finite.any(axis=0)):
        m = finite[:, j]
        codes[m, j] = quantile_discretize(X[m, j])
    return codes


def _mutual_information(codes: np.ndarray, finite: np.ndarray, cols: np.ndarray,
                        b: np.ndarray, b_finite: np.ndarray) -> np.ndarray:
    """MI of each column ``cols`` of ``codes`` with ``b`` over their complete rows."""
    mi = np.zeros(len(cols))
    for lo in range(0, len(cols), MI_COLUMNS):  # bounds the work arrays
        block = cols[lo:lo + MI_COLUMNS]
        mi[lo:lo + len(block)] = _block_mi(codes[:, block], finite[:, block], b, b_finite)
    return mi


def _block_mi(codes: np.ndarray, finite: np.ndarray, b: np.ndarray,
              b_finite: np.ndarray) -> np.ndarray:
    """MI of each column of ``codes`` with ``b`` over their complete rows.

    Codes are small non-negative integers; a column with fewer than 3 rows
    complete in both scores 0. Each pair's joint counts are exact integers
    from one offset ``bincount``; marginals and log terms are reduced per
    group of pairs with the same code extents (na, nb), and each pair's
    terms are summed on their own (``np.add.reduce``, what ``np.sum`` runs),
    so every value is the one a per-pair computation on the pair's (na, nb)
    table gives.
    """
    both = finite & b_finite[:, None]
    n_cols = codes.shape[1]
    a_max = np.where(both, codes, -1).max(axis=0, initial=-1)
    b_max = np.where(both, b[:, None], -1).max(axis=0, initial=-1)
    width_a, width_b = int(a_max.max(initial=-1)) + 1, int(b_max.max(initial=-1)) + 1
    cells = (np.arange(n_cols) * width_a + codes) * width_b + b[:, None]
    joint = np.bincount(cells[both], minlength=n_cols * width_a * width_b).reshape(
        n_cols, width_a, width_b)
    mi = np.zeros(n_cols)
    scored = both.sum(axis=0) >= 3
    extents = np.stack([a_max + 1, b_max + 1], axis=1)
    for na, nb in np.unique(extents[scored], axis=0):
        group = np.flatnonzero(scored & (extents[:, 0] == na) & (extents[:, 1] == nb))
        counts = joint[group, :na, :nb].astype(np.float64)
        p = counts / counts.sum(axis=(1, 2), keepdims=True)
        px = p.sum(axis=2, keepdims=True)
        py = p.sum(axis=1, keepdims=True)
        mask = p > 0
        terms = p[mask] * np.log(p[mask] / (px * py)[mask])
        ends = np.cumsum(mask.sum(axis=(1, 2))).tolist()
        mi[group] = [np.add.reduce(terms[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]
    return mi


def _target_codes(y) -> np.ndarray:
    if is_regression_target(y):
        y = np.asarray(y, dtype=np.float64)
        if np.all(y == y[0]):
            raise PhonassessError("constant target: nothing to rank against")
        return quantile_discretize(y)
    labels = sorted(set(map(str, y)))
    if len(labels) < 2:
        raise PhonassessError("constant target: nothing to rank against")
    lut = {c: i for i, c in enumerate(labels)}
    return np.array([lut[str(v)] for v in y])


def mrmr_rank(X, y, k: int) -> list[int]:
    """Greedy max-relevance min-redundancy ranking; returns top-k indices.

    Step objective: MI(feature, target) - mean MI(feature, already chosen).
    A numeric target is quantile-discretized, class labels are coded as-is.
    Missing feature values are handled pairwise-complete; the target must be
    complete. Ties resolve to the lowest column index.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    k = min(k, p)
    target = _target_codes(y)
    finite = np.isfinite(X)
    codes = _feature_codes(X, finite)

    relevance = _mutual_information(codes, finite, np.arange(p), target, np.ones(n, dtype=bool))
    selected: list[int] = []
    redundancy_sum = np.zeros(p)
    remaining = np.arange(p)
    while len(selected) < k and remaining.size:
        scores = relevance[remaining]
        if selected:
            scores = scores - redundancy_sum[remaining] / len(selected)
        best_pos = int(np.argmax(scores))  # first max -> lowest index wins ties
        j = int(remaining[best_pos])
        remaining = np.delete(remaining, best_pos)
        selected.append(j)
        redundancy_sum[remaining] += _mutual_information(codes, finite, remaining,
                                                         codes[:, j], finite[:, j])
    return selected


@dataclass
class SelectionResult:
    selected: list[str]
    selected_indices: list[int]
    objective: float
    trace: list[tuple[str, str, float]] = field(default_factory=list)  # (action, name, objective)
    n_dropped_rows: int = 0
    n_candidates: int = 0
    n_evaluations: int = 0  # distinct subsets scored by a LOO run
    n_memo_hits: int = 0    # subsets asked for again and answered from the memo

    @property
    def size(self) -> int:
        return len(self.selected)


def drop_incomplete_rows(X: np.ndarray, y: np.ndarray, cols: list[int]):
    """Remove rows with missing values in the candidate columns or target."""
    sub = X[:, cols] if cols else X[:, :0]
    ok = ~np.isnan(sub).any(axis=1)
    if is_regression_target(y):
        ok &= np.isfinite(np.asarray(y, dtype=np.float64))
    return ok


def loo_objective(X, y, spec: LearnerSpec) -> float:
    """LOO objective: negative MAE for a numeric target, TSS for class labels.

    A subset on which any fold fails to train scores ``-inf``.
    """
    result = loo_validate(X, y, spec)
    if result.failed_folds:
        return -np.inf
    preds = result.predictions
    if is_regression_target(y):
        return -float(np.mean(np.abs(preds - np.asarray(y, dtype=np.float64))))
    return classification_metrics(preds, y).tss


def sffs(
    X,
    y,
    names: list[str],
    spec: LearnerSpec,
    candidates: list[int] | None = None,
    patience: int = SFFS_PATIENCE_DEFAULT,
) -> SelectionResult:
    """Sequential floating forward selection under the LOO objective.

    Each step adds the candidate with the best objective even when it does
    not improve (plateaus count against ``patience``); after every addition,
    features whose removal strictly improves the objective are floated out.
    The best subset ever seen is returned, so the result's objective is
    always at least the best single feature's. Subsets grow to at most
    ``SFFS_MAX_FEATURES`` columns. Each subset, keyed by its columns in
    order (the order decides ties inside the learner), is scored once.
    """
    X = np.asarray(X, dtype=np.float64)
    names = list(names)
    pool = list(candidates) if candidates is not None else list(range(X.shape[1]))
    if not pool:
        raise PhonassessError("no candidate features")

    current: list[int] = []
    best_subset: list[int] = []
    best_obj = -np.inf
    trace: list[tuple[str, str, float]] = []
    stall = 0
    memo: dict[tuple[int, ...], float] = {}
    asked = 0

    def objective(cols: list[int]) -> float:
        nonlocal asked
        asked += 1
        key = tuple(cols)
        if key not in memo:
            memo[key] = _masked_objective(X, y, cols, spec)
        return memo[key]

    while len(current) < SFFS_MAX_FEATURES and stall < patience:
        options = [j for j in pool if j not in current]
        if not options:
            break
        scores = [objective(current + [j]) for j in options]
        pick = int(np.argmax(scores))  # first max -> lowest registry index
        j = options[pick]
        current = current + [j]
        obj = scores[pick]
        trace.append(("add", names[j], obj))

        # floating removal: drop features whose exclusion strictly improves
        improved_removal = True
        while improved_removal and len(current) > 2:
            improved_removal = False
            for g in list(current[:-1]):  # never immediately drop the newcomer
                reduced = [c for c in current if c != g]
                red_obj = objective(reduced)
                if red_obj > obj + 1e-12:
                    current = reduced
                    obj = red_obj
                    trace.append(("remove", names[g], obj))
                    improved_removal = True
                    break

        if obj > best_obj + 1e-12:
            best_obj = obj
            best_subset = list(current)
            stall = 0
        else:
            stall += 1

    ok_rows = drop_incomplete_rows(X, y, best_subset)
    return SelectionResult(
        selected=[names[j] for j in best_subset],
        selected_indices=best_subset,
        objective=float(best_obj),
        trace=trace,
        n_dropped_rows=int(len(X) - ok_rows.sum()),
        n_candidates=len(pool),
        n_evaluations=len(memo),
        n_memo_hits=asked - len(memo),
    )


def _masked_objective(X, y, cols: list[int], spec: LearnerSpec) -> float:
    ok = drop_incomplete_rows(X, np.asarray(y), cols)
    if ok.sum() < 3:
        return -np.inf
    y_arr = np.asarray(y)
    try:
        return loo_objective(X[np.ix_(ok, cols)], y_arr[ok], spec)
    except PhonassessError:
        return -np.inf
