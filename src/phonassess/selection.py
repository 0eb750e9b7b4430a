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
from .models import is_regression_target, predict, train_cart, train_forest

log = logging.getLogger(__name__)

MRMR_BINS = 10
SFFS_PATIENCE_DEFAULT = 3
SFFS_MAX_FEATURES = 20


def quantile_discretize(col: np.ndarray, bins: int = MRMR_BINS) -> np.ndarray:
    """Bin indices at the column's own quantiles (monotone-invariant)."""
    col = np.asarray(col, dtype=np.float64)
    edges = np.unique(np.quantile(col, np.linspace(0, 1, bins + 1)[1:-1]))
    return np.searchsorted(edges, col, side="right")


def _discrete_mi(a: np.ndarray, b: np.ndarray) -> float:
    na = int(a.max()) + 1
    nb = int(b.max()) + 1
    joint = np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb).astype(np.float64)
    total = joint.sum()
    if total == 0:
        return 0.0
    p = joint / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / (px @ py)[mask])))


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
    codes = np.zeros((n, p), dtype=np.int64)
    for j in range(p):
        m = finite[:, j]
        if m.any():
            codes[m, j] = quantile_discretize(X[m, j])

    def mi_target(j: int) -> float:
        m = finite[:, j]
        return _discrete_mi(codes[m, j], target[m]) if m.sum() >= 3 else 0.0

    def mi_pair(j: int, l: int) -> float:
        m = finite[:, j] & finite[:, l]
        return _discrete_mi(codes[m, j], codes[m, l]) if m.sum() >= 3 else 0.0

    relevance = np.array([mi_target(j) for j in range(p)])
    selected: list[int] = []
    redundancy_sum = np.zeros(p)
    remaining = list(range(p))
    while len(selected) < k and remaining:
        if selected:
            scores = [relevance[j] - redundancy_sum[j] / len(selected) for j in remaining]
        else:
            scores = [relevance[j] for j in remaining]
        best_pos = int(np.argmax(scores))  # first max -> lowest index wins ties
        j = remaining.pop(best_pos)
        selected.append(j)
        for m in remaining:
            redundancy_sum[m] += mi_pair(m, j)
    return selected


@dataclass
class SelectionResult:
    selected: list[str]
    selected_indices: list[int]
    objective: float
    trace: list[tuple[str, str, float]] = field(default_factory=list)  # (action, name, objective)
    n_dropped_rows: int = 0

    @property
    def size(self) -> int:
        return len(self.selected)


@dataclass
class LearnerSpec:
    """What to train inside the wrapper and the final evaluation.

    The target's dtype picks what a CART does; a forest always classifies.
    ``min_leaf`` applies to a single CART only.
    """

    kind: str = "cart"             # "cart" | "forest"
    n_trees: int = 50
    min_leaf: int = 3
    seed: int = 0

    def train(self, X, y, seed: int):
        if self.kind == "forest":
            return train_forest(X, y, n_trees=self.n_trees, seed=seed)
        return train_cart(X, y, min_leaf=self.min_leaf)


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
    result = loo_validate(X, y, spec.train, predict, seed=spec.seed)
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
    ``SFFS_MAX_FEATURES`` columns.
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

    while len(current) < SFFS_MAX_FEATURES and stall < patience:
        options = [j for j in pool if j not in current]
        if not options:
            break
        scores = [_masked_objective(X, y, current + [j], spec) for j in options]
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
                red_obj = _masked_objective(X, y, reduced, spec)
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
