"""Two-step feature selection: an mRMR filter then an SFFS wrapper.

Mutual information for mRMR runs on 10-quantile-discretized values, which
makes the ranking invariant to strictly monotone transforms of any feature.
mRMR runs in whole-matrix passes, each value bitwise the one a per-column
or per-pair computation gives. The passes rely on two facts of numpy's
reductions: it sums a contiguous last axis pairwise, row by row, as it sums
a 1-D array, and it sums a strided axis in sequence. So zero rows appended
to a joint table leave a pair's sums as they were, except when the table
has one column (nb == 1): its row axis is then the contiguous one, and
those pairs keep tables of their own row count (``_block_mi``).
The SFFS wrapper scores candidate subsets by leave-one-out, and the final
report takes the selected subset's LOO predictions from that search; all
ties break to the lowest column index. A subset's LOO stops as soon as the
best objective it can still reach (``_reachable``) cannot beat the value the
search needs from it: exact branch and bound, so the search selects, traces
and predicts what it would with every LOO run to its end.
The target's dtype picks the task (``models.is_regression_target``): a
numeric target is regressed, class labels are classified (a forest refuses
a numeric target). ``models.code_target`` alone codes the target: in mRMR,
and once per LOO in ``models.check_complete``, the one check.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import PhonassessError
from .evaluation import POSITIVE_CLASS, LooResult, loo_validate, trade_off_sen_spe
# predict, train_cart and train_forest stay bound here: perfbench/tracing.py wraps them
# at this module
from .models import (LearnerSpec, code_target, is_regression_target, predict,  # noqa: F401
                     train_cart, train_forest)

log = logging.getLogger(__name__)

MRMR_BINS = 10
QUANTILES = np.linspace(0, 1, MRMR_BINS + 1)[1:-1]  # inner bin edges
MI_COLUMNS = 256  # columns per pass of the batched mutual information
SFFS_PATIENCE_DEFAULT = 3
SFFS_MAX_FEATURES = 20


def quantile_discretize(col: np.ndarray) -> np.ndarray:
    """Bin indices at the column's own quantiles (monotone-invariant)."""
    col = np.asarray(col, dtype=np.float64)
    return np.searchsorted(np.unique(np.quantile(col, QUANTILES)), col, side="right")


def usable_columns(X: np.ndarray) -> np.ndarray:
    """Indices of the mRMR candidates among the columns of ``X``.

    A column is kept when it is finite in at least ``max(3, n // 2)`` rows
    and the range of its present cells is positive and finite (a range, not a
    std: the std of a constant 0.1 column is 1.4e-17).
    """
    hi = np.fmax.reduce(X, axis=0, initial=np.nan)  # skips NaN; NaN if all missing
    lo = np.fmin.reduce(X, axis=0, initial=np.nan)
    with np.errstate(invalid="ignore"):  # inf - inf where every present cell is inf
        span = hi - lo
    mostly_present = np.isfinite(X).sum(axis=0) >= max(3, X.shape[0] // 2)
    return np.flatnonzero(mostly_present & (0 < span) & (span < np.inf))


def _feature_codes(X: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """``quantile_discretize`` of each column's finite cells; 0 where missing.

    Columns are grouped by their count c of finite cells. Each group's finite
    cells, gathered in row order into a (c, g) matrix, get their edges from
    one ``np.quantile(..., axis=0)`` call, equal column by column to a call
    per column. A cell's code is the number of distinct edges at or below
    it, which is what ``searchsorted(np.unique(edges), v, "right")`` counts.
    """
    codes = np.zeros(X.shape, dtype=np.int64)
    counts = finite.sum(axis=0)
    order = np.argsort(~finite, axis=0, kind="stable")  # each column's finite rows first
    for c in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == c)
        rows = order[:c, group]
        values = X[rows, group]
        edges = np.sort(np.quantile(values, QUANTILES, axis=0), axis=0)
        distinct = np.ones(edges.shape, dtype=bool)
        distinct[1:] = edges[1:] != edges[:-1]
        codes[rows, group] = ((edges[None] <= values[:, None]) & distinct).sum(axis=1)
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
    from one offset ``bincount``, and every value is the one a per-pair
    computation on the pair's own (na, nb) table gives:
    - Pairs are grouped by the extent nb of ``b``'s codes, and their tables
      run to the group's largest na. The rows past a pair's own na are zero.
      numpy sums the strided row axis (the marginal of ``b``) in sequence,
      so zero rows at its end add nothing. With nb == 1 that axis is the
      contiguous one, which numpy sums pairwise, and zero rows would
      reassociate it; so those pairs are grouped by na as well.
    - A pair's log terms are its nonzero cells in row order. The pairs with
      L terms are summed in one ``np.add.reduce`` over the last axis of an
      (pairs, L) gather: numpy reduces a contiguous last axis row by row with
      the pairwise routine it runs on a 1-D array.
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
    complete = both.sum(axis=0)  # each pair's table total, exactly
    scored = complete >= 3
    key = np.where(b_max == 0, -a_max - 1, b_max + 1)  # nb, or -na when nb == 1
    for k in np.unique(key[scored]):
        group = np.flatnonzero(scored & (key == k))
        na, nb = int(a_max[group].max()) + 1, int(b_max[group[0]]) + 1
        counts = joint[group, :na, :nb].astype(np.float64)
        p = counts / complete[group, None, None]
        px = p.sum(axis=2, keepdims=True)
        py = p.sum(axis=1, keepdims=True)
        mask = p > 0
        present = p[mask]
        terms = present * np.log(present / (px * py)[mask])
        lengths = mask.sum(axis=(1, 2))
        starts = np.cumsum(lengths) - lengths
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            mi[group[rows]] = np.add.reduce(
                terms[starts[rows, None] + np.arange(length)], axis=1)
    return mi


def _target_codes(y) -> np.ndarray:
    """``code_target``'s class codes, or a numeric target quantile-discretized."""
    classes, target = code_target(y)
    if not classes and not np.isfinite(target).all():
        raise PhonassessError("target contains missing or infinite values")
    if not np.any(target != target[:1]):
        raise PhonassessError("constant target: nothing to rank against")
    return target if classes else quantile_discretize(target)


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
    """The best subset SFFS saw, with the LOO it was scored by.

    ``rows`` marks the rows that subset is scored on (complete in its columns
    and, for a numeric target, in the target); ``predictions`` are its LOO
    predictions for those rows, or None when no subset scored.
    """
    selected: list[str]
    selected_indices: list[int]
    objective: float
    rows: np.ndarray
    predictions: np.ndarray | None
    trace: list[tuple[str, str, float]] = field(default_factory=list)  # (action, name, objective)
    n_candidates: int = 0
    n_evaluations: int = 0  # distinct subsets scored by a LOO run
    n_memo_hits: int = 0    # subsets asked for again and answered from the memo
    n_stopped: int = 0      # of those subsets, the ones left with a bound: their LOO stopped

    @property
    def size(self) -> int:
        return len(self.selected)


def drop_incomplete_rows(X: np.ndarray, y: np.ndarray, cols: list[int]):
    """Remove rows with missing values in the candidate columns or target."""
    ok = ~np.isnan(X[:, cols]).any(axis=1)
    if is_regression_target(y):
        ok &= np.isfinite(np.asarray(y, dtype=np.float64))
    return ok


def _reachable(y: np.ndarray, result: LooResult) -> float:
    """The best objective a LOO can still reach from the folds it has
    predicted so far, one rule per objective; never below the objective the
    finished LOO gives.

    - ``-inf`` when a fold cannot train, or when the rows of a class target
      hold one class only: the objective is then ``-inf`` itself.
    - TSS: every fold not predicted yet is assumed correct, and the counts go
      through ``trade_off_sen_spe``, as in ``classification_metrics``. TSS
      does not fall as SEN or SPE rises, and once every fold is predicted
      this is the TSS.
    - Negative MAE: 0 before any fold, then ``-max|error| / n`` over the
      folds predicted. A floating-point sum of non-negative terms is never
      below its largest term, so no rounding margin is needed.
    """
    if result.failed_folds:
        return -np.inf
    done = np.asarray(result.predicted, dtype=np.intp)
    if is_regression_target(y):
        if not done.size:
            return 0.0
        errors = np.abs(result.predictions[done].astype(np.float64) - y[done].astype(np.float64))
        return -float(errors.max()) / len(y)
    positive = y == POSITIVE_CLASS
    positives, negatives = int(positive.sum()), int((~positive).sum())
    if not positives or not negatives:
        return -np.inf
    hit = result.predictions[done] == POSITIVE_CLASS
    missed, alarms = int((positive[done] & ~hit).sum()), int((~positive[done] & hit).sum())
    return trade_off_sen_spe((positives - missed) / positives, (negatives - alarms) / negatives)


def loo_objective(X, y, spec: LearnerSpec, beat: float = -np.inf
                  ) -> tuple[float, np.ndarray | None]:
    """(LOO objective, LOO predictions): the objective is negative MAE for a
    numeric target, TSS for class labels.

    The LOO stops once the best objective it can still reach
    (``_reachable``) is at most ``beat``: before any fold is routed, then
    before each further batch its router grows. It then gives that bound,
    which the objective cannot exceed, and no predictions. A subset on which
    any fold fails to train scores ``(-inf, None)`` and routes no lane. For
    class labels the TSS of a finished LOO is ``_reachable`` too.
    """
    y = np.asarray(y)
    result = loo_validate(X, y, spec, stop=lambda partial: _reachable(y, partial) <= beat)
    if result.failed_folds or result.stopped:
        return _reachable(y, result), None
    preds = result.predictions
    if is_regression_target(y):
        return -float(np.mean(np.abs(preds - y.astype(np.float64)))), preds
    return _reachable(y, result), preds


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
    ``SFFS_MAX_FEATURES`` columns. When no subset scores, the result selects
    nothing, with objective ``-inf`` and no predictions.

    Each subset is asked to beat a value: in an add step the best objective
    so far in that step (``np.argmax`` keeps the first maximum), in a
    removal test ``obj + 1e-12``. Its LOO stops once it cannot
    (``loo_objective``), so a subset that loses is often never scored in
    full; no subset that could win is stopped, and the search takes the
    path it would take with every LOO finished. Subsets are keyed by their
    columns in order (the order decides ties inside the learner). A memo
    keeps each one's objective and LOO predictions, or, for a stopped one,
    its bound and none; that one is scored again only when it is asked to
    beat a value below its bound. The best subset's predictions are the
    result's.
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
    memo: dict[tuple[int, ...], tuple[float, np.ndarray | None]] = {}
    hits = 0

    def objective(cols: list[int], beat: float) -> float:
        nonlocal hits
        key = tuple(cols)
        value, preds = memo.get(key, (np.inf, None))
        if preds is None and beat < value:  # never scored, or stopped at a bound it may beat
            memo[key] = _masked_objective(X, y, cols, spec, beat)
        else:
            hits += 1
        return memo[key][0]

    while len(current) < SFFS_MAX_FEATURES and stall < patience:
        options = [j for j in pool if j not in current]
        if not options:
            break
        scores: list[float] = []
        for j in options:
            scores.append(objective(current + [j], max(scores, default=-np.inf)))
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
                red_obj = objective(reduced, obj + 1e-12)
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

    return SelectionResult(
        selected=[names[j] for j in best_subset],
        selected_indices=best_subset,
        objective=float(best_obj),
        rows=drop_incomplete_rows(X, y, best_subset),
        predictions=memo[tuple(best_subset)][1] if best_subset else None,
        trace=trace,
        n_candidates=len(pool),
        n_evaluations=len(memo),
        n_memo_hits=hits,
        n_stopped=sum(preds is None and value > -np.inf for value, preds in memo.values()),
    )


def _masked_objective(X, y, cols: list[int], spec: LearnerSpec, beat: float = -np.inf
                      ) -> tuple[float, np.ndarray | None]:
    """``loo_objective`` on the rows complete in ``cols``; ``(-inf, None)``
    when the LOO raises, as it does on fewer than 3 such rows."""
    y = np.asarray(y)
    ok = drop_incomplete_rows(X, y, cols)
    try:
        return loo_objective(X[np.ix_(ok, cols)], y[ok], spec, beat)
    except PhonassessError:
        return -np.inf, None
