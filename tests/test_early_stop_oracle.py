"""Early-stopped SFFS against the search that runs every LOO to its end.

``ref_sffs`` and the objectives it calls are ``selection.sffs``,
``loo_objective`` and ``_masked_objective`` as they were before a subset's
LOO could stop, verbatim but for their names. The search that stops a
subset's LOO once it cannot win must select, trace, score and predict bit
for bit what the reference does, on tied matrices (where equal objectives
are common), for both targets, at patience 1 to 3 and at byte budgets that
put one lane, a few lanes or every lane in a batch. Each objective it asks
for is checked on its own as well: a stopped subset's bound is at least the
subset's objective and at most the value it had to beat, and a subset asked
to beat the most its objective could be before any fold (TSS 2.0, or a
negative MAE of 0) routes no lane. TSS, the bound's only non-trivial rule,
must not fall as SEN or SPE rises on any count lattice.
"""
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import phonassess.models as models
import phonassess.selection as selection
from phonassess.errors import PhonassessError
from phonassess.evaluation import (LooResult, classification_metrics, loo_validate,
                                   trade_off_sen_spe)
from phonassess.models import LearnerSpec, is_regression_target
from phonassess.selection import (SFFS_MAX_FEATURES, SFFS_PATIENCE_DEFAULT, SelectionResult,
                                  drop_incomplete_rows, sffs)


# ---- the reference: every LOO to its end ------------------------------------

def ref_loo_objective(X, y, spec: LearnerSpec) -> tuple[float, np.ndarray | None]:
    """(LOO objective, LOO predictions): the objective is negative MAE for a
    numeric target, TSS for class labels.

    A subset on which any fold fails to train scores ``(-inf, None)``.
    """
    result = loo_validate(X, y, spec)
    if result.failed_folds:
        return -np.inf, None
    preds = result.predictions
    if is_regression_target(y):
        return -float(np.mean(np.abs(preds - np.asarray(y, dtype=np.float64)))), preds
    return classification_metrics(preds, y).tss, preds


def ref_sffs(
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
    order (the order decides ties inside the learner), is scored once; its
    objective and LOO predictions stay in a memo, and the best subset's
    predictions are the result's. When no subset scores, the result selects
    nothing, with objective ``-inf`` and no predictions.
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
    asked = 0

    def objective(cols: list[int]) -> float:
        nonlocal asked
        asked += 1
        key = tuple(cols)
        if key not in memo:
            memo[key] = ref_masked_objective(X, y, cols, spec)
        return memo[key][0]

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

    return SelectionResult(
        selected=[names[j] for j in best_subset],
        selected_indices=best_subset,
        objective=float(best_obj),
        rows=drop_incomplete_rows(X, y, best_subset),
        predictions=memo[tuple(best_subset)][1] if best_subset else None,
        trace=trace,
        n_candidates=len(pool),
        n_evaluations=len(memo),
        n_memo_hits=asked - len(memo),
    )


def ref_masked_objective(X, y, cols: list[int], spec: LearnerSpec) -> tuple[float, np.ndarray | None]:
    """``loo_objective`` on the rows complete in ``cols``; ``(-inf, None)``
    with fewer than 3 such rows or when the LOO raises."""
    ok = drop_incomplete_rows(X, np.asarray(y), cols)
    if ok.sum() < 3:
        return -np.inf, None
    y_arr = np.asarray(y)
    try:
        return ref_loo_objective(X[np.ix_(ok, cols)], y_arr[ok], spec)
    except PhonassessError:
        return -np.inf, None


# ---- the comparison ---------------------------------------------------------

def bits(value):
    """Float values as bytes, label arrays as (type, value) pairs; None as None."""
    if value is None:
        return None
    value = np.asarray(value)
    if value.dtype == object:
        return value.dtype.str, [(type(v), v) for v in value.tolist()]
    return value.dtype.str, value.tobytes()


@st.composite
def tied_searches(draw):
    """A matrix of few distinct values with missing cells, its target and learner."""
    n = draw(st.integers(6, 16))
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(0, 3, draw(st.integers(2, 4)))
    X = rng.choice(pool, size=(n, p))
    X[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.1, 0.25]))] = np.nan
    kind = draw(st.sampled_from(["forest", "cart_class", "cart_reg"]))
    if kind == "cart_reg":
        y = rng.choice([0.1, 0.7, 1.0 / 3.0, 2.5, -1.3], size=n)
        y[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = np.nan
        spec = LearnerSpec(kind="cart", min_leaf=draw(st.integers(1, 3)))
    else:
        y = rng.choice(["HC", "PD"], size=n)
        spec = (LearnerSpec(kind="forest", n_trees=draw(st.integers(1, 7))) if kind == "forest"
                else LearnerSpec(kind="cart", min_leaf=draw(st.integers(1, 3))))
    return X, y, spec


def checked_objective(asks, routes):
    """``_masked_objective`` that checks each answer against the reference's."""
    score = selection._masked_objective

    def objective(X, y, cols, spec, beat):
        before = len(routes)
        value, preds = score(X, y, cols, spec, beat)
        routed = len(routes) > before
        want, want_preds = ref_masked_objective(X, y, cols, spec)
        if preds is None and value > -np.inf:  # stopped: a bound it could not beat
            assert want <= value <= beat
        else:
            assert bits(value) == bits(want) and bits(preds) == bits(want_preds)
        ceiling = 0.0 if is_regression_target(y) else 2.0  # the bound before any fold
        assert not (routed and beat >= ceiling), f"{cols} routed lanes to beat {beat}"
        asks.append(tuple(cols))
        return value, preds
    return objective


@settings(max_examples=200, deadline=None)
@given(tied_searches(), st.integers(0, 1000), st.integers(1, 3),
       st.sampled_from([1, 60 * models.CELL_BYTES, models.LANE_BUDGET_BYTES]))
def test_stopped_search_is_the_full_search(problem, seed, patience, budget):
    X, y, spec = problem
    spec = replace(spec, seed=seed)
    names = [f"c{j}" for j in range(X.shape[1])]
    want = ref_sffs(X, y, names, spec, patience=patience)
    asks, routes = [], []
    route = LearnerSpec.route

    def counted(self, *args):
        routes.append(1)
        return route(self, *args)

    with (mock.patch.object(models, "LANE_BUDGET_BYTES", budget),
          mock.patch.object(LearnerSpec, "route", counted),
          mock.patch.object(selection, "_masked_objective", checked_objective(asks, routes))):
        got = sffs(X, y, names, spec, patience=patience)
    assert got.selected == want.selected and got.selected_indices == want.selected_indices
    assert [(a, f, bits(v)) for a, f, v in got.trace] == [(a, f, bits(v)) for a, f, v in want.trace]
    assert bits(got.objective) == bits(want.objective)
    assert got.rows.tobytes() == want.rows.tobytes()
    assert (got.predictions is None) == (want.predictions is None)
    if want.predictions is not None:
        assert bits(got.predictions) == bits(want.predictions)
    assert got.n_candidates == want.n_candidates and got.n_evaluations == want.n_evaluations
    assert len(set(asks)) == got.n_evaluations and got.n_stopped <= got.n_evaluations
    # every ask is a LOO run or a memo hit, in either search
    assert got.n_memo_hits + len(asks) == want.n_memo_hits + want.n_evaluations


# ---- the TSS bound ----------------------------------------------------------

def assert_tss_monotone(positives: int, negatives: int) -> None:
    """TSS of every (tp, tn) count pair never falls as tp or tn rises."""
    tss = np.array([[trade_off_sen_spe(tp / positives, tn / negatives)
                     for tn in range(negatives + 1)] for tp in range(positives + 1)])
    assert (np.diff(tss, axis=0) >= 0).all() and (np.diff(tss, axis=1) >= 0).all()


def test_tss_is_monotone_on_the_paper_cohort():
    assert_tss_monotone(84, 49)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 133), st.integers(1, 133))
def test_tss_is_monotone_on_count_lattices(positives, negatives):
    assert_tss_monotone(positives, negatives)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40))
def test_finished_bound_is_the_tss(seed, n):
    """With every fold predicted, the TSS bound is the TSS, bit for bit."""
    rng = np.random.default_rng(seed)
    y = rng.choice(["HC", "PD"], size=n)
    y[:2] = ["HC", "PD"]
    preds = rng.choice(["HC", "PD"], size=n).astype(object)
    result = LooResult(preds, [], rng.permutation(n).tolist())
    assert bits(selection._reachable(y, result)) == bits(classification_metrics(preds, y).tss)
