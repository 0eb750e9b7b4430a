"""The report's leave-one-out is the search's.

``sffs`` returns the selected subset's rows and the LOO predictions it
scored that subset by. They must equal, bit for bit, a fresh LOO of the
selected columns on the rows complete in them (and in a numeric target):
the path the report took before it reused the search's LOO.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from phonassess.evaluation import loo_validate
from phonassess.models import LearnerSpec
from phonassess.selection import drop_incomplete_rows, sffs


def reference(X, y, sel, spec):
    """(rows, LOO result) of the selected subset, worked out again from scratch."""
    rows = drop_incomplete_rows(X, y, sel.selected_indices)
    return rows, loo_validate(X[np.ix_(rows, sel.selected_indices)], y[rows], spec)


def bits(preds):
    """Float predictions as bytes, label predictions as (type, value) pairs."""
    preds = np.asarray(preds)
    if preds.dtype == object:
        return preds.dtype.str, [(type(v), v) for v in preds.tolist()]
    return preds.dtype.str, preds.tobytes()


@st.composite
def tied_searches(draw):
    """A matrix of few distinct values with missing cells, its target and learner."""
    n = draw(st.integers(6, 16))
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(0, 3, draw(st.integers(2, 4)))
    X = rng.choice(pool, size=(n, p))
    X[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.1, 0.25]))] = np.nan
    if draw(st.booleans()):
        y = rng.choice([0.1, 0.7, 1.0 / 3.0, 2.5, -1.3], size=n)
        y[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = np.nan
        spec = LearnerSpec(kind="cart", min_leaf=draw(st.integers(1, 3)))
    else:
        y = rng.choice(["HC", "PD"], size=n)
        spec = LearnerSpec(kind="forest", n_trees=draw(st.integers(1, 5)))
    return X, y, spec


@settings(max_examples=200, deadline=None)
@given(tied_searches(), st.integers(0, 1000), st.integers(1, 3))
def test_search_loo_is_the_selected_subsets_loo(problem, seed, patience):
    X, y, spec = problem
    spec = replace(spec, seed=seed)
    sel = sffs(X, y, [f"c{j}" for j in range(X.shape[1])], spec, patience=patience)
    rows, loo = reference(X, y, sel, spec)
    assert sel.rows.dtype == bool and sel.rows.tobytes() == rows.tobytes()
    if sel.predictions is None:  # no subset scored: nothing was selected
        assert sel.selected_indices == [] and sel.objective == -np.inf
        assert all(value == -np.inf for *_, value in sel.trace)
        return
    assert np.isfinite(sel.objective) and not loo.failed_folds
    assert bits(sel.predictions) == bits(loo.predictions)
