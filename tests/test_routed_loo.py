"""Routed leave-one-out against per-fold training and ``predict``.

``loo_validate`` builds no model: it carries each held-out row down its
fold's trees while they grow. Every fold must still predict exactly what
``train_cart``/``train_forest`` on the other rows and ``predict`` give, and
fail exactly where training cannot run. Rows with a missing value never
reach a fold: ``loo_validate`` raises first, where a fold's model or
``predict`` would raise or a complete row would be predicted alike.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phonassess.models as models
from phonassess.errors import PhonassessError
from phonassess.evaluation import loo_validate
from phonassess.models import LearnerSpec, predict, train_cart, train_forest


def per_fold(X, y, spec):
    """(predictions, failed folds) of training each fold and calling ``predict``."""
    n, seed = len(X), spec.seed
    preds, failed = [], []
    for i in range(n):
        rows = np.delete(np.arange(n), i)
        try:
            if spec.kind == "forest":
                model = train_forest(X[rows], y[rows], n_trees=spec.n_trees, seed=seed + i)
            else:
                model = train_cart(X[rows], y[rows], min_leaf=spec.min_leaf)
            preds.append(predict(model, X[i]))
        except PhonassessError:
            failed.append(i)
            preds.append(float("nan"))
    return preds, failed


def same(result, preds, failed):
    assert result.failed_folds == failed
    for i, want in enumerate(preds):
        if i not in failed:
            assert np.asarray(result.predictions[i]).tobytes() == np.asarray(want).tobytes()


@st.composite
def tied_problems(draw):
    """A matrix of few distinct values (ties everywhere), its target and learner."""
    n = draw(st.integers(3, 24))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(0, 3, draw(st.integers(1, 4)))
    X = rng.choice(pool, size=(n, p))
    kind = draw(st.sampled_from(["forest", "cart_class", "cart_reg"]))
    if kind == "cart_reg":
        y = rng.choice([0.1, 0.7, 1.0 / 3.0, 2.5, -1.3], size=n)
        spec = LearnerSpec(kind="cart", min_leaf=draw(st.integers(1, 4)))
    else:
        y = rng.choice(["HC", "PD", "X"][:draw(st.integers(2, 3))], size=n)
        spec = (LearnerSpec(kind="forest", n_trees=draw(st.integers(1, 7))) if kind == "forest"
                else LearnerSpec(kind="cart", min_leaf=draw(st.integers(1, 4))))
    return X, y, spec


@settings(max_examples=300, deadline=None)
@given(tied_problems(), st.integers(0, 1000))
def test_routed_loo_matches_per_fold_training(problem, seed):
    X, y, spec = problem
    spec = replace(spec, seed=seed)
    same(loo_validate(X, y, spec), *per_fold(X, y, spec))


def test_missing_value_raises_before_any_fold(monkeypatch):
    """An incomplete row would fail every fold but its own: no fold is built."""
    def refuse(*args):
        raise AssertionError("leave-one-out built a fold")

    monkeypatch.setattr(models.LearnerSpec, "lanes", refuse)
    X = np.random.default_rng(4).normal(size=(12, 3))
    cart, forest = LearnerSpec(kind="cart", min_leaf=1), LearnerSpec(kind="forest", n_trees=3)
    for bad in (np.nan, np.inf, -np.inf):
        y = X[:, 1].copy()
        y[5] = bad
        with pytest.raises(PhonassessError, match="target contains missing"):
            loo_validate(X, y, cart)
    X[3, 2] = np.nan
    for spec, y in ((cart, X[:, 0]), (forest, np.where(X[:, 0] > 0, "PD", "HC"))):
        with pytest.raises(PhonassessError, match="matrix contains missing"):
            loo_validate(X, y, spec)


def _split_off_the_path():
    """A CART whose root splits on column 0 and whose right subtree splits on
    column 1; row 0 is held out, goes left, and misses column 1."""
    x0 = np.array([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9] * 2)
    x1 = np.array([0.5] * 4 + [0.1, 0.9, 0.1, 0.9] + [0.5] * 4 + [0.1, 0.9, 0.1, 0.9])
    X = np.column_stack([x0, x1])
    y = np.where(x0 > 0.5, 10.0 + (x1 > 0.5), 0.0)
    X[0, 1] = np.nan
    return X, y


def test_held_out_row_missing_a_feature_split_on_off_its_path_fails():
    X, y = _split_off_the_path()
    tree = train_cart(X[1:], y[1:], min_leaf=1)
    assert tree.root.feature == 0 and tree.root.left.is_leaf and tree.root.right.feature == 1
    with pytest.raises(PhonassessError):
        predict(tree, X[0])
    with pytest.raises(PhonassessError, match="matrix contains missing"):
        loo_validate(X, y, LearnerSpec(kind="cart", min_leaf=1))
    X[0, 1] = 0.5  # now its path decides
    result = loo_validate(X, y, LearnerSpec(kind="cart", min_leaf=1))
    assert result.failed_folds == [] and result.predictions[0] == 0.0


def test_held_out_row_missing_a_feature_no_tree_uses_is_predicted():
    """``predict`` reads only the features a tree splits on; leave-one-out
    refuses the incomplete row, and once it is complete predicts it alike."""
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.normal(size=20), np.ones(20)])  # column 1 is never split on
    y = np.where(X[:, 0] > 0, "PD", "HC")
    held = X[3].copy()
    held[1] = np.nan
    want = predict(train_forest(np.delete(X, 3, 0), np.delete(y, 3), n_trees=9, seed=5), held)
    spec = LearnerSpec(kind="forest", n_trees=9, seed=2)
    X[3] = held
    with pytest.raises(PhonassessError, match="matrix contains missing"):
        loo_validate(X, y, spec)
    X[3, 1] = 1.0
    result = loo_validate(X, y, spec)
    assert result.failed_folds == [] and result.predictions[3] == want


def test_forest_fold_fails_when_one_tree_uses_the_missing_feature():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(16, 4))
    y = np.where(X[:, 2] + 0.3 * rng.normal(size=16) > 0, "PD", "HC")
    X[5, 2] = np.nan
    forest = train_forest(np.delete(X, 5, 0), np.delete(y, 5), n_trees=6, seed=5)
    assert any(2 in models._features_used(t.root) for t in forest.trees)
    with pytest.raises(PhonassessError):
        predict(forest, X[5])
    with pytest.raises(PhonassessError, match="matrix contains missing"):
        loo_validate(X, y, LearnerSpec(kind="forest", n_trees=6))


def test_loo_builds_no_tree_and_calls_no_predict(monkeypatch):
    def refuse(*args):
        raise AssertionError("leave-one-out built a tree or called predict")

    for name in ("_from_preorder", "predict", "predict_tree", "predict_forest"):
        monkeypatch.setattr(models, name, refuse)
    rng = np.random.default_rng(1)
    X = np.round(rng.normal(size=(15, 3)), 1)
    loo_validate(X, np.where(X[:, 0] > 0, "PD", "HC"), LearnerSpec(kind="forest", n_trees=4))
    loo_validate(X, X[:, 1] * 2.0, LearnerSpec(kind="cart", min_leaf=2))
