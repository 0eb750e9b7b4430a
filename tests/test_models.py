import numpy as np
import pytest

from phonassess.errors import PhonassessError
from phonassess.models import (DecisionTree, ForestModel, LearnerSpec, TreeNode, predict,
                               predict_forest, train_cart, train_forest)


class TestCart:
    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).uniform(0, 1, (12, 3))
        tree = train_cart(X, np.full(12, 4.2))
        assert tree.root.is_leaf
        assert predict(tree, X[0]) == 4.2

    def test_step_function_threshold(self):
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        y = np.where(X[:, 0] > 0.5, 10.0, 0.0)
        tree = train_cart(X, y)
        assert 0.4 < tree.root.threshold < 0.6
        mae = np.mean([abs(predict(tree, r) - v) for r, v in zip(X, y)])
        assert mae == 0.0

    def test_separable_blobs_perfect(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0, 0.5, (15, 2)), rng.normal(5, 0.5, (15, 2))])
        y = np.array(["HC"] * 15 + ["PD"] * 15)
        tree = train_cart(X, y)
        acc = np.mean([predict(tree, r) == t for r, t in zip(X, y)])
        assert acc == 1.0

    def test_constant_features_single_leaf(self):
        X = np.ones((10, 2))
        y = np.array([0.0, 1.0] * 5)
        tree = train_cart(X, y)
        assert tree.root.is_leaf

    def test_tie_at_threshold_goes_left(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 0.0, 9.0, 9.0, 9.0])
        tree = train_cart(X, y, min_leaf=1)
        thr = tree.root.threshold
        assert predict(tree, [thr]) == 0.0  # exactly at the threshold -> left

    def test_missing_referenced_feature_raises(self):
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = train_cart(X, y)
        with pytest.raises(PhonassessError):
            predict(tree, [np.nan])

    def test_single_leaf_predicts_constant_for_missing(self):
        tree = train_cart(np.ones((6, 1)), np.full(6, 2.5))
        # no feature referenced: NaN row is fine
        assert predict(tree, [np.nan]) == 2.5

    def test_missing_target_raises(self):
        X = np.linspace(0, 1, 12).reshape(-1, 1)
        y = X[:, 0] * 3.0
        for bad in (np.nan, np.inf):
            y_bad = y.copy()
            y_bad[5] = bad
            with pytest.raises(PhonassessError, match="target"):
                train_cart(X, y_bad)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.1, 2.0, (40, 3))
        y = (X[:, 0] * 2 + X[:, 1] > 2.5).astype(float)
        t_raw = train_cart(X, y)
        t_exp = train_cart(np.exp(X), y)
        for row in X:
            assert predict(t_raw, row) == predict(t_exp, np.exp(row))


class TestForest:
    def test_majority_vote(self):
        leaf_a = DecisionTree(root=TreeNode(prediction="A"), n_features=1)
        leaf_b = DecisionTree(root=TreeNode(prediction="B"), n_features=1)
        forest = ForestModel(trees=[leaf_a, leaf_a, leaf_b])
        assert predict_forest(forest, [0.0]) == "A"

    def test_single_class_error(self):
        X = np.random.default_rng(5).uniform(0, 1, (10, 2))
        with pytest.raises(PhonassessError):
            train_forest(X, np.array(["PD"] * 10))

    @pytest.mark.parametrize("n_trees", [0, -3])
    def test_no_trees_error(self, n_trees):
        X = np.random.default_rng(5).uniform(0, 1, (10, 2))
        y = np.array(["PD", "HC"] * 5)
        with pytest.raises(PhonassessError, match="n_trees"):
            train_forest(X, y, n_trees=n_trees)
        with pytest.raises(PhonassessError, match="n_trees"):
            LearnerSpec(kind="forest", n_trees=n_trees)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 1, (12, 4)), rng.normal(3, 1, (12, 4))])
        y = np.array(["HC"] * 12 + ["PD"] * 12)
        a = train_forest(X, y, n_trees=15, seed=42)
        b = train_forest(X, y, n_trees=15, seed=42)
        assert a == b
        probe = rng.normal(1.5, 1, (20, 4))
        assert [predict_forest(a, r) for r in probe] == [predict_forest(b, r) for r in probe]
