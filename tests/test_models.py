import numpy as np
import pytest

from phonassess.errors import PhonassessError
from phonassess.evaluation import loo_validate
from phonassess.models import LearnerSpec, predict, train_cart, train_forest


class TestCart:
    def test_constant_target_single_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (12, 3))
        tree = train_cart(X, np.full(12, 4.2))
        for row in np.vstack([X, rng.uniform(-5, 5, (20, 3))]):
            assert predict(tree, row) == 4.2

    def test_step_function_threshold(self):
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        y = np.where(X[:, 0] > 0.5, 10.0, 0.0)
        tree = train_cart(X, y)
        assert predict(tree, [0.4]) == 0.0 and predict(tree, [0.6]) == 10.0  # 0.4 < threshold < 0.6
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
        for row in ([1.0, 1.0], [0.0, 2.0], [-7.0, 1e9]):
            assert predict(tree, row) == 0.5  # one leaf: the mean of every target

    def test_tie_at_threshold_goes_left(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 0.0, 9.0, 9.0, 9.0])
        tree = train_cart(X, y, min_leaf=1)
        assert predict(tree, [0.5]) == 0.0  # exactly at the midpoint threshold -> left
        assert predict(tree, [np.nextafter(0.5, 1.0)]) == 9.0

    def test_missing_referenced_feature_raises(self):
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = train_cart(X, y)
        with pytest.raises(PhonassessError):
            predict(tree, [np.nan])

    def test_any_missing_value_raises(self):
        # a model routes complete rows only, even where no split reads the value
        X = np.column_stack([np.linspace(0, 1, 20), np.ones(20)])  # column 1 is never split on
        tree = train_cart(X, (X[:, 0] > 0.5).astype(float))
        assert predict(tree, [0.1, 5.0]) == 0.0
        with pytest.raises(PhonassessError, match="missing"):
            predict(tree, [0.1, np.nan])
        with pytest.raises(PhonassessError, match="missing"):
            predict(train_cart(np.ones((6, 1)), np.full(6, 2.5)), [np.nan])  # a single leaf

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
        spec = LearnerSpec(kind="forest", n_trees=3)
        assert spec.vote(iter(["B", "A", "B", "A"])) == "B"  # takes only its 3 trees' leaves
        assert spec.vote(iter(["A", "B", "A"])) == "A"
        # a tie goes to the lexicographically smallest label
        assert LearnerSpec(kind="forest", n_trees=2).vote(iter(["PD", "HC"])) == "HC"
        assert LearnerSpec(kind="forest", n_trees=4).vote(iter(["b", "a", "a", "b"])) == "a"

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

    @pytest.mark.parametrize("kind", ["forrest", "CART", ""])
    def test_unknown_kind_error(self, kind):
        with pytest.raises(PhonassessError, match="kind"):
            LearnerSpec(kind=kind, n_trees=7)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 1, (12, 4)), rng.normal(3, 1, (12, 4))])
        y = np.array(["HC"] * 12 + ["PD"] * 12)
        a = train_forest(X, y, n_trees=15, seed=42)
        b = train_forest(X, y, n_trees=15, seed=42)
        probe = rng.normal(1.5, 1, (20, 4))
        assert [predict(a, r) for r in probe] == [predict(b, r) for r in probe]


@pytest.mark.parametrize("train", [
    lambda X, y: train_cart(X, y),
    lambda X, y: train_forest(X, y, n_trees=3),
    lambda X, y: loo_validate(X, y, LearnerSpec(kind="cart")),
    lambda X, y: loo_validate(X, y, LearnerSpec(kind="forest", n_trees=3)),
], ids=["train_cart", "train_forest", "loo_cart", "loo_forest"])
def test_three_labels_raise(train):
    X = np.random.default_rng(7).uniform(0, 1, (9, 2))
    with pytest.raises(PhonassessError, match="trees classify two labels, got 3"):
        train(X, np.array(["PD", "HC", "X"] * 3))


@pytest.mark.parametrize("y", [[0.0, 1.0, 2.0] * 3, [0.0, 1.0] * 4 + [1.0]],
                         ids=["three_values", "two_values"])
def test_forest_refuses_a_numeric_target(y):
    """A forest classifies class labels only: routing a numeric target
    raises, in a LOO and in a trained model."""
    X = np.random.default_rng(7).uniform(0, 1, (9, 2))
    y = np.array(y)
    with pytest.raises(PhonassessError, match="a forest classifies class labels"):
        loo_validate(X, y, LearnerSpec(kind="forest", n_trees=3))
    with pytest.raises(PhonassessError, match="a forest classifies class labels"):
        predict(train_forest(X, y, n_trees=3), X[0])
