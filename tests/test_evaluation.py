import math

import numpy as np
import pytest

import phonassess.models as models
from phonassess.errors import PhonassessError
from phonassess.evaluation import (SCALES, classification_metrics, correlation_graph_data,
                                   estimation_errors, fold_order, loo_validate,
                                   regression_metrics, round_half_away, spearman,
                                   trade_off_sen_spe)
from phonassess.models import LearnerSpec, check_complete


class TestTradeOff:
    def test_reported_pairs(self):
        assert trade_off_sen_spe(0.9286, 0.8571) == pytest.approx(1.9572, abs=5e-4)
        assert trade_off_sen_spe(0.9167, 0.8367) == pytest.approx(1.9440, abs=5e-4)

    def test_perfect_is_two(self):
        assert trade_off_sen_spe(1.0, 1.0) == 2.0

    def test_zero_spe_is_one(self):
        for sen in (0.0, 0.3, 0.75, 1.0):
            assert trade_off_sen_spe(sen, 0.0) == 1.0

    def test_bounds_and_monotonicity_grid(self):
        grid = np.linspace(0, 1, 21)
        values = np.array([[trade_off_sen_spe(s, p) for p in grid] for s in grid])
        assert values.min() >= 1.0 and values.max() <= 2.0
        assert np.all(np.diff(values, axis=0) >= -1e-12)  # monotone in SEN
        assert np.all(np.diff(values, axis=1) >= -1e-12)  # monotone in SPE


class TestClassificationMetrics:
    def test_counts(self):
        truth = np.array(["PD"] * 6 + ["HC"] * 4)
        pred = np.array(["PD", "PD", "PD", "PD", "PD", "HC", "HC", "HC", "HC", "PD"])
        m = classification_metrics(pred, truth)
        assert m.sen == pytest.approx(100 * 5 / 6)
        assert m.spe == pytest.approx(100 * 3 / 4)
        assert m.acc == pytest.approx(100 * 8 / 10)

    def test_acc_identity(self):
        rng = np.random.default_rng(60)
        truth = np.array(["PD"] * 30 + ["HC"] * 20)
        pred = rng.choice(["PD", "HC"], 50)
        m = classification_metrics(pred, truth)
        assert m.acc == pytest.approx((m.sen * 30 + m.spe * 20) / 50)

    def test_single_class_error(self):
        with pytest.raises(PhonassessError):
            classification_metrics(np.array(["PD", "PD"]), np.array(["PD", "PD"]))

    @pytest.mark.parametrize("bad", [float("nan"), None, "XX"])
    def test_prediction_that_is_no_label_raises(self, bad):
        # a failed fold's NaN must not count as a negative (HC) prediction
        with pytest.raises(PhonassessError, match="class label"):
            classification_metrics(["PD", bad], ["PD", "HC"])
        with pytest.raises(PhonassessError, match="class label"):
            classification_metrics(np.array(["PD", bad], dtype=object), np.array(["PD", "HC"]))


class TestRegressionMetrics:
    def test_identity(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        mae, rho = regression_metrics(y, y)
        assert mae == 0.0 and rho == pytest.approx(1.0)

    def test_negation(self):
        y = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        _, rho = regression_metrics(-y, y)
        assert rho == pytest.approx(-1.0)

    def test_shift(self):
        y = np.array([1.0, 2.0, 3.0])
        mae, rho = regression_metrics(y + 1, y)
        assert mae == pytest.approx(1.0) and rho == pytest.approx(1.0)

    def test_constant_truth_rho_missing(self):
        mae, rho = regression_metrics(np.array([1.0, 2.0, 3.0]), np.full(3, 2.0))
        assert math.isnan(rho)

    def test_inexact_constant_truth_rho_missing(self):
        # np.std of this vector is about 1.4e-17, not 0; its range is 0
        _, rho = regression_metrics(np.arange(6.0), np.full(6, 0.1))
        assert math.isnan(rho)


class TestEstimationErrors:
    # (mae, scale id, printed EE2 %)
    FIXTURES = [
        (0.77, "mmse", 2.57), (1.30, "updrs4", 5.65), (5.70, "updrs3", 5.28),
        (11.48, "nmss", 3.19), (3.58, "acer", 3.58), (3.12, "bdi", 4.95),
        (2.30, "fog", 9.58), (1.54, "rbdsq", 11.85),
    ]

    @pytest.mark.parametrize("mae,scale_id,expected", FIXTURES)
    def test_bounded_scales(self, mae, scale_id, expected):
        _, ee2 = estimation_errors(mae, SCALES[scale_id], observed_range=max(mae * 4, 1.0))
        assert ee2 == pytest.approx(expected, abs=0.01)

    def test_unbounded_missing(self):
        for scale_id in ("duration", "led"):
            _, ee2 = estimation_errors(2.25, SCALES[scale_id], observed_range=21.0)
            assert ee2 is None

    def test_zero_mae(self):
        ee1, ee2 = estimation_errors(0.0, SCALES["mmse"], observed_range=14.0)
        assert ee1 == 0.0 and ee2 == 0.0

    def test_ee1_ge_ee2_when_range_within_max(self):
        ee1, ee2 = estimation_errors(1.3, SCALES["updrs4"], observed_range=10.0)
        assert ee1 >= ee2

    def test_zero_range_error(self):
        with pytest.raises(PhonassessError):
            estimation_errors(1.0, SCALES["mmse"], observed_range=0.0)


class TestSpearman:
    def test_strictly_increasing(self):
        x = np.arange(10, dtype=float)
        rho, p = spearman(x, x**3 + 5)
        assert rho == pytest.approx(1.0)
        assert p < 0.01

    def test_reversed(self):
        x = np.arange(8, dtype=float)
        rho, _ = spearman(x, -x)
        assert rho == pytest.approx(-1.0)

    def test_ties_against_brute_force(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 7.0])
        y = np.array([3.0, 1.0, 4.0, 4.0, 6.0, 5.0, 9.0, 8.0])

        def avg_ranks(v):
            order = np.argsort(v, kind="stable")
            ranks = np.empty(len(v))
            i = 0
            while i < len(v):
                j = i
                while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                    j += 1
                ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            return ranks

        rx, ry = avg_ranks(x), avg_ranks(y)
        expected = np.corrcoef(rx, ry)[0, 1]
        rho, _ = spearman(x, y)
        assert rho == pytest.approx(expected, rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(61)
        x = rng.normal(0, 1, 40)
        y = rng.normal(0, 1, 40)
        a, _ = spearman(x, y)
        b, _ = spearman(np.exp(x), np.cbrt(y))
        assert a == pytest.approx(b, rel=1e-12)

    def test_constant_error(self):
        with pytest.raises(PhonassessError):
            spearman(np.ones(10), np.arange(10, dtype=float))

    def test_inexact_constant_error(self):
        # np.std of this vector is about 1.4e-17, not 0; its range is 0
        with pytest.raises(PhonassessError, match="constant input: rank correlation undefined"):
            spearman(np.arange(6.0), np.full(6, 0.1))


class TestCorrelationGraph:
    def test_exact_quadratic(self):
        x = np.linspace(-3, 3, 25)
        panel = correlation_graph_data(x, x**2)
        assert panel.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert panel.coefficients[1] == pytest.approx(0.0, abs=1e-9)
        assert panel.coefficients[2] == pytest.approx(0.0, abs=1e-9)

    def test_line_has_zero_quadratic(self):
        x = np.linspace(0, 5, 20)
        panel = correlation_graph_data(x, 2 * x + 1)
        assert panel.coefficients[0] == pytest.approx(0.0, abs=1e-9)

    def test_noisy_against_normal_equations(self):
        rng = np.random.default_rng(62)
        x = rng.uniform(-2, 2, 60)
        y = 1.5 * x**2 - 0.7 * x + 2 + rng.normal(0, 0.3, 60)
        panel = correlation_graph_data(x, y)
        A = np.column_stack([x**2, x, np.ones_like(x)])
        expected = np.linalg.solve(A.T @ A, A.T @ y)
        assert np.allclose(panel.coefficients, expected, atol=1e-8)

    def test_degenerate_error(self):
        with pytest.raises(PhonassessError):
            correlation_graph_data(np.ones(10), np.arange(10, dtype=float))


class TestLoo:
    def test_constant_target(self):
        X = np.random.default_rng(63).uniform(0, 1, (8, 2))
        y = np.full(8, 3.0)
        result = loo_validate(X, y, LearnerSpec(min_leaf=3))
        assert np.all(result.predictions == 3.0)

    def test_fold_isolation_poisoning(self):
        # an outlier target on row i must not pull its own prediction when the
        # feature is uninformative
        rng = np.random.default_rng(64)
        X = rng.uniform(0, 1, (12, 1))
        y = np.full(12, 5.0)
        y_poisoned = y.copy()
        y_poisoned[4] = 500.0
        result = loo_validate(X, y_poisoned, LearnerSpec(min_leaf=6))
        assert result.predictions[4] == pytest.approx(5.0, abs=1.0)

    def test_prediction_count(self):
        rng = np.random.default_rng(65)
        X = rng.uniform(0, 1, (9, 2))
        y = X[:, 0]
        result = loo_validate(X, y, LearnerSpec(min_leaf=3))
        assert len(result.predictions) == 9

    def test_separable_blobs_forest(self):
        rng = np.random.default_rng(66)
        X = np.vstack([rng.normal(0, 0.4, (12, 3)), rng.normal(4, 0.4, (12, 3))])
        y = np.array(["HC"] * 12 + ["PD"] * 12)
        result = loo_validate(X, y, LearnerSpec(kind="forest", n_trees=25, seed=7))
        m = classification_metrics(result.predictions, y)
        assert m.acc == 100.0 and m.tss == 2.0

    def test_reproducible(self):
        rng = np.random.default_rng(67)
        X = np.vstack([rng.normal(0, 1, (10, 3)), rng.normal(2, 1, (10, 3))])
        y = np.array(["HC"] * 10 + ["PD"] * 10)
        spec = LearnerSpec(kind="forest", n_trees=20, seed=11)
        a = loo_validate(X, y, spec)
        b = loo_validate(X, y, spec)
        assert list(a.predictions) == list(b.predictions)

    def test_too_few_rows(self):
        with pytest.raises(PhonassessError):
            loo_validate(np.ones((2, 1)), np.ones(2), LearnerSpec())

    @pytest.mark.parametrize("kind, y", [
        ("cart", np.linspace(0.0, 3.0, 9)),
        ("cart", np.array(["PD", "HC", "PD"] * 3)),
        ("forest", np.array(["PD", "HC", "PD"] * 3)),
    ], ids=["cart_numeric", "cart_labels", "forest_labels"])
    def test_target_is_coded_once(self, monkeypatch, kind, y):
        calls = []
        code_target = models.code_target
        monkeypatch.setattr(models, "code_target",
                            lambda target: calls.append(1) or code_target(target))
        X = np.random.default_rng(68).uniform(0, 1, (9, 2))
        loo_validate(X, y, LearnerSpec(kind=kind, n_trees=3))
        assert len(calls) == 1


class TestFoldOrder:
    def test_numeric_target_keeps_row_order(self):
        _, classes, target = check_complete(np.zeros((5, 1)), [3.0, 1.0, 2.0, 0.5, 9.0])
        assert fold_order(classes, target).tolist() == [0, 1, 2, 3, 4]

    def test_classes_interleave_by_share(self):
        # HC (code 0) rows 0, 1, 2 sit at 1/6, 3/6, 5/6 and PD (code 1) rows
        # 3..8 at 1/12, 3/12, ..., 11/12
        y = ["HC"] * 3 + ["PD"] * 6
        _, classes, target = check_complete(np.zeros((9, 1)), y)
        assert classes == ["HC", "PD"] and target.tolist() == [0] * 3 + [1] * 6
        assert fold_order(classes, target).tolist() == [3, 0, 4, 5, 1, 6, 7, 2, 8]

    def test_equal_shares_keep_row_order(self):
        _, classes, target = check_complete(np.zeros((4, 1)), ["PD", "HC", "HC", "PD"])
        # each class's rows at 1/4 and 3/4: the tie goes to the lower row
        assert fold_order(classes, target).tolist() == [0, 1, 2, 3]


def test_round_half_away():
    assert round_half_away(2.565) == 2.57 or abs(2.565 * 100 - math.floor(2.565 * 100)) != 0.5
    assert round_half_away(2.5650000001) == 2.57
    assert round_half_away(-2.565000001) == -2.57
    assert round_half_away(1.9572, 4) == 1.9572
