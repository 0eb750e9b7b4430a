import numpy as np
import pytest
from itertools import combinations

from phonassess import selection
from phonassess.errors import PhonassessError
from phonassess.selection import (LearnerSpec, _masked_objective, drop_incomplete_rows,
                                  loo_objective, mrmr_rank, quantile_discretize, sffs)


class TestMrmr:
    def test_target_copy_ranked_first(self):
        rng = np.random.default_rng(40)
        y = rng.normal(0, 1, 80)
        X = np.column_stack([rng.normal(0, 1, 80), y.copy(), rng.normal(0, 1, 80)])
        assert mrmr_rank(X, y, k=3)[0] == 1

    def test_duplicate_penalized(self):
        rng = np.random.default_rng(41)
        y = rng.normal(0, 1, 100)
        best = y + rng.normal(0, 0.05, 100)
        informative = 0.6 * y + rng.normal(0, 0.5, 100)
        X = np.column_stack([best, best.copy(), informative,
                             rng.normal(0, 1, 100), rng.normal(0, 1, 100)])
        rank = mrmr_rank(X, y, k=5)
        assert rank[0] == 0
        assert rank.index(1) > rank.index(2)  # the exact copy sinks below column 2

    def test_duplicate_penalized_brute_force(self):
        # oracle: brute-force greedy objective on the same discretized columns
        rng = np.random.default_rng(42)
        y = rng.normal(0, 1, 120)
        cols = [y + rng.normal(0, 0.1, 120), y + rng.normal(0, 0.1, 120),
                0.5 * y + rng.normal(0, 0.6, 120), rng.normal(0, 1, 120),
                rng.normal(0, 1, 120)]
        X = np.column_stack(cols)

        def mi(a, b):
            na, nb = int(a.max()) + 1, int(b.max()) + 1
            joint = np.zeros((na, nb))
            for i, j in zip(a, b):
                joint[i, j] += 1
            p = joint / joint.sum()
            px, py = p.sum(1), p.sum(0)
            out = 0.0
            for i in range(na):
                for j in range(nb):
                    if p[i, j] > 0:
                        out += p[i, j] * np.log(p[i, j] / (px[i] * py[j]))
            return out

        disc = [quantile_discretize(c) for c in cols]
        ty = quantile_discretize(y)
        rel = [mi(c, ty) for c in disc]
        selected = [int(np.argmax(rel))]
        remaining = [j for j in range(5) if j not in selected]
        while remaining:
            scores = [rel[j] - np.mean([mi(disc[j], disc[s]) for s in selected])
                      for j in remaining]
            j = remaining.pop(int(np.argmax(scores)))
            selected.append(j)
        assert mrmr_rank(X, y, k=5) == selected

    def test_k_equals_p_is_permutation(self):
        rng = np.random.default_rng(43)
        X = rng.normal(0, 1, (50, 6))
        y = X[:, 2] + rng.normal(0, 0.5, 50)
        rank = mrmr_rank(X, y, k=6)
        assert sorted(rank) == list(range(6))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(44)
        X = rng.uniform(0.1, 2, (60, 4))
        y = (X[:, 1] > 1.0).astype(int)
        a = mrmr_rank(X, np.array(["PD" if v else "HC" for v in y]), k=4)
        X2 = X.copy()
        X2[:, 1] = np.exp(X2[:, 1])
        b = mrmr_rank(X2, np.array(["PD" if v else "HC" for v in y]), k=4)
        assert a == b

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_one_mutual_information_pass_per_ranking_step(self, monkeypatch, k):
        """Relevance, then the redundancy of each pick but the k-th, which no
        later step reads: k passes, and the same ranking."""
        rng = np.random.default_rng(48)
        X = rng.normal(0, 1, (40, 6))
        y = X[:, 1] + rng.normal(0, 0.5, 40)
        want = mrmr_rank(X, y, k=k)
        mutual_information, calls = selection._mutual_information, []
        monkeypatch.setattr(selection, "_mutual_information",
                            lambda *args: calls.append(1) or mutual_information(*args))
        assert mrmr_rank(X, y, k=k) == want
        assert len(calls) == k

    def test_constant_target_error(self):
        X = np.random.default_rng(45).normal(0, 1, (20, 3))
        with pytest.raises(PhonassessError):
            mrmr_rank(X, np.ones(20), k=3)
        with pytest.raises(PhonassessError):
            mrmr_rank(X, np.array(["PD"] * 20), k=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_missing_or_infinite_numeric_target_error(self, bad):
        rng = np.random.default_rng(47)
        X = rng.normal(0, 1, (30, 3))
        y = rng.normal(0, 1, 30)
        y[7] = bad
        with pytest.raises(PhonassessError, match="missing or infinite"):
            mrmr_rank(X, y, k=3)


SPEC = LearnerSpec(kind="cart", min_leaf=2)


class TestSffs:
    def test_perfect_single_feature(self):
        rng = np.random.default_rng(46)
        X = np.column_stack([np.array([0.0] * 10 + [1.0] * 10),
                             rng.normal(0, 1, 20), rng.normal(0, 1, 20)])
        y = np.array(["HC"] * 10 + ["PD"] * 10)
        res = sffs(X, y, ["sep", "n1", "n2"], SPEC)
        assert res.selected == ["sep"]
        assert res.objective == pytest.approx(2.0)

    def test_xor_pair_recovered(self):
        rng = np.random.default_rng(47)
        x1 = np.array([0, 0, 1, 1] * 6, dtype=float)
        x2 = np.array([0, 1, 0, 1] * 6, dtype=float)
        y = np.where((x1 + x2) % 2 == 1, "PD", "HC")
        X = np.column_stack([rng.normal(0, 1, 24), x1, x2, rng.normal(0, 1, 24)])
        names = ["n1", "x1", "x2", "n2"]
        res = sffs(X, y, names, SPEC, patience=3)
        assert {"x1", "x2"} <= set(res.selected)
        # oracle: exhaustive subset search with the same objective
        best = max(
            _masked_objective(X, y, list(c), SPEC)[0]
            for r in range(1, 5) for c in combinations(range(4), r)
        )
        assert res.objective == pytest.approx(best)

    def test_objective_at_least_best_single(self):
        rng = np.random.default_rng(48)
        X = rng.normal(0, 1, (30, 5))
        X[:15] += 1.5
        y = np.array(["PD"] * 15 + ["HC"] * 15)
        singles = [_masked_objective(X, y, [j], SPEC)[0] for j in range(5)]
        res = sffs(X, y, list("abcde"), SPEC)
        assert res.objective >= max(singles) - 1e-12

    def test_tie_break_lowest_index(self):
        # all candidates identical -> first column chosen
        X = np.tile(np.array([0.0] * 8 + [1.0] * 8).reshape(-1, 1), (1, 3))
        y = np.array(["HC"] * 8 + ["PD"] * 8)
        res = sffs(X, y, ["c0", "c1", "c2"], SPEC, patience=1)
        assert res.selected[0] == "c0"

    def test_no_candidates_error(self):
        with pytest.raises(PhonassessError):
            sffs(np.ones((5, 0)), np.array(["a"] * 5), [], SPEC)


def test_drop_incomplete_rows():
    X = np.array([[1.0, np.nan], [2.0, 3.0], [np.nan, 4.0]])
    y = np.array([1.0, 2.0, 3.0])
    ok = drop_incomplete_rows(X, y, [0])
    assert list(ok) == [True, True, False]
    ok2 = drop_incomplete_rows(X, y, [0, 1])
    assert list(ok2) == [False, True, False]
    y[1] = np.nan  # no columns: only the target decides
    assert list(drop_incomplete_rows(X, y, [])) == [True, False, True]


def test_regression_objective_path():
    rng = np.random.default_rng(50)
    X = rng.uniform(0, 1, (24, 4))
    y = 10 * X[:, 2] + rng.normal(0, 0.2, 24)
    spec = LearnerSpec(kind="cart", min_leaf=2)
    res = sffs(X, y, list("abcd"), spec, patience=2)
    assert "c" in res.selected


def test_sffs_scores_each_subset_once(monkeypatch):
    import phonassess.selection as selection

    asked = []
    score = selection._masked_objective
    monkeypatch.setattr(selection, "_masked_objective",
                        lambda X, y, cols, spec, beat: asked.append(tuple(cols))
                        or score(X, y, cols, spec, beat))
    rng = np.random.default_rng(52)
    X = rng.uniform(0, 1, (20, 6))
    y = 10 * X[:, 2] + 5 * X[:, 4] + rng.normal(0, 0.5, 20)
    res = sffs(X, y, list("abcdef"), LearnerSpec(kind="cart", min_leaf=2), patience=3)
    assert len(asked) == len(set(asked)) == res.n_evaluations
    assert res.n_candidates == 6
    # floating removal from three features re-asks for a pair scored while adding
    assert len(res.trace) >= 3 and res.n_memo_hits > 0


class _FailsOnFold(LearnerSpec):
    """A learner whose training fails for one LOO fold (fold i trains with seed i)."""

    def lanes(self, y, rows, seed):
        if seed == 3:
            raise PhonassessError("cannot train this fold")
        return super().lanes(y, rows, seed)


class TestFailedFolds:
    def test_lone_hc_fold_scores_minus_inf(self):
        # holding out the only HC leaves a one-class training set
        X = np.random.default_rng(0).standard_normal((8, 2))
        y = np.array(["PD"] * 7 + ["HC"])
        spec = LearnerSpec(kind="forest", n_trees=5)
        assert loo_objective(X, y, spec) == (-np.inf, None)

    @pytest.mark.parametrize("mode", ["classification", "regression"])
    def test_any_failed_fold_scores_minus_inf(self, mode):
        rng = np.random.default_rng(51)
        X = rng.uniform(0, 1, (12, 2))
        y = (np.where(X[:, 0] > 0.5, "PD", "HC") if mode == "classification"
             else 10 * X[:, 0])
        assert np.isfinite(loo_objective(X, y, LearnerSpec(min_leaf=2))[0])
        assert loo_objective(X, y, _FailsOnFold(min_leaf=2)) == (-np.inf, None)

    def test_failed_fold_routes_no_lane(self, monkeypatch):
        """A fold that cannot train decides the objective: no other fold is grown."""
        calls = []
        route = LearnerSpec.route
        monkeypatch.setattr(LearnerSpec, "route",
                            lambda self, *args: calls.append(self.kind) or route(self, *args))
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 2))
        y = np.array(["PD"] * 7 + ["HC"])  # holding out the only HC leaves one class
        assert loo_objective(X, y, LearnerSpec(kind="forest", n_trees=5)) == (-np.inf, None)
        assert loo_objective(X, 10 * X[:, 0], _FailsOnFold(min_leaf=2)) == (-np.inf, None)
        assert calls == []
        y[0] = "HC"  # every fold trains: the LOO routes its lanes
        assert np.isfinite(loo_objective(X, y, LearnerSpec(kind="forest", n_trees=5))[0])
        assert calls == ["forest"]
