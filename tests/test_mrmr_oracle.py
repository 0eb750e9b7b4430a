"""The batched mutual information of mRMR against the per-pair one it replaced.

``_discrete_mi`` and ``ref_mrmr_rank`` are the former per-pair MI and
ranking loop, ``ref_codes`` the former per-column discretization and
``ref_usable`` the former candidate filter of ``cli``, kept verbatim;
values must be bitwise equal, rankings and indices identical.
"""
import warnings
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

from phonassess import selection
from phonassess.selection import (_feature_codes, _mutual_information, _target_codes,
                                  mrmr_rank, quantile_discretize, usable_columns)


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


def ref_codes(X):
    n, p = X.shape
    finite = np.isfinite(X)
    codes = np.zeros((n, p), dtype=np.int64)
    for j in range(p):
        m = finite[:, j]
        if m.any():
            codes[m, j] = quantile_discretize(X[m, j])
    return codes, finite


def ref_usable(X):
    n = X.shape[0]
    return [j for j in range(X.shape[1])
            if np.isfinite(X[:, j]).sum() >= max(3, n // 2)
            and 0 < np.nanmax(X[:, j]) - np.nanmin(X[:, j]) < np.inf]


def ref_mrmr_rank(X, y, k: int) -> list[int]:
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    k = min(k, p)
    target = _target_codes(y)
    codes, finite = ref_codes(X)

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


@st.composite
def problems(draw):
    """A matrix with missing cells, constant and few-valued columns, plus a
    2-class, 3-class or numeric (10-bin) target."""
    n = draw(st.integers(3, 60))
    p = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0, 1, (n, p))
    for j in range(p):
        kind = rng.integers(4)
        if kind == 0:
            X[:, j] = 1.5  # constant
        elif kind == 1:
            X[:, j] = rng.integers(0, rng.integers(1, 5), n)  # few values: ties
    X[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.95]))] = np.nan
    target = draw(st.sampled_from(["two", "three", "numeric"]))
    if target == "numeric":
        y = rng.normal(0, 1, n)
        y[:2] = [0.0, 1.0]
    else:
        labels = ["HC", "PD", "X"][: 2 if target == "two" else 3]
        y = np.array(labels)[rng.integers(0, len(labels), n)]
        y[: len(labels)] = labels
    return X, y


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(problems(), st.sampled_from([3, selection.MI_COLUMNS]))
def test_relevance_and_redundancy_match_per_pair_mi(problem, block):
    X, y = problem
    codes, finite = ref_codes(X)
    target = _target_codes(y)
    n, p = X.shape
    cols = np.arange(p)
    with patch.object(selection, "MI_COLUMNS", block):  # 3: several passes
        want = [_discrete_mi(codes[finite[:, j], j], target[finite[:, j]])
                if finite[:, j].sum() >= 3 else 0.0 for j in range(p)]
        got = _mutual_information(codes, finite, cols, target, np.ones(n, dtype=bool))
        assert bits(got) == bits(want)
        for l in range(p):  # every column against one chosen column
            pairs = [finite[:, j] & finite[:, l] for j in range(p)]
            want = [_discrete_mi(codes[m, j], codes[m, l]) if m.sum() >= 3 else 0.0
                    for j, m in enumerate(pairs)]
            got = _mutual_information(codes, finite, cols, codes[:, l], finite[:, l])
            assert bits(got) == bits(want)


@st.composite
def single_code_references(draw):
    """Codes of up to 24 columns and a reference whose codes are 0 on every row
    some columns are present in, so those pairs have nb == 1. Columns reach
    codes below 8 and up to 9 in one block."""
    n = draw(st.integers(6, 40))
    p = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = rng.integers(1, 10, p)
    top[rng.integers(p)] = 9
    codes = (rng.random((n, p)) * (top + 1)).astype(np.int64)
    b = rng.integers(0, rng.integers(1, 6), n)
    b[:3] = 0
    b_finite = rng.random(n) < 0.9
    b_finite[:3] = True
    finite = rng.random((n, p)) < 0.9
    finite[:, rng.random(p) < 0.6] &= (b == 0)[:, None]  # present only where b is 0
    return codes, finite, b, b_finite


@settings(max_examples=100, deadline=None)
@given(single_code_references())
def test_pairs_of_one_reference_code_match_per_pair_mi(problem):
    """A pair with nb == 1 sums its marginal of b along the contiguous axis,
    pairwise: padding its table to a wider column's na (8 or more) would
    reassociate that sum, so its value must still be the per-pair one."""
    codes, finite, b, b_finite = problem
    want = []
    for j in range(codes.shape[1]):
        m = finite[:, j] & b_finite
        want.append(_discrete_mi(codes[m, j], b[m]) if m.sum() >= 3 else 0.0)
    got = _mutual_information(codes, finite, np.arange(codes.shape[1]), b, b_finite)
    assert bits(got) == bits(want)


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(1, 14))
def test_ranking_matches_per_pair_ranking(problem, k):
    X, y = problem
    assert mrmr_rank(X, y, k) == ref_mrmr_rank(X, y, k)


@st.composite
def wide_matrices(draw):
    """Up to 50 columns of quantized values: ties, constant and all-missing
    columns, and columns with a few or most cells missing."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(0, 1, (n, p)) / draw(st.sampled_from([0.01, 0.3, 1.0]))) * 0.5
    X[:, rng.random(p) < 0.15] = -2.0  # constant
    X[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.02, 0.3]))] = np.nan
    X[:, rng.random(p) < 0.05] = np.nan  # nothing to discretize
    return X


@settings(max_examples=300, deadline=None)
@given(wide_matrices())
def test_batched_codes_match_per_column_discretize(X):
    codes, finite = ref_codes(X)
    got = _feature_codes(X, finite)
    assert got.dtype == codes.dtype
    assert np.array_equal(got, codes)


@st.composite
def candidate_matrices(draw):
    """Columns with inf and -inf cells, all missing, constant 0.1 (std 1.4e-17,
    range 0), or finite in fewer than n // 2 rows."""
    n = draw(st.integers(0, 30))
    p = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(0, 1, (n, p)), draw(st.sampled_from([0, 2])))
    for j in range(p):
        kind = rng.integers(6)
        if kind == 0:
            X[:, j] = 0.1
        elif kind == 1:
            X[:, j] = np.nan
        elif kind == 2:
            X[rng.random(n) < 0.7, j] = np.nan
        elif kind == 3:
            X[rng.random(n) < 0.2, j] = rng.choice([np.inf, -np.inf])
        elif kind == 4:
            X[:, j] = np.where(rng.random(n) < 0.5, np.inf, np.nan)
    X[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = np.nan
    return X


@settings(max_examples=200, deadline=None)
@given(candidate_matrices())
def test_usable_columns_match_column_loop(X):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = usable_columns(X)
    assert got.tolist() == ref_usable(X)
