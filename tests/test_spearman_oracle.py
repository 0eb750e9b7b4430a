"""``spearman`` without ``scipy.stats`` against the former one that used it.

``ref_spearman`` is the former implementation, kept verbatim on
``scipy.stats.rankdata`` and ``scipy.stats.t.sf``; ranks, rho and p must be
bitwise equal. ``scipy.stats`` is imported here only, never by the package.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata, t as t_dist

from phonassess.errors import PhonassessError
from phonassess.evaluation import average_ranks, spearman


def ref_spearman(x, y) -> tuple[float, float]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    n = len(x)
    if n < 5:
        raise PhonassessError("need >= 5 complete pairs for rank correlation")
    if np.std(x) == 0 or np.std(y) == 0:
        raise PhonassessError("constant input: rank correlation undefined")
    rx = rankdata(x)
    ry = rankdata(y)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    if abs(rho) >= 1.0:
        return float(np.sign(rho)), 0.0
    t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(t_dist.sf(abs(t_stat), n - 2))
    return rho, p


@st.composite
def pairs(draw):
    """Quantized (x, y) of length 5-200 with ties, either sign of rho, some NaNs."""
    n = draw(st.integers(5, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.01, 0.25, 1.0, 3.0]))  # coarse steps: many ties
    x = np.round(rng.normal(0, 1, n) / step) * step
    slope = draw(st.sampled_from([-1.0, -0.2, 0.0, 0.2, 1.0]))
    y = np.round((slope * x + rng.normal(0, 1, n)) / step) * step
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.05]))] = np.nan
    return x, y


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_ranks_match_rankdata(pair):
    for v in pair:
        v = v[np.isfinite(v)]
        got = average_ranks(v)
        assert got.dtype == np.float64
        assert bits(got) == bits(rankdata(v))


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_rho_and_p_match_scipy_stats(pair):
    try:
        want = ref_spearman(*pair)
    except PhonassessError as exc:
        with pytest.raises(PhonassessError, match=str(exc)):
            spearman(*pair)
        return
    got = spearman(*pair)
    assert bits(got) == bits(want)


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 60), st.integers(3, 198))
def test_p_matches_t_survival_function(t_stat, df):
    from scipy.special import stdtr

    assert bits(stdtr(df, -t_stat)) == bits(t_dist.sf(t_stat, df))
