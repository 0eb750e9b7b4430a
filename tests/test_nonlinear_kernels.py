"""The group-6 pairwise kernels against the loops they replaced.

``lz76_count`` parses with ``bytes.find``, ApEn and SampEn share their
Chebyshev matrices (``_template_entropies``), the SampEn kernel sums skip
work they do not need, the correlation sums count in sorted pair vectors,
and the Lyapunov fit masks its Theiler band without index matrices. The
former kernels are kept verbatim below as references; every value must be
bitwise the same.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonassess.errors import InsufficientSignalError
from phonassess.features import nonlinear
from phonassess.synth import synth_vowel


# ---- references: the former kernels, kept verbatim -------------------------

def _embed_cheb(base: np.ndarray, n_points: int, m: int, tau: int) -> np.ndarray:
    """Chebyshev distances of m-dim delay vectors from the scalar base matrix."""
    d = base[:n_points, :n_points].copy()
    for k in range(1, m):
        off = k * tau
        np.maximum(d, base[off : off + n_points, off : off + n_points], out=d)
    return d


def ref_lz76_count(bits: np.ndarray) -> int:
    """Number of distinct phrases in the LZ76 exhaustive parse."""
    s = bits.tolist()
    n = len(s)
    i = 0
    c = 1
    u = 1
    v = 1
    vmax = 1
    while u + v <= n:
        if s[i + v - 1] == s[u + v - 1]:
            v += 1
        else:
            vmax = max(v, vmax)
            i += 1
            if i == u:
                c += 1
                u += vmax
                i = 0
                v = 1
                vmax = 1
            else:
                v = 1
    if v != 1:
        c += 1
    return c


def ref_correlation_dimension(d_m: np.ndarray, theiler: int) -> float | None:
    """Grassberger-Procaccia slope of log C(r) over log r from a distance matrix.

    The former loop, except that no scaling region now gives None (no
    value) where it gave 0.0.
    """
    i, j = np.triu_indices(d_m.shape[0], k=theiler + 1)
    d = d_m[i, j]
    d = d[d > 0]
    if len(d) < 10:
        return None
    lo, hi = np.percentile(d, [5, 50])
    if not 0 < lo < hi:
        return None
    rs = np.exp(np.linspace(np.log(lo), np.log(hi), 10))
    c = np.array([np.mean(d < r) for r in rs])
    good = c > 0
    if good.sum() < 3:
        return None
    slope, _ = np.polyfit(np.log(rs[good]), np.log(c[good]), 1)
    return float(slope)


def ref_correlation_entropy(d_m: np.ndarray, d_m1: np.ndarray, theiler: int) -> float:
    """K2 estimate: mean ln C_m(r)/C_{m+1}(r) over the scaling region.

    The former loop, except that no scaling region now gives None (no
    value) where it gave 0.0.
    """
    n1 = d_m1.shape[0]
    i, j = np.triu_indices(n1, k=theiler + 1)
    dm = d_m[:n1, :n1][i, j]
    dm1 = d_m1[i, j]
    pos = dm[dm > 0]
    if len(pos) < 10:
        return None
    lo, hi = np.percentile(pos, [10, 60])
    if not 0 < lo < hi:
        return None
    rs = np.exp(np.linspace(np.log(lo), np.log(hi), 6))
    vals = []
    for r in rs:
        cm = np.mean(dm < r)
        cm1 = np.mean(dm1 < r)
        if cm > 0 and cm1 > 0:
            vals.append(np.log(cm / cm1))
    return float(np.mean(vals)) if vals else None


def ref_largest_lyapunov(d_m: np.ndarray, theiler: int) -> float | None:
    """Divergence-rate fit (nearest-neighbor method), nats per sample; None
    when the mean log-divergence curve has fewer than 5 points. The caller
    passes at least 100 delay vectors."""
    n = d_m.shape[0]
    d = d_m.copy()
    idx = np.arange(n)
    d[np.abs(idx[:, None] - idx[None, :]) <= theiler] = np.inf
    nn = np.argmin(d, axis=1)
    finite = np.isfinite(d[idx, nn])
    horizon = min(nonlinear.LLE_FIT_LEN, n // 4)
    curve = []
    for k in range(horizon):
        valid = finite & (idx + k < n) & (nn + k < n)
        if valid.sum() < 10:
            break
        sep = d_m[idx[valid] + k, nn[valid] + k]
        sep = sep[sep > 0]
        if len(sep) < 10:
            break
        curve.append(np.mean(np.log(sep)))
    if len(curve) < 5:
        return None
    slope, _ = np.polyfit(np.arange(len(curve)), curve, 1)
    return float(slope)


def ref_complexity_features(x: np.ndarray, tau: int) -> dict[str, float]:
    """cd, he and lle as the former ``complexity_features`` assembled them."""
    x = np.asarray(x, dtype=np.float64)
    m = nonlinear.EMBED_DIM
    w = nonlinear._cap_window(x, nonlinear.PAIR_CAP + (m - 1) * tau)
    n_pts = len(w) - (m - 1) * tau
    sd = np.std(w)
    ws = w / sd if sd > 0 else w
    base = np.abs(ws[:, None] - ws[None, :])
    d_m = _embed_cheb(base, n_pts, m, tau)
    pos = x >= 0
    crossings = np.count_nonzero(pos[1:] != pos[:-1])
    theiler = max(tau, int(2 * len(x) / max(crossings, 2)))
    out = {"cd": ref_correlation_dimension(d_m, theiler=tau),
           "he": nonlinear.hurst_exponent(x),
           "lle": ref_largest_lyapunov(d_m, theiler)}
    return {name: v for name, v in out.items() if v is not None}


SE_KERNELS = {
    "k1": lambda u: (u < 1.0).astype(float),            # Heaviside (classic)
    "k2": lambda u: np.exp(-0.5 * u**2),                # Gaussian
    "k3": lambda u: np.exp(-u),                         # exponential
    "k4": lambda u: np.maximum(0.0, 1.0 - u),           # triangular
    "k5": lambda u: np.maximum(0.0, 1.0 - u**2),        # Epanechnikov
    "k6": lambda u: np.maximum(0.0, 1.0 - u**2) ** 2,   # quartic
    "k7": lambda u: 1.0 / (1.0 + u**2),                 # Cauchy
    "k8": lambda u: np.where(u < 1.0, np.cos(0.5 * np.pi * u), 0.0),  # cosine
}


def ref_apen_from_base(base: np.ndarray, n: int, m: int, r: float) -> float:
    """Pincus ApEn(m, r) with self-matches."""
    def phi(mm: int) -> float:
        cnt = n - mm + 1
        d = _embed_cheb(base, cnt, mm, 1)
        c = np.mean(d <= r, axis=1)
        return float(np.mean(np.log(c)))

    return phi(m) - phi(m + 1)


def ref_sampen_from_base(base: np.ndarray, n: int, m: int, r: float) -> dict[str, float]:
    """Sample entropy under the eight kernel variants.

    se = -ln(sum K(d_{m+1}/r) / sum K(d_m/r)) over distinct template pairs;
    the Heaviside kernel recovers classic SampEn. An empty match count falls
    back to the ln of the pair count (the conventional ceiling).
    """
    cnt = n - m
    d_m = _embed_cheb(base, cnt, m, 1)
    d_m1 = _embed_cheb(base, cnt, m + 1, 1)
    iu = np.triu_indices(cnt, k=1)
    um = d_m[iu] / r
    um1 = d_m1[iu] / r
    out = {}
    for name, kernel in SE_KERNELS.items():
        b = float(kernel(um).sum())
        a = float(kernel(um1).sum())
        if a <= 0 or b <= 0:
            out[f"se_{name}"] = float(np.log(max(len(um), 2)))
        else:
            out[f"se_{name}"] = float(-np.log(a / b))
    return out


# ---- inputs ----------------------------------------------------------------

@st.composite
def bit_strings(draw, max_len=600):
    """Random, biased, periodic (with a few flipped bits) and run-length bit strings."""
    n = draw(st.integers(0, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "biased", "periodic", "runs"]))
    if kind == "random":
        bits = rng.integers(0, 2, n)
    elif kind == "biased":
        bits = rng.random(n) < draw(st.floats(0.01, 0.99))
    elif kind == "periodic":
        bits = np.resize(rng.integers(0, 2, draw(st.integers(1, 24))), n)
        flips = rng.integers(0, max(n, 1), draw(st.integers(0, 3)))
        bits[flips[flips < n]] ^= 1
    else:
        runs = rng.integers(1, draw(st.integers(1, 80)) + 1, n + 1)
        bits = np.repeat(np.arange(len(runs)) % 2, runs)[:n]
    return bits.astype(np.uint8)


QUANTUM = 0.25  # signal and radius step; d / r lands exactly on 1.0 for some pairs


@st.composite
def signals(draw, min_len, max_len):
    """(x, unit): noise, noisy tones, quantized values or constant runs,
    scaled by a power of two so quantized distances stay exact; ``unit`` is
    the scaled quantum."""
    n = draw(st.integers(min_len, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "tone", "quantized", "runs"]))
    if kind == "noise":
        x = rng.standard_normal(n)
    elif kind == "tone":
        period = draw(st.integers(4, 150))
        x = np.sin(2 * np.pi * np.arange(n) / period)
        x = x + draw(st.sampled_from([0.0, 0.01, 0.3])) * rng.standard_normal(n)
    elif kind == "quantized":
        x = QUANTUM * rng.integers(0, draw(st.integers(2, 12)), n)
    else:
        runs = rng.integers(1, draw(st.integers(1, 60)) + 1, n)
        x = QUANTUM * np.repeat(rng.integers(0, 6, n), runs)[:n]
    unit = QUANTUM * 2.0 ** draw(st.integers(-8, 8))
    return x * (unit / QUANTUM), unit


def same(a: dict, b: dict) -> bool:
    """Equal keys and bitwise-equal values (NaN equal to NaN)."""
    return a.keys() == b.keys() and all(
        np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes() for k in a)


# ---- bitwise equality ------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.one_of(bit_strings(), st.lists(st.integers(0, 1), max_size=64).map(
    lambda v: np.array(v, dtype=np.uint8))))
def test_lz76_count_matches_reference(bits):
    assert nonlinear.lz76_count(bits) == ref_lz76_count(bits)


@settings(max_examples=200, deadline=None)
@given(signals(3, 400), st.integers(1, 3), st.integers(1, 8), st.booleans())
def test_template_entropies_match_references(signal, m, steps, quantized_radius):
    x, unit = signal
    if len(x) < m + 2:
        x = np.resize(x, m + 2)
    base = np.abs(x[:, None] - x[None, :])
    # a whole number of quanta puts some d / r exactly on 1.0 for quantized signals
    r = steps * unit if quantized_radius or np.std(x) == 0 else 0.2 * np.std(x)
    expected = {"ae": ref_apen_from_base(base, len(x), m, r),
                **ref_sampen_from_base(base, len(x), m, r)}
    assert same(nonlinear._template_entropies(base, m, r), expected)


@settings(max_examples=200, deadline=None)
@given(signals(60, 600), st.integers(2, 4), st.integers(1, 20), st.integers(1, 50))
def test_correlation_sums_match_references(signal, m, tau, theiler):
    x, _ = signal
    n_m1 = len(x) - m * tau
    if n_m1 < 2:
        return
    base = np.abs(x[:, None] - x[None, :])
    d_m = _embed_cheb(base, len(x) - (m - 1) * tau, m, tau)
    d_m1 = _embed_cheb(base, n_m1, m + 1, tau)
    ce = nonlinear._correlation_entropy(d_m, d_m1, theiler)
    ref = ref_correlation_entropy(d_m, d_m1, theiler)
    assert (ce is None) == (ref is None)
    assert np.float64(ce).tobytes() == np.float64(ref).tobytes()
    cd = nonlinear.correlation_dimension(d_m, theiler)
    cd_ref = ref_correlation_dimension(d_m, theiler)
    assert (cd is None) == (cd_ref is None)
    assert np.float64(cd).tobytes() == np.float64(cd_ref).tobytes()


def ref_pairwise_entropies(x: np.ndarray, tau: int) -> dict[str, float]:
    """ae, se_* and ce as the former ``entropy_features`` assembled them."""
    w = x
    sd = np.std(w)
    base = np.abs(w[:, None] - w[None, :])
    out = {"ae": ref_apen_from_base(base, len(w), 2, 0.2 * sd)}
    out.update(ref_sampen_from_base(base, len(w), 2, 0.2 * sd))
    m = nonlinear.EMBED_DIM
    n_m1 = len(w) - m * tau
    if n_m1 >= 100:
        d_m = _embed_cheb(base, len(w) - (m - 1) * tau, m, tau)
        d_m1 = _embed_cheb(base, n_m1, m + 1, tau)
        ce = ref_correlation_entropy(d_m, d_m1, theiler=tau)
        if ce is not None:
            out["ce"] = ce
    return out


@settings(max_examples=60, deadline=None)
@given(signals(500, 600), st.integers(1, 50))
def test_entropy_features_match_references(signal, tau):
    x, _ = signal
    if np.std(x) == 0:
        return
    feats = nonlinear.entropy_features(x, tau)
    expected = ref_pairwise_entropies(x, tau)
    assert same({k: feats[k] for k in feats if k in expected or k == "ce"}, expected)


def lyapunov_input(x: np.ndarray, m: int, tau: int) -> np.ndarray:
    """The Chebyshev matrix ``complexity_features`` hands the Lyapunov fit."""
    base = np.abs(x[:, None] - x[None, :])
    return _embed_cheb(base, len(x) - (m - 1) * tau, m, tau)


def same_value(a, b) -> bool:
    """Both None, or bitwise-equal floats."""
    return (a is None) == (b is None) and np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=150, deadline=None)
@given(signals(130, 450), st.integers(2, 4), st.integers(1, 10), st.integers(1, 500))
def test_largest_lyapunov_matches_reference(signal, m, tau, theiler):
    """Theiler bands from one diagonal past the self-match up to beyond n,
    where every cell lies in the band and no row has a neighbour."""
    x, _ = signal
    d_m = lyapunov_input(x, m, tau)
    kept = d_m.copy()
    assert same_value(nonlinear._largest_lyapunov(d_m, theiler),
                      ref_largest_lyapunov(d_m, theiler))
    assert np.array_equal(d_m, kept)  # the caller's matrix is read, never written


@pytest.mark.parametrize("past", [-2, -1, 0, 1, 40])
def test_largest_lyapunov_band_at_matrix_edge(past):
    """theiler = n - 2 leaves the two corner cells outside the band; n - 1 or more covers all."""
    x = np.sin(2 * np.pi * np.arange(300) / 37) + 0.1 * np.random.default_rng(5).standard_normal(300)
    d_m = lyapunov_input(x, 3, 4)
    theiler = d_m.shape[0] + past
    assert same_value(nonlinear._largest_lyapunov(d_m, theiler),
                      ref_largest_lyapunov(d_m, theiler))


@settings(max_examples=60, deadline=None)
@given(st.one_of(signals(100, 600), signals(1180, 1300)), st.integers(1, 20))
def test_complexity_features_match_references(signal, tau):
    """Short signals and ones past the PAIR_CAP window."""
    x, _ = signal
    if len(x) - (nonlinear.EMBED_DIM - 1) * tau < 100:
        with pytest.raises(InsufficientSignalError):
            nonlinear.complexity_features(x, tau)
        return
    assert same(nonlinear.complexity_features(x, tau), ref_complexity_features(x, tau))


@pytest.mark.parametrize("seed", [1, 11, 33])
def test_vowel_features_match_references(seed):
    """A 2 s vowel at its own delay: complexity_features over the whole of it
    and entropy_features over its first 0.5 s block, as extraction calls them."""
    x = synth_vowel(fs=16000, seed=seed)
    tau = nonlinear.fmmi(x)
    assert same(nonlinear.complexity_features(x, tau), ref_complexity_features(x, tau))
    block = x[:8000]
    feats = nonlinear.entropy_features(block, tau)
    expected = ref_pairwise_entropies(nonlinear._cap_window(block, nonlinear.ENTROPY_CAP), tau)
    assert same({k: feats[k] for k in feats if k in expected or k == "ce"}, expected)
