"""Nonlinear-dynamics features over delay-embedded phase space.

The pairwise estimators (correlation dimension, correlation entropy,
Lyapunov, approximate/sample entropy) are O(N^2); inputs are capped to a
centered contiguous window and all of them share one |x_i - x_j| base
matrix, from which the Chebyshev distance of m-dimensional delay vectors is
a running maximum over shifted submatrices. Each block builds each
Chebyshev matrix once: the (m+1)-dimensional one is the m-dimensional one
raised by one more shifted base block, and ApEn and SampEn share theirs.
The LZ76 parse runs on ``bytes.find``. Caps are deterministic, so every
estimator is bit-reproducible for fixed parameters.

Working set: each n x n matrix is freed once its last reader is done, and
the only n x n temporaries besides the distance matrices are boolean (the
pair mask and ApEn's match mask), never integer index matrices.
- ``complexity_features`` holds base and d_m while it builds d_m, then
  d_m alone; ``correlation_dimension`` adds its sorted pair vector and
  ``_largest_lyapunov`` one banded copy of d_m, dropped after ``argmin``.
- ``_template_entropies`` holds the caller's base and one matrix: d_{m+1}
  overwrites d_m's leading block once d_m's row counts and pairs are read.
  The pair vectors of d_m and d_{m+1} are held one at a time, each with
  the one scratch buffer of ``_kernel_sums``.
- ``entropy_features`` drops base once the correlation-entropy d_m and
  d_{m+1} are built. ``_correlation_entropy`` sorts d_m's pair vector in
  place to read its percentiles; d_{m+1}'s pairs below each radius are
  counted, not sorted.
"""
from __future__ import annotations

import numpy as np

from ..errors import InsufficientSignalError

HIST_BINS = 64
MI_BINS = 16
MI_MAX_LAG = 400
MI_FLAT = 0.1  # nats; below this at lag 1 the samples are already independent
EMBED_DIM = 3
PAIR_CAP = 1200
ENTROPY_CAP = 1000
LLE_FIT_LEN = 40  # divergence-curve steps fit for the Lyapunov slope
PE_ORDER = 3
RBE_BLOCK = 3


def embed(x: np.ndarray, m: int = EMBED_DIM, tau: int = 1) -> np.ndarray:
    """Delay-embedding trajectory (points, m), row i = x[i], x[i + tau], ...;
    the estimators never build it but read its distances (``_embed_cheb``)."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x) - (m - 1) * tau
    if n <= 0:
        raise InsufficientSignalError("signal too short for this embedding")
    return np.column_stack([x[i * tau : i * tau + n] for i in range(m)])


def _cap_window(x: np.ndarray, cap: int) -> np.ndarray:
    if len(x) <= cap:
        return x
    start = (len(x) - cap) // 2
    return x[start : start + cap]


def _abs_diff(x: np.ndarray) -> np.ndarray:
    d = x[:, None] - x[None, :]
    return np.abs(d, out=d)


def _embed_cheb(base: np.ndarray, n_points: int, m: int, tau: int) -> np.ndarray:
    """Chebyshev distances of m-dim delay vectors from the scalar base matrix."""
    d = base[:n_points, :n_points].copy()
    for k in range(1, m):
        off = k * tau
        np.maximum(d, base[off : off + n_points, off : off + n_points], out=d)
    return d


# ---------------------------------------------------------------------------
# delay selection

def _mi_bin_indices(x: np.ndarray, bins: int) -> np.ndarray:
    """Equiprobable-bin index of every sample (marginal quantile bins)."""
    edges = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.searchsorted(edges, x, side="right")


def _mutual_information(idx: np.ndarray, lag: int) -> float:
    """Histogram MI of (x[n], x[n+lag]) from the samples' MI_BINS bin indices."""
    ia = idx[:-lag]
    ib = idx[lag:]
    joint = np.bincount(ia * MI_BINS + ib, minlength=MI_BINS**2).reshape(MI_BINS, MI_BINS)
    total = joint.sum()
    if total == 0:
        return 0.0
    p = joint / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / (px @ py)[mask])))


MI_VALLEY_TOL = 0.02   # fraction of MI range counted as "at the minimum"
MI_VALLEY_SPAN = 6     # lags; wider near-minimal regions are ambiguous


def first_acf_zero(x: np.ndarray, max_lag: int) -> int:
    """Lag of the first non-positive autocorrelation value, or 1."""
    xm = x - x.mean()
    denom = np.sum(xm**2)
    if denom > 0:
        for lag in range(1, max_lag + 1):
            if np.dot(xm[:-lag], xm[lag:]) / denom <= 0:
                return lag
    return 1


def fmmi(x: np.ndarray) -> int:
    """First minimum of the lagged mutual information over lags 1 .. max_lag.

    max_lag = min(MI_MAX_LAG, n // 4, n // 2 - 1). Rule, in order: (1) if
    MI(1) < 0.1 nats the dependence is already gone and the delay is 1 (white
    noise, constants). (2) Otherwise the MI curve's minimum, provided the
    near-minimal lags (within 2 % of the curve's range) form one tight
    cluster; the earliest lag of that cluster is returned.
    (3) A wide or scattered near-minimal region means the histogram estimator
    has no well-defined minimum (pure tones oscillate around a flat valley),
    and the lag of the first autocorrelation zero crossing is used instead,
    which is the quarter period for narrowband signals; failing that, 1.
    """
    x = np.asarray(x, dtype=np.float64)
    max_lag = min(len(x) // 4, MI_MAX_LAG, len(x) // 2 - 1)
    if max_lag < 3 or np.all(x == x[0]):
        return 1
    idx = _mi_bin_indices(x, MI_BINS)
    mi = np.array([_mutual_information(idx, lag) for lag in range(1, max_lag + 1)])
    if mi[0] < MI_FLAT:
        return 1
    rng_mi = mi.max() - mi.min()
    if rng_mi > 0:
        near = np.flatnonzero(mi <= mi.min() + MI_VALLEY_TOL * rng_mi)
        if len(near) and near[-1] - near[0] <= MI_VALLEY_SPAN:
            return int(near[0]) + 1
    return first_acf_zero(x, max_lag)


# ---------------------------------------------------------------------------
# complexity measures

def katz_fd(x: np.ndarray) -> float:
    """Katz fractal dimension of the z-scored waveform (1.0 for a line)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 3:
        return 1.0
    sd = np.std(x)
    if sd == 0:
        return 1.0
    z = (x - np.mean(x)) / sd
    steps = np.sqrt(1.0 + np.diff(z) ** 2)
    L = steps.sum()
    n = len(z) - 1
    idx = np.arange(len(z))
    d = np.sqrt(idx**2 + (z - z[0]) ** 2).max()
    if d <= 0 or L <= 0:
        return 1.0
    return float(np.log10(n) / (np.log10(n) + np.log10(d / L)))


def lz76_count(bits: np.ndarray) -> int:
    """Number of distinct phrases in the LZ76 exhaustive parse.

    Kaspar & Schuster (1987): the phrase starting at u grows while
    s[u:u+l] occurs in s[:u+l-1]; a copy that runs to the end of the
    sequence is the last phrase. An occurrence of s[u:u+l+1] is one of
    s[u:u+l], so each search resumes where the shorter one was found.
    """
    s = np.asarray(bits, dtype=np.uint8).tobytes()
    n = len(s)
    c = 1
    u = 1
    while u < n:
        length = 1
        at = 0
        while u + length <= n:
            at = s.find(s[u : u + length], at, u + length - 1)
            if at < 0:
                break
            length += 1
        c += 1
        u += length
    return c


ZL_CAP = 4000  # bits; the normalized complexity stabilizes well before this


def normalized_lempel_ziv(x: np.ndarray) -> float:
    """LZ76 phrase count of the median-binarized signal, scaled by log2(n)/n
    so random sequences tend to 1 and periodic ones to ~0. Long signals are
    capped to a centered 4000-sample window; the cap is part of the measure's
    definition and keeps its values unchanged."""
    x = _cap_window(np.asarray(x, dtype=np.float64), ZL_CAP)
    bits = (x > np.median(x)).astype(np.uint8)
    n = len(bits)
    if n < 2:
        return 0.0
    return float(lz76_count(bits) * np.log2(n) / n)


def hurst_exponent(x: np.ndarray) -> float | None:
    """Rescaled-range slope over log-spaced segment sizes; None for a
    constant signal, under 64 samples, or fewer than 3 usable sizes."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 64 or np.std(x) == 0:
        return None
    sizes = np.unique(np.geomspace(16, n // 4, 8).astype(int))
    log_rs, log_sz = [], []
    for size in sizes:
        m = n // size
        seg = x[: m * size].reshape(m, size)
        means = seg.mean(axis=1, keepdims=True)
        z = np.cumsum(seg - means, axis=1)
        r = z.max(axis=1) - z.min(axis=1)
        s = seg.std(axis=1)
        ok = s > 0
        if not np.any(ok):
            continue
        log_rs.append(np.log(np.mean(r[ok] / s[ok])))
        log_sz.append(np.log(size))
    if len(log_rs) < 3:
        return None
    slope, _ = np.polyfit(log_sz, log_rs, 1)
    return float(slope)


def _pair_mask(n: int, theiler: int) -> np.ndarray:
    """Upper-triangle mask of the point pairs (i, j) with j - i > theiler;
    boolean indexing reads them in the row-major order of ``triu_indices``."""
    return ~np.tri(n, k=theiler, dtype=bool)


def correlation_dimension(d_m: np.ndarray, theiler: int) -> float | None:
    """Grassberger-Procaccia slope of log C(r) over log r from a distance matrix.

    None when there is no scaling region: fewer than 10 positive distances,
    5th and 50th percentiles that are not 0 < lo < hi, or fewer than three
    radii with a positive correlation sum.
    """
    d = d_m[_pair_mask(d_m.shape[0], theiler)]
    d = d[d > 0]
    d.sort()
    if len(d) < 10:
        return None
    lo, hi = np.percentile(d, [5, 50])
    if not 0 < lo < hi:
        return None
    rs = np.exp(np.linspace(np.log(lo), np.log(hi), 10))
    c = np.searchsorted(d, rs, "left") / len(d)  # C(r) = share of distances < r
    good = c > 0
    if good.sum() < 3:
        return None
    slope, _ = np.polyfit(np.log(rs[good]), np.log(c[good]), 1)
    return float(slope)


def _correlation_entropy(d_m: np.ndarray, d_m1: np.ndarray, theiler: int) -> float | None:
    """K2 estimate: mean ln C_m(r)/C_{m+1}(r) over the scaling region.

    None when there is no scaling region: fewer than 10 positive distances,
    equal 10th and 60th percentiles, or no radius with both sums positive.
    """
    n1 = d_m1.shape[0]
    pairs = _pair_mask(n1, theiler)
    dm = d_m[:n1, :n1][pairs]
    dm.sort()
    pos = dm[np.searchsorted(dm, 0.0, "right"):]  # the positive distances, a view
    if len(pos) < 10:
        return None
    lo, hi = np.percentile(pos, [10, 60])
    if not 0 < lo < hi:
        return None
    rs = np.exp(np.linspace(np.log(lo), np.log(hi), 6))
    cm = np.searchsorted(dm, rs, "left") / len(dm)
    del dm, pos
    dm1 = d_m1[pairs]
    cm1 = np.array([np.count_nonzero(dm1 < r) for r in rs]) / len(dm1)
    vals = [np.log(a / b) for a, b in zip(cm, cm1) if a > 0 and b > 0]
    return float(np.mean(vals)) if vals else None


def _largest_lyapunov(d_m: np.ndarray, theiler: int) -> float | None:
    """Divergence-rate fit (nearest-neighbor method), nats per sample; None
    when the mean log-divergence curve has fewer than 5 points. The caller
    passes at least 100 delay vectors.

    Each point's nearest neighbour lies outside the Theiler band
    |i - j| <= theiler. The band is set to inf in a copy of d_m, one
    diagonal at a time: diagonal k is the flat copy's stride-(n + 1) slice
    from k (or from -k * n below the main diagonal). A band of n - 1 or more
    diagonals covers every cell, and a row with no neighbour outside it is
    not followed. The copy is dropped once ``argmin`` has read it.
    """
    n = d_m.shape[0]
    d = d_m.copy()
    flat = d.reshape(-1)
    for k in range(min(theiler, n - 1) + 1):
        flat[k : (n - k) * n : n + 1] = np.inf  # (i, i + k)
        flat[k * n :: n + 1] = np.inf           # (i + k, i)
    idx = np.arange(n)
    nn = np.argmin(d, axis=1)
    finite = np.isfinite(d[idx, nn])
    del d, flat
    horizon = min(LLE_FIT_LEN, n // 4)
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


def complexity_features(x: np.ndarray, tau: int) -> dict[str, float]:
    """cd, he and lle for one signal embedded in EMBED_DIM dimensions at delay
    tau; each is left out where its estimator has nothing to fit (see each
    estimator). Fewer than 100 delay vectors raise InsufficientSignalError."""
    x = np.asarray(x, dtype=np.float64)
    m = EMBED_DIM
    w = _cap_window(x, PAIR_CAP + (m - 1) * tau)
    n_pts = len(w) - (m - 1) * tau
    if n_pts < 100:
        raise InsufficientSignalError("trajectory too short for complexity features")
    sd = np.std(w)
    base = _abs_diff(w / sd if sd > 0 else w)  # scale-free distances
    d_m = _embed_cheb(base, n_pts, m, tau)
    del base

    # mean period (samples) sets the temporal exclusion for the Lyapunov fit
    pos = x >= 0
    crossings = np.count_nonzero(pos[1:] != pos[:-1])
    theiler = max(tau, int(2 * len(x) / max(crossings, 2)))

    out = {"cd": correlation_dimension(d_m, theiler=tau), "he": hurst_exponent(x),
           "lle": _largest_lyapunov(d_m, theiler)}
    return {name: v for name, v in out.items() if v is not None}


# ---------------------------------------------------------------------------
# entropies

# sample-entropy kernels K(u), u = d / r; their sums are in _kernel_sums
SE_KERNELS = ("k1",   # Heaviside (classic): u < 1
              "k2",   # Gaussian: exp(-u^2 / 2)
              "k3",   # exponential: exp(-u)
              "k4",   # triangular: max(0, 1 - u)
              "k5",   # Epanechnikov: max(0, 1 - u^2)
              "k6",   # quartic: max(0, 1 - u^2)^2
              "k7",   # Cauchy: 1 / (1 + u^2)
              "k8")   # cosine: cos(pi u / 2) for u < 1, else 0


def count_entropies(counts: np.ndarray) -> tuple[float, float]:
    """(Shannon, order-2 Renyi) entropy in nats of a count vector; (0, 0) if empty."""
    total = counts.sum()
    if total == 0:
        return 0.0, 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum()), float(-np.log(np.sum(p**2)))


def permutation_entropy(x: np.ndarray) -> float:
    """Shannon entropy (nats) of order-PE_ORDER ordinal patterns; ties broken by position."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x) - PE_ORDER + 1
    if n < 1:
        raise InsufficientSignalError("signal shorter than pattern order")
    windows = np.lib.stride_tricks.sliding_window_view(x, PE_ORDER)
    patterns = np.argsort(windows, axis=1, kind="stable")
    codes = patterns @ (PE_ORDER ** np.arange(PE_ORDER))
    _, counts = np.unique(codes, return_counts=True)
    return count_entropies(counts)[0]


def histogram_entropies(x: np.ndarray) -> tuple[float, float]:
    """(Shannon, order-2 Renyi) of the HIST_BINS-bin amplitude histogram, in nats."""
    hist, _ = np.histogram(x, bins=HIST_BINS)
    return count_entropies(hist)


def renyi_block_entropies(x: np.ndarray) -> tuple[float, float]:
    """Block entropies (orders 1 and 2) of RBE_BLOCK-bit words of the
    median-binarized sequence."""
    bits = (np.asarray(x, dtype=np.float64) > np.median(x)).astype(int)
    if len(bits) < RBE_BLOCK:
        return 0.0, 0.0
    windows = np.lib.stride_tricks.sliding_window_view(bits, RBE_BLOCK)
    _, counts = np.unique(windows @ (2 ** np.arange(RBE_BLOCK)), return_counts=True)
    return count_entropies(counts)


def _phi(d: np.ndarray, r: float) -> float:
    """Pincus' Phi: mean log share of each template's matches within r, self
    included, from the Chebyshev matrix of all templates of one length."""
    return float(np.mean(np.log(np.mean(d <= r, axis=1))))


def _kernel_sums(u: np.ndarray) -> list[float]:
    """sum K(u) for each of SE_KERNELS, in order, in one scratch buffer.

    Each sum runs over the same full-length array of kernel values as
    ``K(u).sum()``, so the sums are bitwise those of the definitions; the
    k1 count of 0/1 values is exact. k2, k3 and k7 are computed in place.
    k4, k5, k6 and k8 are +0.0 wherever u >= 1 (u holds no NaN), so only
    the near pairs' values are computed and scattered into the zeroed buffer.
    """
    near = u < 1.0
    buf = np.square(u)
    np.add(1.0, buf, out=buf)
    k7 = float(np.divide(1.0, buf, out=buf).sum())
    np.square(u, out=buf)
    np.multiply(-0.5, buf, out=buf)
    k2 = float(np.exp(buf, out=buf).sum())
    np.negative(u, out=buf)
    k3 = float(np.exp(buf, out=buf).sum())

    buf.fill(0.0)
    un = u[near]

    def near_sum(values: np.ndarray) -> float:
        buf[near] = values
        return float(buf.sum())

    k5 = np.maximum(0.0, 1.0 - un**2)
    return [float(np.count_nonzero(near)), k2, k3,
            near_sum(np.maximum(0.0, 1.0 - un)),
            near_sum(k5),
            near_sum(k5**2),
            k7,
            near_sum(np.cos(0.5 * np.pi * un))]


def _template_entropies(base: np.ndarray, m: int, r: float) -> dict[str, float]:
    """ApEn(m, r) and sample entropy under the eight kernel variants.

    se = -ln(sum K(d_{m+1}/r) / sum K(d_m/r)) over distinct template pairs
    of the n - m templates both dimensions share; the Heaviside kernel
    recovers classic SampEn. An empty match count falls back to the ln of
    the pair count (the conventional ceiling). ApEn's (m+1)-dim matrix is
    SampEn's d_{m+1}, and SampEn's d_m is the leading block of ApEn's m-dim
    matrix, so each is built once. Once d_m's row counts and pairs are read,
    d_{m+1} overwrites its leading block, so one matrix is held besides base.
    """
    d = _embed_cheb(base, len(base) - m + 1, m, 1)  # d_m
    phi_m = _phi(d, r)
    pairs = _pair_mask(len(d) - 1, 0)
    u = d[:-1, :-1][pairs]
    n_pairs = len(u)
    b = _kernel_sums(np.divide(u, r, out=u))
    del u
    d = np.maximum(d[:-1, :-1], base[m:, m:], out=d[:-1, :-1])  # d_{m+1}
    out = {"ae": phi_m - _phi(d, r)}
    u = d[pairs]
    del d
    a = _kernel_sums(np.divide(u, r, out=u))
    for name, ak, bk in zip(SE_KERNELS, a, b):
        if ak <= 0 or bk <= 0:
            out[f"se_{name}"] = float(np.log(max(n_pairs, 2)))
        else:
            out[f"se_{name}"] = float(-np.log(ak / bk))
    return out


def entropy_features(x: np.ndarray, tau: int) -> dict[str, float]:
    """All group-6 entropy measures for one signal; ce embeds it in EMBED_DIM
    dimensions at delay tau.

    In a constant window the tolerance r = 0.2 std is 0 and there is no
    scaling region, so ae, the se_* and ce are left out of its block.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 500:
        raise InsufficientSignalError("need >= 500 samples for entropy features")
    she, re = histogram_entropies(x)
    rbe1, rbe2 = renyi_block_entropies(x)
    out = {"she": she, "re": re, "rbe1": rbe1, "rbe2": rbe2,
           "pe": permutation_entropy(x)}

    w = _cap_window(x, ENTROPY_CAP)
    sd = np.std(w)
    if sd == 0:
        return out
    base = _abs_diff(w)
    out.update(_template_entropies(base, 2, 0.2 * sd))

    # correlation entropy on the delay embedding of the same window; a delay
    # too long for it, or no scaling region, leaves ce out of this block
    m = EMBED_DIM
    n_m1 = len(w) - m * tau
    if n_m1 >= 100:
        d_m = _embed_cheb(base, len(w) - (m - 1) * tau, m, tau)
        d_m1 = np.maximum(d_m[:n_m1, :n_m1], base[m * tau :, m * tau :])
        del base
        ce = _correlation_entropy(d_m, d_m1, theiler=tau)
        if ce is not None:
            out["ce"] = ce
    return out
