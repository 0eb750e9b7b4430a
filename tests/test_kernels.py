"""The shared signal kernels against the per-module copies they replaced.

``audio.autocorrelation``, ``audio.context_sums``, ``nonlinear.count_entropies``
and the array form of ``phonation.teager_kaiser`` took over code that four
modules each carried. The former copies are kept verbatim below as
references; every measure built on the shared kernels must give bitwise the
same values.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_toeplitz

from phonassess.audio import ANALYSIS_RATE, HOP, FrameSequence, frame_array
from phonassess.features import articulation, emd, nonlinear, phonation, quality
from phonassess.pitch import F0Contour, _corrected_acf


# ---- references: the former copies, kept verbatim -------------------------

def ref_corrected_acf(frames: np.ndarray, taper: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation of tapered frames, window bias removed."""
    n = frames.shape[1]
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(frames * taper, nfft)
    acf = np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[:, :n]
    norm = acf[:, :1].copy()
    norm[norm <= 0] = 1.0
    acf = acf / norm

    wspec = np.fft.rfft(taper, nfft)
    wacf = np.fft.irfft(wspec.real**2 + wspec.imag**2, nfft)[:n]
    wacf = wacf / wacf[0]
    wacf[wacf < 1e-6] = 1e-6
    return acf / wacf


def ref_nccf_rows(raw: np.ndarray) -> np.ndarray:
    n = raw.shape[1]
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(raw, nfft)
    num = np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[:, :n]
    sq = np.concatenate([np.zeros((raw.shape[0], 1)), np.cumsum(raw**2, axis=1)], axis=1)
    taus = np.arange(n)
    e0 = sq[:, n - taus] - sq[:, 0:1]      # energy of x[0 : n-tau]
    e1 = sq[:, n:n+1] - sq[:, taus]        # energy of x[tau : n]
    den = np.sqrt(e0 * e1)
    den[den <= 0] = np.inf
    return num / den


def ref_lpc_coefficients(x: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation-method LPC: returns [1, a1..ap]."""
    x = np.asarray(x, dtype=np.float64)
    nfft = 1 << int(np.ceil(np.log2(2 * len(x))))
    spec = np.fft.rfft(x, nfft)
    r = np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[: order + 1]
    if r[0] <= 0:
        raise np.linalg.LinAlgError("zero-energy frame")
    r = r + np.finfo(float).eps * r[0] * np.arange(order + 1)  # tiny ridge for stability
    a = solve_toeplitz((r[:-1], r[:-1]), r[1:])
    return np.concatenate(([1.0], -a))


def ref_temporal_quality(frames, contour):
    raw = frames.raw
    pos = raw >= 0
    zcr = np.sum(pos[:, 1:] != pos[:, :-1], axis=1) / frames.frame_length

    frames_per_sec = max(1, int(round(ANALYSIS_RATE / frames.hop)))
    half = frames_per_sec // 2
    cums = np.concatenate(([0.0], np.cumsum(zcr)))
    n = len(zcr)
    high = 0
    for i in range(n):
        a, b = max(0, i - half), min(n, i + half + 1)
        if zcr[i] > 1.5 * (cums[b] - cums[a]) / (b - a):
            high += 1
    hzcrr = high / n

    voiced, _ = quality.frame_voicing(frames, contour)
    fluf = float(np.mean(~voiced))
    return zcr, float(hzcrr), fluf


def ref_low_energy_ratio(frame_energy: np.ndarray, hop: int, fs: int) -> float:
    frames_per_sec = max(1, int(round(fs / hop)))
    half = frames_per_sec // 2
    n = len(frame_energy)
    cums = np.concatenate(([0.0], np.cumsum(frame_energy)))
    low = 0
    for i in range(n):
        a = max(0, i - half)
        b = min(n, i + half + 1)
        avg = (cums[b] - cums[a]) / (b - a)
        if frame_energy[i] < 0.5 * avg:
            low += 1
    return low / n if n else 0.0


def ref_teager_kaiser(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[1:-1] ** 2 - x[:-2] * x[2:]


def ref_mean_abs_tkeo(x: np.ndarray) -> float:
    return float(np.mean(np.abs(x[1:-1] ** 2 - x[:-2] * x[2:])))


def ref_hist_entropy(x: np.ndarray, bins: int = 64, order: int = 1) -> float:
    hist, _ = np.histogram(x, bins=bins)
    total = hist.sum()
    if total == 0:
        return 0.0
    p = hist[hist > 0] / total
    if order == 1:
        return float(-(p * np.log(p)).sum())
    return float(-np.log(np.sum(p**2)))


def ref_permutation_entropy(x: np.ndarray, order: int = 3) -> float:
    x = np.asarray(x, dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(x, order)
    patterns = np.argsort(windows, axis=1, kind="stable")
    radix = order ** np.arange(order)
    codes = patterns @ radix
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def ref_renyi_block_entropies(x: np.ndarray, block: int = 3) -> tuple[float, float]:
    bits = (np.asarray(x, dtype=np.float64) > np.median(x)).astype(int)
    n = len(bits) - block + 1
    if n < 1:
        return 0.0, 0.0
    windows = np.lib.stride_tricks.sliding_window_view(bits, block)
    codes = windows @ (2 ** np.arange(block))
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    rbe1 = float(-(p * np.log(p)).sum())
    rbe2 = float(-np.log(np.sum(p**2)))
    return rbe1, rbe2


def ref_ppe(contour: F0Contour) -> float:
    f0 = contour.voiced_f0
    ref = float(np.median(f0))
    semis = 12.0 * np.log2(f0 / ref)
    y = semis[2:]
    X = np.column_stack([semis[1:-1], semis[:-2]])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    hist, _ = np.histogram(resid, bins=30, range=(-6.0, 6.0))
    total = hist.sum()
    if total == 0:
        return 0.0
    p = hist[hist > 0] / total
    return float(-(p * np.log(p)).sum())


# ---- inputs ---------------------------------------------------------------

def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@st.composite
def frame_block(draw, min_len=2, max_len=700):
    """Frames of a seeded signal: random length and row count, mixed scales,
    sometimes with silent rows and quantized (tie-heavy) values."""
    rows = draw(st.integers(1, 6))
    length = draw(st.integers(min_len, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, length)) * 10.0 ** draw(st.integers(-6, 3))
    if draw(st.booleans()):
        x = np.round(x * 4) / 4
    if draw(st.booleans()):
        x[rng.integers(rows)] = 0.0
    return x


# ---- autocorrelation ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(frame_block(), st.sampled_from(["hann", "rectangular"]))
def test_corrected_acf_matches_reference(frames, window):
    taper = np.hanning(frames.shape[1]) if window == "hann" else np.ones(frames.shape[1])
    with np.errstate(all="ignore"):
        assert _bits(_corrected_acf(frames, taper)) == _bits(ref_corrected_acf(frames, taper))


@settings(max_examples=200, deadline=None)
@given(frame_block())
def test_nccf_rows_matches_reference(raw):
    with np.errstate(all="ignore"):
        assert _bits(quality._nccf_rows(raw)) == _bits(ref_nccf_rows(raw))


@settings(max_examples=200, deadline=None)
@given(frame_block(max_len=300), st.integers(2, 24))
def test_lpc_coefficients_match_reference(frames, order):
    x = frames[0]
    if len(x) <= order:  # fewer samples than coefficients: now refused
        with pytest.raises(np.linalg.LinAlgError):
            articulation.lpc_coefficients(x, order)
        return
    try:
        expected = ref_lpc_coefficients(x, order)
    except np.linalg.LinAlgError:
        expected = None
    try:
        got = articulation.lpc_coefficients(x, order)
    except np.linalg.LinAlgError:
        got = None
    assert (got is None) == (expected is None)
    if got is not None:
        assert _bits(got) == _bits(expected)


# ---- 1 s context mean -----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(frame_block(min_len=3, max_len=80), st.integers(0, 300))
def test_hzcrr_matches_reference(block, extra_rows):
    rng = np.random.default_rng(extra_rows)
    raw = np.vstack([block, np.round(rng.standard_normal((extra_rows, block.shape[1])))])
    frames = FrameSequence(frames=raw, raw=raw, frame_length=raw.shape[1], hop=HOP)
    n = len(frames)
    contour = F0Contour(times=frames.times, f0=np.zeros(n))
    got = quality.temporal_quality(frames, contour)
    expected = ref_temporal_quality(frames, contour)
    assert _bits(got[0]) == _bits(expected[0])
    assert got[1:] == expected[1:]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.0 + 2**-52, 2.0, 3.0, 7.25]),
                max_size=400))
def test_low_energy_ratio_matches_reference(energy):
    energy = np.array(energy, dtype=np.float64)
    assert phonation.low_energy_ratio(energy) == ref_low_energy_ratio(energy, HOP, ANALYSIS_RATE)


# ---- TKEO -----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(frame_block(min_len=3))
def test_frame_tkeo_matches_per_frame_reference(raw):
    frames = FrameSequence(frames=raw, raw=raw, frame_length=raw.shape[1], hop=1)
    x = np.resize(raw.ravel(), 16000)
    got = phonation.energy_features(frames, x)[1]
    expected = np.array([np.mean(ref_teager_kaiser(f)) for f in raw])
    assert _bits(got) == _bits(expected)
    assert emd._mean_abs_tkeo(raw[0]) == ref_mean_abs_tkeo(raw[0])


def test_frame_tkeo_on_analysis_frames(vowel_x):
    frames = frame_array(vowel_x, 400, 160)
    got = phonation.energy_features(frames, vowel_x)[1]
    expected = np.array([np.mean(ref_teager_kaiser(f)) for f in frames.raw])
    assert _bits(got) == _bits(expected)


# ---- count entropies ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(frame_block(min_len=1, max_len=3000))
def test_count_entropies_match_references(block):
    x = block[0]
    she, re = nonlinear.histogram_entropies(x)
    assert (she, re) == (ref_hist_entropy(x, order=1), ref_hist_entropy(x, order=2))
    assert nonlinear.renyi_block_entropies(x) == ref_renyi_block_entropies(x)
    if len(x) >= 3:
        assert nonlinear.permutation_entropy(x) == ref_permutation_entropy(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(60.0, 400.0), min_size=50, max_size=300))
def test_ppe_matches_reference(f0):
    f0 = np.array(f0)
    n = len(f0)
    contour = F0Contour(times=np.arange(n) * 0.01, f0=f0)
    assert phonation.ppe(contour) == ref_ppe(contour)
