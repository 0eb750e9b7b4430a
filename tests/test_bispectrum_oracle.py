"""``estimate_bispectrum`` against the estimator it replaced.

The estimator now sums its per-frame (GRID, GRID) terms in frame order,
without building (K, GRID, GRID) arrays, and averages |X(f1+f2)|^2 per bin
before spreading it over the grid. The former function is kept verbatim
below as the reference; every field of the estimate must be bitwise the
same.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from phonassess.audio import FrameSequence, frame_array
from phonassess.errors import InsufficientSignalError
from phonassess.features.highorder import (GRID, NFFT, _EPS, BispectrumEstimate,
                                           estimate_bispectrum)

from conftest import FS


# ---- reference: the former estimator, kept verbatim -------------------------

def ref_estimate_bispectrum(frames: FrameSequence) -> BispectrumEstimate:
    """Direct bispectrum estimate averaged over >= 8 tapered frames.

    Frames are zero-padded or truncated to 256 samples so the grid spans
    [0, fs/2] with fs/256 resolution. Bicoherence uses the standard
    second-moment normalization, so it is bounded by 1 elementwise.
    """
    if len(frames) < 8:
        raise InsufficientSignalError(f"need >= 8 frames for bispectrum, got {len(frames)}")
    sig = frames.frames - frames.frames.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(sig, NFFT)          # (K, GRID + 1)
    x = spec[:, : GRID + 1]

    f1 = np.arange(GRID)[:, None]
    f2 = np.arange(GRID)[None, :]
    s = f1 + f2
    tri = s <= GRID
    s_safe = np.where(tri, s, 0)

    p = x[:, :GRID]
    prod12 = p[:, :, None] * p[:, None, :]          # X(f1) X(f2)
    x3 = np.conj(x[:, s_safe])                      # X*(f1+f2)
    b = (prod12 * x3).mean(axis=0)
    den = (np.abs(prod12) ** 2).mean(axis=0) * (np.abs(x[:, s_safe]) ** 2).mean(axis=0)
    # relative floor: dead cells regularize identically at any input gain
    floor = max(1e-24 * float(den.max()), _EPS)
    bico = np.abs(b) / np.sqrt(np.maximum(den, floor))
    # the estimator is symmetric in (f1, f2); enforce it exactly against
    # floating-point reduction noise
    b = 0.5 * (b + b.T)
    bico = 0.5 * (bico + bico.T)
    b = np.where(tri, b, 0.0)
    bico = np.clip(np.where(tri, bico, 0.0), 0.0, 1.0)
    return BispectrumEstimate(
        grid=b,
        bicoherence=bico,
        mean_spectrum=np.abs(x).mean(axis=0),
    )


# ---- checks ------------------------------------------------------------------

def assert_same_estimate(frames: FrameSequence) -> None:
    got = estimate_bispectrum(frames)
    want = ref_estimate_bispectrum(frames)
    for name in ("grid", "bicoherence", "mean_spectrum"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def block(raw: np.ndarray) -> FrameSequence:
    """Frames as the extractor passes them: tapered 256-sample frames."""
    return frame_array(raw, NFFT, NFFT // 2)


@settings(max_examples=40, deadline=None)
@given(n_frames=st.integers(8, 80), seed=st.integers(0, 2**32 - 1),
       gain_exp=st.floats(-12.0, 6.0), tones=st.booleans())
def test_matches_reference_over_frame_counts_and_gains(n_frames, seed, gain_exp, tones):
    rng = np.random.default_rng(seed)
    n = NFFT // 2 * (n_frames + 1)
    raw = rng.standard_normal(n)
    if tones:  # a voiced-like harmonic series under the noise
        t = np.arange(n) / FS
        raw = 0.1 * raw + sum(np.cos(2 * np.pi * 120.0 * h * t + rng.uniform(0, 6.3))
                              / h for h in range(1, 8))
    frames = block(10.0 ** gain_exp * raw)
    assert len(frames) == n_frames
    assert_same_estimate(frames)


@settings(max_examples=15, deadline=None)
@given(n_frames=st.integers(8, 80), tiny_exp=st.integers(-320, -150),
       live=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_matches_reference_on_zero_and_near_zero_blocks(n_frames, tiny_exp, live, seed):
    """All-zero and subnormal-scale blocks hit the bicoherence floor."""
    rng = np.random.default_rng(seed)
    raw = np.zeros(NFFT // 2 * (n_frames + 1))
    idx = rng.choice(len(raw), size=live, replace=False)
    raw[idx] = 10.0 ** tiny_exp * rng.standard_normal(live)
    assert_same_estimate(block(raw))


def test_matches_reference_on_unwindowed_frames():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((61, NFFT))
    assert_same_estimate(FrameSequence(frames=raw, raw=raw, frame_length=NFFT, hop=NFFT))
