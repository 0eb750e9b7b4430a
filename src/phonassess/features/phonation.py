"""Perturbation, pitch-entropy, glottal-quotient, and energy measures.

Jitter and shimmer follow the canonical perturbation definitions of the
standard phonetic-analysis toolkits; the exact formulas are reproduced in
docs/features.md so no external tool is needed to audit values. The energy
measures take frames and samples at the 16 kHz ANALYSIS_RATE.
"""
from __future__ import annotations

import numpy as np

from .. import dsp
from ..audio import ANALYSIS_RATE, FrameSequence, context_sums
from ..errors import InsufficientSignalError
from ..pitch import CycleMarks, F0Contour
from .nonlinear import count_entropies

PPE_BINS = 30
PPE_SPAN_SEMITONES = 6.0
ME_BAND = (3.0, 5.0)  # Hz, around the 4 Hz syllabic rate


def _moving_mean(x: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average; output aligned to valid positions."""
    kernel = np.ones(width) / width
    return np.convolve(x, kernel, mode="valid")


def jitter_features(cycles: CycleMarks) -> dict[str, float]:
    """Five period-perturbation measures from consecutive cycle durations."""
    T = np.asarray(cycles.periods, dtype=np.float64)
    if len(T) < 5:
        raise InsufficientSignalError(f"need >= 5 periods for jitter, got {len(T)}")
    mean_t = T.mean()
    abs_diff = np.abs(np.diff(T))
    rap = np.mean(np.abs(T[1:-1] - _moving_mean(T, 3))) / mean_t
    ppq5 = np.mean(np.abs(T[2:-2] - _moving_mean(T, 5))) / mean_t
    return {
        "jitter_local": float(abs_diff.mean() / mean_t),
        "jitter_abs": float(abs_diff.mean()),
        "jitter_rap": float(rap),
        "jitter_ppq5": float(ppq5),
        "jitter_ddp": float(3.0 * rap),
    }


def shimmer_features(cycles: CycleMarks) -> dict[str, float]:
    """Six amplitude-perturbation measures from per-cycle peak amplitudes."""
    A = np.asarray(cycles.peak_amplitudes, dtype=np.float64)
    if len(A) < 11:
        raise InsufficientSignalError(f"need >= 11 amplitudes for shimmer, got {len(A)}")
    if np.any(A <= 0):
        raise InsufficientSignalError("zero peak amplitude: dB shimmer undefined")
    mean_a = A.mean()
    abs_diff = np.abs(np.diff(A))
    apq3 = np.mean(np.abs(A[1:-1] - _moving_mean(A, 3))) / mean_a
    apq5 = np.mean(np.abs(A[2:-2] - _moving_mean(A, 5))) / mean_a
    apq11 = np.mean(np.abs(A[5:-5] - _moving_mean(A, 11))) / mean_a
    return {
        "shimmer_local": float(abs_diff.mean() / mean_a),
        "shimmer_db": float(np.mean(np.abs(20.0 * np.log10(A[1:] / A[:-1])))),
        "shimmer_apq3": float(apq3),
        "shimmer_apq5": float(apq5),
        "shimmer_apq11": float(apq11),
        "shimmer_dda": float(3.0 * apq3),
    }


def ppe(contour: F0Contour) -> float:
    """Entropy (nats) of the whitened log-semitone pitch deviation.

    The semitone sequence is whitened with an order-2 linear predictor fit on
    itself, residuals are histogrammed in 30 bins spanning +-6 semitones, and
    the discrete Shannon entropy of that histogram is returned. Constant
    pitch gives ~0; erratic pitch control inflates the value.
    """
    f0 = contour.voiced_f0
    if len(f0) < 50:
        raise InsufficientSignalError(f"need >= 50 voiced frames for ppe, got {len(f0)}")
    ref = float(np.median(f0))
    semis = 12.0 * np.log2(f0 / ref)
    # order-2 LP whitening via least squares on the sequence itself
    y = semis[2:]
    X = np.column_stack([semis[1:-1], semis[:-2]])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    hist, _ = np.histogram(resid, bins=PPE_BINS, range=(-PPE_SPAN_SEMITONES, PPE_SPAN_SEMITONES))
    return count_entropies(hist)[0]


def glottal_quotient_stds(cycles: CycleMarks) -> tuple[float, float]:
    """Population std of the per-cycle open and closed fractions."""
    if len(cycles) < 3:
        raise InsufficientSignalError("need >= 3 cycles for glottal quotients")
    return (
        float(np.std(cycles.open_fractions)),
        float(np.std(cycles.closed_fractions)),
    )


def teager_kaiser(x: np.ndarray) -> np.ndarray:
    """psi[n] = x[n]^2 - x[n-1]*x[n+1] on the interior samples of the last axis."""
    x = np.asarray(x, dtype=np.float64)
    return x[..., 1:-1] ** 2 - x[..., :-2] * x[..., 2:]


def energy_features(frames: FrameSequence, x: np.ndarray):
    """Frame-energy contours plus modulation/PSD/low-energy scalars.

    Returns (E contour, TKEO contour, me_4hz, mpsd, lster). E and TKEO come
    from the raw (untapered) frame slices.
    """
    if len(x) < ANALYSIS_RATE:
        raise InsufficientSignalError("need >= 1 s of signal for modulation energy")
    raw = frames.raw
    energy = np.mean(raw**2, axis=1)
    tkeo = np.mean(teager_kaiser(raw), axis=1)

    me = modulation_energy_4hz(x)
    freqs, pxx = dsp.welch(x, ANALYSIS_RATE, nperseg=1024)
    mpsd = float(np.median(pxx))
    lster = low_energy_ratio(energy)
    return energy, tkeo, me, mpsd, lster


def modulation_energy_4hz(x: np.ndarray) -> float:
    """Energy fraction of the intensity envelope in the ME_BAND around 4 Hz.

    Envelope = frame RMS at a 100 Hz rate, mean removed; the ratio is band
    energy over total envelope AC energy.
    """
    hop = int(ANALYSIS_RATE / 100)
    n = (len(x) // hop) * hop
    if n < 2 * hop:
        raise InsufficientSignalError("signal too short for envelope spectrum")
    env = np.sqrt(np.mean(x[:n].reshape(-1, hop) ** 2, axis=1))
    dc_energy = float(np.sum(env**2))
    env = env - env.mean()
    spec = np.abs(np.fft.rfft(env * np.hanning(len(env)))) ** 2
    freqs = np.fft.rfftfreq(len(env), d=1.0 / 100.0)
    # floor against the envelope's DC energy: a flat envelope (no modulation)
    # must read ~0 instead of a ratio of numerical noise
    total = max(spec[freqs > 0].sum(), 1e-10 * dc_energy)
    if total <= 0:
        return 0.0
    in_band = spec[(freqs >= ME_BAND[0]) & (freqs <= ME_BAND[1])].sum()
    return float(in_band / total)


def low_energy_ratio(frame_energy: np.ndarray) -> float:
    """Fraction of HOP-spaced frames below half the mean energy of their 1 s context."""
    n = len(frame_energy)
    if n == 0:
        return 0.0
    sums, counts = context_sums(frame_energy)
    return np.count_nonzero(frame_energy < 0.5 * (sums / counts)) / n
