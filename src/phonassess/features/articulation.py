"""Formant tracks and cross-vowel articulation indices."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..audio import FrameSequence, autocorrelation
from ..errors import InsufficientSignalError

PREEMPHASIS = 0.97
FORMANT_RANGE = (90.0, 5500.0)
MAX_BANDWIDTH = 600.0


@dataclass
class FormantTrack:
    """Per-frame first three resonance frequencies and bandwidths (NaN where
    no valid triple was found)."""

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    bw1: np.ndarray
    bw2: np.ndarray
    bw3: np.ndarray

    def valid(self) -> np.ndarray:
        """Frames carrying at least the first resonance."""
        return ~np.isnan(self.f1)


def lpc_coefficients(x: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation-method LPC: returns [1, a1..ap]."""
    from scipy.linalg import solve_toeplitz

    if len(x) <= order:
        raise np.linalg.LinAlgError("frame not longer than the model order")
    r = autocorrelation(np.asarray(x, dtype=np.float64))[: order + 1]
    if r[0] <= 0:
        raise np.linalg.LinAlgError("zero-energy frame")
    r = r + np.finfo(float).eps * r[0] * np.arange(order + 1)  # tiny ridge for stability
    a = solve_toeplitz((r[:-1], r[:-1]), r[1:])
    return np.concatenate(([1.0], -a))


def _frame_formants(frame: np.ndarray, fs: int, order: int, taper: np.ndarray):
    """Up to three sorted resonances of one raw frame, or None."""
    x = np.append(frame[0], frame[1:] - PREEMPHASIS * frame[:-1]) * taper
    if np.max(np.abs(x)) <= 0:
        return None
    try:
        a = lpc_coefficients(x, order)
    except np.linalg.LinAlgError:
        return None
    roots = np.roots(a)
    roots = roots[np.imag(roots) > 0]
    if len(roots) == 0:
        return None
    freqs = np.angle(roots) * fs / (2 * np.pi)
    with np.errstate(divide="ignore"):
        bws = -fs / np.pi * np.log(np.abs(roots))
    keep = (freqs > FORMANT_RANGE[0]) & (freqs < FORMANT_RANGE[1]) & (bws > 0) & (bws < MAX_BANDWIDTH)
    freqs, bws = freqs[keep], bws[keep]
    if len(freqs) == 0:
        return None
    order_idx = np.argsort(freqs)
    return freqs[order_idx][:3], bws[order_idx][:3]


def estimate_formants(frames: FrameSequence, fs: int) -> FormantTrack:
    """All-pole resonance tracking over a frame sequence.

    Each raw frame is pre-emphasized, tapered, and fit with an LPC model of
    order 2 + fs/1000, rounded up to even; pole angles give frequencies and
    pole radii bandwidths. A frame contributes its (up to three) lowest
    resonances in [90, 5500] Hz with bandwidth < 600 Hz; absent ones are NaN.
    Raises when no frame yields any valid resonance (e.g. constant input).
    """
    order = 2 + fs // 1000
    order += order % 2
    n = len(frames)
    out = np.full((6, n), np.nan)
    taper = np.hanning(frames.frame_length)
    for i in range(n):
        res = _frame_formants(frames.raw[i], fs, order, taper)
        if res is None:
            continue
        f, b = res
        out[0 : len(f), i] = f
        out[3 : 3 + len(b), i] = b
    if np.all(np.isnan(out[0])):
        raise InsufficientSignalError("no frame yields a valid resonance")
    return FormantTrack(*out)


def vowel_space_features(
    f1_a: float, f2_a: float,
    f1_i: float, f2_i: float,
    f1_u: float, f2_u: float,
) -> dict[str, float]:
    """Corner-vowel triangle indices from median formants of [a], [i], [u].

    vsa is the shoelace area of the (F2, F1) triangle; fcr and vai are the
    centralization ratio and its reciprocal; f2i_f2u the second-formant ratio.
    """
    vals = [f1_a, f2_a, f1_i, f2_i, f1_u, f2_u]
    if any((not np.isfinite(v)) or v <= 0 for v in vals):
        raise ValueError("corner formants must be positive and finite")
    vsa = 0.5 * abs(f1_i * (f2_a - f2_u) + f1_a * (f2_u - f2_i) + f1_u * (f2_i - f2_a))
    if vsa == 0:
        raise ValueError("degenerate (collinear) vowel triangle: ln_vsa undefined")
    fcr = (f2_u + f2_a + f1_i + f1_u) / (f2_i + f1_a)
    return {
        "vsa": float(vsa),
        "ln_vsa": float(math.log(vsa)),
        "fcr": float(fcr),
        "vai": float(1.0 / fcr),
        "f2i_f2u": float(f2_i / f2_u),
    }
