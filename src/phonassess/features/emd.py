"""Empirical mode decomposition and IMF-derived noise measures.

Standard sifting: cubic-spline envelopes through mirrored extrema, Cauchy
stop criterion SD < 0.2 or 10 sift iterations per mode, decomposition ends
when the residual has fewer than 4 extrema or MAX_IMFS (10) modes exist. The
reconstruction Sum(IMFs) + residual == input holds algebraically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import dsp, pitch
from ..audio import FRAME, HOP, frame_array
from ..errors import InsufficientSignalError, PhonassessError
from . import nonlinear, phonation, quality

SIFT_SD = 0.2
SIFT_MAX_ITER = 10
MAX_IMFS = 10
MIRROR = 2


@dataclass
class ImfSet:
    imfs: list[np.ndarray]
    residual: np.ndarray

    def __len__(self) -> int:
        return len(self.imfs)


def _extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima (plateau edges count once)."""
    d = np.diff(x)
    # collapse zero slopes so flat tops register as single extrema
    nz = np.flatnonzero(d != 0)
    s = np.sign(d[nz])
    turn = np.flatnonzero(s[1:] != s[:-1])
    idx = nz[turn] + 1
    maxima = idx[s[turn] > 0]
    minima = idx[s[turn] < 0]
    return maxima, minima


def _envelope(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Cubic envelope through extrema with mirrored boundary extension.

    ``idx`` holds at least two extrema, all in [1, n - 2] (``_extrema``), so
    the MIRROR knots on each side fall outside [0, n - 1] and the knots are
    strictly increasing.
    """
    n = len(x)
    left_t = -idx[:MIRROR][::-1]
    right_t = 2 * (n - 1) - idx[-MIRROR:][::-1]
    t = np.concatenate([left_t, idx, right_t])
    v = np.concatenate([x[idx[:MIRROR]][::-1], x[idx], x[idx[-MIRROR:]][::-1]])
    return dsp.envelope_spline(t, v, n)


def _count_balance(h: np.ndarray) -> int:
    """|extrema count - zero crossing count| of a candidate mode."""
    sign = h >= 0
    zc = int(np.sum(sign[1:] != sign[:-1]))
    d = np.diff(h)
    nz = d[d != 0]
    ext = int(np.sum(np.sign(nz[1:]) != np.sign(nz[:-1])))
    return abs(ext - zc)


def _sift(x: np.ndarray) -> np.ndarray | None:
    """Extract one IMF from x, or None if x has too little oscillation.

    Stops when the Cauchy criterion is met and the extrema / zero-crossing
    counts differ by at most one, or after the iteration cap.
    """
    h = x.copy()
    for _ in range(SIFT_MAX_ITER):
        maxima, minima = _extrema(h)
        if len(maxima) < 2 or len(minima) < 2:
            return None
        mean_env = 0.5 * (_envelope(h, maxima) + _envelope(h, minima))
        h_new = h - mean_env
        denom = np.sum(h**2)
        sd = np.sum((h - h_new) ** 2) / denom if denom > 0 else 0.0
        h = h_new
        if sd < SIFT_SD and _count_balance(h) <= 1:
            break
    return h


def emd(samples: np.ndarray) -> ImfSet:
    """Decompose a signal into intrinsic mode functions plus a residual."""
    x = np.asarray(samples, dtype=np.float64)
    maxima, minima = _extrema(x)
    if len(maxima) + len(minima) < 4:
        raise InsufficientSignalError("signal has fewer than 4 extrema")
    imfs: list[np.ndarray] = []
    residual = x.copy()
    while len(imfs) < MAX_IMFS:
        # a residual with fewer than 4 extrema lacks 2 maxima or 2 minima: no IMF
        imf = _sift(residual)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
    return ImfSet(imfs=imfs, residual=residual)


def _zcr_rate(x: np.ndarray) -> float:
    pos = x >= 0
    return float(np.mean(pos[1:] != pos[:-1]))


def _mean_abs_tkeo(x: np.ndarray) -> float:
    return float(np.mean(np.abs(phonation.teager_kaiser(x))))


def imf_features(imf_set: ImfSet, failures: dict[str, str]) -> dict[str, float]:
    """SNR/NSR functional ratios between the IMF groups plus IMF1 measures.

    IMF1 (highest-frequency mode) is the noise proxy; the sum of the
    remaining modes is the signal proxy. SNR variants divide a functional of
    the signal group by the same functional of IMF1; NSR variants are exact
    reciprocals. Fractal dimension, cepstral peak prominence, and
    glottal-to-noise excitation are computed on IMF1 by delegating to the
    respective feature modules. ``imf_cpp`` and ``imf_gne`` are NaN when IMF1
    does not support the measure, and ``failures`` gets the reason under the
    feature's name.
    """
    if len(imf_set) < 2:
        raise InsufficientSignalError("need >= 2 IMFs for IMF features")
    noise = imf_set.imfs[0]
    signal = np.sum(imf_set.imfs[1:], axis=0)

    def ratio(lo: float, hi: float) -> float:
        if lo <= 0:
            return float("inf") if hi > 0 else 1.0
        return float(hi / lo)

    se_n, re_n = nonlinear.histogram_entropies(noise)
    se_s, re_s = nonlinear.histogram_entropies(signal)
    snr_tkeo = ratio(_mean_abs_tkeo(noise), _mean_abs_tkeo(signal))
    snr_seo = ratio(float(np.mean(noise**2)), float(np.mean(signal**2)))
    snr_se = ratio(max(se_n, 1e-12), max(se_s, 1e-12))
    snr_re = ratio(max(re_n, 1e-12), max(re_s, 1e-12))
    snr_zcr = ratio(max(_zcr_rate(noise), 1e-12), max(_zcr_rate(signal), 1e-12))

    out = {
        "imf_snr_tkeo": snr_tkeo,
        "imf_snr_seo": snr_seo,
        "imf_snr_se": snr_se,
        "imf_snr_re": snr_re,
        "imf_snr_zcr": snr_zcr,
        "imf_nsr_tkeo": 1.0 / snr_tkeo if snr_tkeo > 0 else float("inf"),
        "imf_nsr_seo": 1.0 / snr_seo if snr_seo > 0 else float("inf"),
        "imf_nsr_se": 1.0 / snr_se if snr_se > 0 else float("inf"),
        "imf_nsr_re": 1.0 / snr_re if snr_re > 0 else float("inf"),
        "imf_fd": nonlinear.katz_fd(noise),
    }
    for name, measure in (("imf_cpp", imf1_cpp), ("imf_gne", quality.glottal_noise_excitation)):
        try:
            out[name] = measure(noise)
        except PhonassessError as exc:
            out[name] = float("nan")
            failures[name] = str(exc)
    return out


def imf1_cpp(imf1: np.ndarray) -> float:
    """Cepstral peak prominence of IMF1 via the quality module's routine,
    which raises InsufficientSignalError when IMF1 has no voiced frame."""
    contour = pitch.estimate_f0(imf1)
    return quality.cepstral_quality(frame_array(imf1, FRAME, HOP), contour)[0]
