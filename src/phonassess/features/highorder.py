"""Bispectrum, bicoherence, and bicepstrum features.

The estimator is the direct FFT method averaged over frames on a 128 x 128
grid covering the principal triangular region f1, f2 >= 0, f1 + f2 <= 8 kHz.
Band splits sit at one quarter of the Nyquist frequency. The interference
indices and energy ratios implement the definitions written out in
docs/features.md (several exist only in the specialist literature; the
registry marks them provisional with a definition_version).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio import FrameSequence
from ..errors import InsufficientSignalError

GRID = 128
NFFT = 2 * GRID
LOG_FLOOR = 1e-12
_EPS = 1e-30

# principal triangle f1 + f2 <= GRID, and the bin f1 + f2 of each cell (0
# outside the triangle)
_SUM_BIN = np.arange(GRID)[:, None] + np.arange(GRID)[None, :]
_TRIANGLE = _SUM_BIN <= GRID
_S_SAFE = np.where(_TRIANGLE, _SUM_BIN, 0)


@dataclass
class BispectrumEstimate:
    """Averaged bispectrum over the principal triangle plus its bicoherence."""

    grid: np.ndarray         # complex (GRID, GRID); zero outside the triangle
    bicoherence: np.ndarray  # real (GRID, GRID) in [0, 1]
    mean_spectrum: np.ndarray  # mean magnitude spectrum (GRID + 1 bins)


def _frame_terms(xk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X(f1) X(f2) X*(f1+f2) and |X(f1) X(f2)|^2 of one frame's spectrum."""
    p = xk[:GRID]
    pr = p[:, None] * p[None, :]
    # the conjugate is named: numpy would write pr * np.conj(...) into the
    # conjugate's temporary, and that product rounds differently
    xc = np.conj(xk[_S_SAFE])
    return pr * xc, np.abs(pr) ** 2


def estimate_bispectrum(frames: FrameSequence) -> BispectrumEstimate:
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
    k = len(x)

    # per-frame terms summed in frame order, the order in which mean(axis=0)
    # adds up a (K, GRID, GRID) array, without building one
    b, m12 = _frame_terms(x[0])
    for xk in x[1:]:
        t, m = _frame_terms(xk)
        b += t
        m12 += m
    b /= k
    m12 /= k
    # frame mean of |X(f)|^2 per bin, then spread over the grid; the frames
    # lie along a contiguous axis, so numpy sums them pairwise, which the
    # bitwise oracle in tests/test_bispectrum_oracle.py requires
    m3 = (np.abs(np.ascontiguousarray(x.T)) ** 2).mean(axis=1)[_S_SAFE]
    den = m12 * m3
    # relative floor: dead cells regularize identically at any input gain
    floor = max(1e-24 * float(den.max()), _EPS)
    bico = np.abs(b) / np.sqrt(np.maximum(den, floor))
    # the estimator is symmetric in (f1, f2); enforce it exactly against
    # floating-point reduction noise
    b = 0.5 * (b + b.T)
    bico = 0.5 * (bico + bico.T)
    b = np.where(_TRIANGLE, b, 0.0)
    bico = np.clip(np.where(_TRIANGLE, bico, 0.0), 0.0, 1.0)
    return BispectrumEstimate(
        grid=b,
        bicoherence=bico,
        mean_spectrum=np.abs(x).mean(axis=0),
    )


def _one_dim(grid2d: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Collapse a triangular 2-D field to 1-D by averaging over f2."""
    counts = tri.sum(axis=1)
    counts[counts == 0] = 1
    return (grid2d * tri).sum(axis=1) / counts


def _interference(mag: np.ndarray) -> float:
    """Mean absolute neighbor difference over mean level: high when the field
    fluctuates, 0 for a flat or empty field."""
    mean = mag.mean()
    if mean <= 0:
        return 0.0
    d1 = np.abs(np.diff(mag, axis=0)).mean()
    d2 = np.abs(np.diff(mag, axis=1)).mean()
    return float((d1 + d2) / (2.0 * mean))


def _phase_interference(field: np.ndarray) -> float:
    """Mean absolute wrapped phase step between neighboring cells, over pi."""
    ang = np.angle(field)

    def wrapped(diff):
        return np.abs((diff + np.pi) % (2 * np.pi) - np.pi)

    d1 = wrapped(np.diff(ang, axis=0)).mean()
    d2 = wrapped(np.diff(ang, axis=1)).mean()
    return float((d1 + d2) / (2.0 * np.pi))


def bispectral_features(est: BispectrumEstimate) -> dict[str, float]:
    """Interference indices and spectra/bispectra band-energy ratios."""
    tri = _TRIANGLE
    bico = est.bicoherence
    fc = GRID // 4  # quarter of the Nyquist

    one_d = _one_dim(bico, tri)
    lfeb = float(np.sum(one_d[:fc] ** 2))
    hfeb = float(np.sum(one_d[fc:] ** 2))
    bii = float(bico[tri].mean())

    mag = np.abs(est.grid)
    bmii = _interference(mag)
    bpii = _phase_interference(np.where(tri, est.grid, 1.0))

    spec = est.mean_spectrum
    n = min(len(spec), GRID)
    spec_energy = spec[:n] ** 2
    bis_low = float(mag[:fc, :].sum())
    bis_high = float(mag[fc:, :].sum())
    lsber = float(spec_energy[:fc].sum() / max(bis_low, _EPS))
    hsber = float(spec_energy[fc:n].sum() / max(bis_high, _EPS))
    return {
        "bii": bii, "hfeb": hfeb, "lfeb": lfeb,
        "bmii": bmii, "bpii": bpii,
        "lsber": lsber, "hsber": hsber,
    }


def bicepstrum(est: BispectrumEstimate) -> np.ndarray:
    """2-D inverse FFT of the floored complex log-bispectrum.

    The floor is relative to the grid's peak so overall gain shifts only the
    zero-quefrency cell (which the features exclude).
    """
    mag = np.abs(est.grid)
    floor = max(LOG_FLOOR * float(mag.max()), LOG_FLOOR * _EPS)
    logb = np.log(np.maximum(mag, floor)) + 1j * np.angle(est.grid)
    return np.fft.ifft2(logb)


def bicepstral_features(est: BispectrumEstimate, c: np.ndarray,
                        prev: np.ndarray | None = None) -> dict[str, float]:
    """Bicepstral indices of ``est`` from its bicepstrum ``c``.

    bcmd/bcpd compare ``c`` with ``prev``, the previous analysis block's
    bicepstrum. The zero-quefrency cell carries the overall gain and is
    excluded everywhere, making the indices invariant to amplitude scaling.
    With no previous block the two distances are left out (the caller builds
    the contour from consecutive blocks).
    """
    mag = np.abs(c)
    mag0 = mag.copy()
    mag0[0, 0] = 0.0

    qc = GRID // 4
    one_d = mag0.mean(axis=1)
    lfebc = float(np.sum(one_d[:qc] ** 2))
    hfebc = float(np.sum(one_d[qc:] ** 2))
    peak = one_d.max()
    bcii = float(one_d.mean() / peak) if peak > 0 else 0.0
    cmii = _interference(mag0)
    cfield = c.copy()
    cfield[0, 0] = 1.0
    bcpii = _phase_interference(cfield)

    # 1-D cepstrum of the mean magnitude spectrum vs bicepstral energies
    spec = est.mean_spectrum
    floor = max(LOG_FLOOR * float(spec.max()), LOG_FLOOR * _EPS)
    cep = np.fft.irfft(np.log(np.maximum(spec, floor)))
    half = len(cep) // 2
    cep_sq = cep[1:half] ** 2
    split = max(1, half // 4)
    bic_low = float((mag0[:qc, :] ** 2).sum())
    bic_high = float((mag0[qc:, :] ** 2).sum())
    lcbcer = float(cep_sq[: split].sum() / max(bic_low, _EPS))
    hcbcer = float(cep_sq[split:].sum() / max(bic_high, _EPS))

    values = {
        "bcii": bcii, "hfebc": hfebc, "lfebc": lfebc,
        "cmii": cmii, "bcpii": bcpii,
        "lcbcer": lcbcer, "hcbcer": hcbcer,
    }
    if prev is not None:
        dmag = np.abs(prev)
        dmag[0, 0] = 0.0
        values["bcmd"] = float(np.mean(np.abs(mag0 - dmag)))
        dphi = np.angle(c) - np.angle(prev)
        dphi = np.abs((dphi + np.pi) % (2 * np.pi) - np.pi)
        dphi[0, 0] = 0.0
        values["bcpd"] = float(np.mean(dphi))
    return values
