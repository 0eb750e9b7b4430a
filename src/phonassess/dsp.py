"""Signal routines extraction needs, bitwise equal to the scipy calls they replace.

Each function repeats its scipy 1.17 original operation for operation, so it
returns the same bits: ``welch`` is ``scipy.signal.welch(x, fs, nperseg=...)``
with its defaults (periodic Hann window, half overlap, constant detrend,
density scaling, mean average), ``resample_poly`` is
``scipy.signal.resample_poly`` with a Kaiser window and zero padding, and
``envelope_spline`` is ``scipy.interpolate.CubicSpline`` with not-a-knot
ends, evaluated at the samples 0 .. n-1. They need only
``scipy.fft``, ``scipy.linalg`` and ``scipy.special``, which import in a
fraction of the time and memory of ``scipy.signal`` and
``scipy.interpolate``; like the rest of the package, each imports them where
it calls them. ``tests/test_dsp_oracle.py`` checks every one against its
original.
"""
from __future__ import annotations

import math

import numpy as np


def _psd_window(nperseg: int, fs: float) -> np.ndarray:
    """Periodic Hann window scaled to a power spectral density (ShortTimeFFT.fac_psd)."""
    fac = np.linspace(-np.pi, np.pi, nperseg + 1)
    win = (0.5 + 0.5 * np.cos(fac))[:-1]
    return win * (1 / np.sqrt(sum(win**2) / (1 / fs)))  # built-in sum: scipy's order


def welch(x: np.ndarray, fs: float, nperseg: int) -> tuple[np.ndarray, np.ndarray]:
    """(freqs, psd) by Welch's method over half-overlapping Hann segments.

    ``x`` holds at least two samples; ``nperseg`` longer than ``x`` is cut to
    its length, as scipy does.
    """
    from scipy.fft import rfft, rfftfreq

    x = np.asarray(x, dtype=np.float64)
    nperseg = min(nperseg, x.size)
    hop = nperseg - nperseg // 2
    count = (x.size - nperseg // 2) // hop
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[: (count - 1) * hop + 1 : hop]
    segments = segments - np.mean(segments, axis=-1, keepdims=True)
    spec = rfft(segments * _psd_window(nperseg, fs), n=nperseg, axis=-1)
    # scipy holds the periodograms as a C-order (frequency, segment) array and
    # averages along its rows; the same layout gives the same sums
    power = np.ascontiguousarray((spec.real**2 + spec.imag**2).T)
    power[1 : -1 if nperseg % 2 == 0 else None] *= 2
    return rfftfreq(nperseg, 1 / fs), power.mean(axis=-1)


def _lowpass_taps(up: int, down: int, beta: float) -> np.ndarray:
    """``firwin(2 * half_len + 1, 1 / max(up, down), window=("kaiser", beta)) * up``.

    The Kaiser window's Bessel function comes from ``scipy.special.i0``;
    ``numpy.i0`` differs from it in the last bit.
    """
    from scipy.special import i0

    max_rate = max(up, down)
    cutoff = np.float64(1.0 / max_rate)
    numtaps = 2 * 10 * max_rate + 1
    m = np.arange(0, numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    # firwin also subtracts the band's left edge term, 0 * sinc(0 * m) = +0.0,
    # which changes no bit
    h = 0 + cutoff * np.sinc(cutoff * m)
    n = np.arange(0, numtaps, dtype=np.float64)
    alpha = (numtaps - 1) / 2.0
    window = i0(beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / i0(np.asarray(beta, np.float64))
    h *= window
    h /= np.sum(h)
    h *= up
    return h


def resample_poly(x: np.ndarray, up: int, down: int, beta: float) -> np.ndarray:
    """Rate-convert by ``up / down`` with a Kaiser-windowed lowpass (zero padding).

    Each output sums its taps in scipy's ``upfirdn`` order, oldest input
    sample first, from +0.0. Terms of zero padding add +-0.0 to a sum that is
    never -0.0, so padding the input with zeros on both sides changes no bit.
    """
    g = math.gcd(up, down)
    up, down = up // g, down // g
    x = np.asarray(x, dtype=np.float64)
    if up == down == 1:
        return x.copy()
    n_in = x.size
    n_out = -(-n_in * up // down)
    taps = _lowpass_taps(up, down, beta)
    half_len = (taps.size - 1) // 2
    n_pre_pad = down - half_len % down
    n_pre_remove = (half_len + n_pre_pad) // down
    length = taps.size + n_pre_pad
    # scipy.signal._upfirdn._output_len: zeros go after the taps until their
    # output reaches every kept sample
    while ((n_in - 1) * up + length - 1) // down + 1 < n_out + n_pre_remove:
        length += 1
    per_phase = -(-length // up)
    h = np.zeros(per_phase * up)
    h[n_pre_pad : n_pre_pad + taps.size] = taps
    # phase t's taps, newest sample first: h[t], h[up + t], ...
    h = h.reshape(per_phase, up)

    first = n_pre_remove * down  # upsampled index of the first kept output
    last = (n_pre_remove + n_out - 1) * down
    # padded[i + per_phase - 1] == x[i]
    padded = np.zeros(per_phase - 1 + max(n_in, last // up + 1))
    padded[per_phase - 1 : per_phase - 1 + n_in] = x
    y = np.zeros(n_out)
    if up == 1:  # strided views take a third of the gathers' time at 1/16
        for j in range(per_phase):
            y += padded[first + j : last + j + 1 : down] * h[per_phase - 1 - j, 0]
    else:
        at = np.arange(first, last + 1, down)
        start, phase = at // up, at % up
        for j in range(per_phase):
            y += padded[start + j] * h[per_phase - 1 - j, phase]
    return y


def envelope_spline(knots: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Not-a-knot cubic spline through (knots, values), evaluated at 0 .. n-1.

    ``knots`` are strictly increasing integers, at least four of them, with
    ``knots[0] < 0`` and ``knots[-1] > n - 1``. The spline's slopes solve
    CubicSpline's banded system with ``scipy.linalg.solve_banded``; each
    sample evaluates its piece's polynomial in ``scipy.interpolate``'s order.
    """
    from scipy.linalg import solve_banded

    t = knots.astype(np.float64)
    y = np.asarray(values, dtype=np.float64)
    dx = np.diff(t)
    slope = np.diff(y) / dx
    band = np.zeros((3, t.size))
    rhs = np.empty(t.size)
    band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    band[0, 2:] = dx[:-1]
    band[-1, :-2] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    band[1, 0] = dx[1]
    d = t[2] - t[0]
    band[0, 1] = d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    band[1, -1] = dx[-2]
    d = t[-1] - t[-3]
    band[-1, -2] = d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), band, rhs[:, None], overwrite_ab=True, overwrite_b=True,
                     check_finite=False)[:, 0]

    # CubicHermiteSpline's coefficients, highest power first
    curv = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = curv / dx, (slope - s[:-1]) / dx - curv, s[:-1], y[:-1]

    # piece j, [knots[j], knots[j + 1]), holds this many of the samples 0 .. n-1
    counts = np.diff(np.clip(knots, 0, n))
    local = np.arange(n, dtype=np.float64) - np.repeat(t[:-1], counts)
    out = 0.0 + np.repeat(c3, counts)
    out += np.repeat(c2, counts) * local
    z = local * local
    out += np.repeat(c1, counts) * z
    z *= local
    out += np.repeat(c0, counts) * z
    return out
