"""Fundamental-frequency tracking and glottal-cycle marking.

Both take a 16 kHz sample array. The tracker is a frame-wise normalized
autocorrelation method over the plain (untapered) F0_FRAME (640-sample)
frames every HOP (160), searching [F0_MIN, F0_MAX] = [60, 400] Hz, lags of
40 to 267 samples. Frames below ENERGY_THRESHOLD mean power
are unvoiced; a frame is voiced when its peak reaches VOICING_THRESHOLD.
The raw autocorrelation of a Hann-tapered frame is divided by the taper's
own autocorrelation to remove the window bias, so the voicing threshold
means the same at every lag. The harmonics-to-noise measures do not read
these peaks: ``quality.harmonicity_r`` computes its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import ANALYSIS_RATE, HOP, HOP_MS, autocorrelation, frame_array
from .errors import InsufficientSignalError

F0_MIN = 60.0
F0_MAX = 400.0
F0_FRAME_MS = 40.0
F0_FRAME = int(round(F0_FRAME_MS * ANALYSIS_RATE / 1000.0))
VOICING_THRESHOLD = 0.45
ENERGY_THRESHOLD = 1e-6


@dataclass
class F0Contour:
    """Per-frame fundamental frequency, 0 on unvoiced frames: a frame is
    voiced exactly when its f0 is positive, so voicing is not stored."""

    times: np.ndarray
    f0: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.f0):
            raise ValueError("times/f0 length mismatch")

    @property
    def voicing(self) -> np.ndarray:
        return self.f0 > 0

    @property
    def voiced_f0(self) -> np.ndarray:
        return self.f0[self.voicing]

    @property
    def hop(self) -> float:
        """Seconds between frames: times[1] - times[0], else HOP_MS / 1000."""
        return self.times[1] - self.times[0] if len(self.times) > 1 else HOP_MS / 1000


@dataclass
class CycleMarks:
    """Per-glottal-cycle periods, peak amplitudes and open fractions; the
    closed fraction of a cycle is the rest of it, 1 - open."""

    periods: np.ndarray          # seconds
    peak_amplitudes: np.ndarray
    open_fractions: np.ndarray
    positions: np.ndarray        # landmark sample index of each cycle start

    def __post_init__(self):
        if np.any(self.periods <= 0):
            raise ValueError("cycle periods must be positive")
        if np.any(self.peak_amplitudes < 0):
            raise ValueError("peak amplitudes must be non-negative")

    def __len__(self) -> int:
        return len(self.periods)

    @property
    def closed_fractions(self) -> np.ndarray:
        return 1.0 - self.open_fractions

    def slice_range(self, start: int, stop: int) -> "CycleMarks | None":
        """Cycles whose landmark lies in [start, stop) samples; None if < 3."""
        keep = (self.positions >= start) & (self.positions < stop)
        if np.count_nonzero(keep) < 3:
            return None
        return CycleMarks(
            self.periods[keep],
            self.peak_amplitudes[keep],
            self.open_fractions[keep],
            self.positions[keep],
        )


def _corrected_acf(frames: np.ndarray, taper: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation of tapered frames, window bias removed."""
    acf = autocorrelation(frames * taper)
    norm = acf[:, :1].copy()
    norm[norm <= 0] = 1.0
    acf = acf / norm

    wacf = autocorrelation(taper)
    wacf = wacf / wacf[0]
    wacf[wacf < 1e-6] = 1e-6
    return acf / wacf


def _parabolic(y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through (i-1, i, i+1); clamps at array edges."""
    if i <= 0 or i >= len(y) - 1:
        return float(i), float(y[i])
    a, b, c = y[i - 1], y[i], y[i + 1]
    denom = a - 2 * b + c
    if denom == 0:
        return float(i), float(b)
    delta = 0.5 * (a - c) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    return i + delta, float(b - 0.25 * (a - c) * delta)


def pitch_lag_in_range(acf_row: np.ndarray, lag_min: int, lag_max: int) -> tuple[float, float]:
    """Best pitch-lag candidate in [lag_min, lag_max].

    Local maxima within 85 % of the strongest are octave candidates; the
    shortest such lag wins, which suppresses period doubling on clean
    periodic signals. A range whose strongest peak is negative holds no
    periodicity and gives no candidate, like an empty range.
    """
    lo = max(1, lag_min)
    hi = min(len(acf_row) - 2, lag_max)
    if hi <= lo:
        return 0.0, 0.0
    seg = acf_row[lo : hi + 1]
    inner = seg[1:-1]
    peaks = np.flatnonzero((inner > seg[:-2]) & (inner >= seg[2:])) + 1
    if len(peaks) == 0:
        peaks = np.array([int(np.argmax(seg))])
    best = float(seg[peaks].max())
    if best < 0:
        return 0.0, 0.0
    chosen = peaks[seg[peaks] >= 0.85 * best][0]
    lag, value = _parabolic(acf_row, lo + int(chosen))
    return lag, min(value, 1.0 - 1e-9)


def estimate_f0(x: np.ndarray) -> F0Contour:
    """Track f0 in [F0_MIN, F0_MAX] Hz; silence and noise come out unvoiced."""
    frames = frame_array(x, F0_FRAME, HOP)
    raw = frames.raw - frames.raw.mean(axis=1, keepdims=True)
    acf = _corrected_acf(raw, np.hanning(frames.frame_length))

    lag_min = int(np.floor(ANALYSIS_RATE / F0_MAX))
    lag_max = int(np.ceil(ANALYSIS_RATE / F0_MIN))
    energy = np.mean(frames.raw**2, axis=1)

    n = len(frames)
    f0 = np.zeros(n)
    for i in range(n):
        if energy[i] < ENERGY_THRESHOLD:
            continue
        lag, value = pitch_lag_in_range(acf[i], lag_min, lag_max)
        if lag > 0 and value >= VOICING_THRESHOLD:
            cand = ANALYSIS_RATE / lag
            if F0_MIN <= cand <= F0_MAX:
                f0[i] = cand
    return F0Contour(times=frames.times, f0=f0)


def _voiced_segments(contour: F0Contour) -> list[tuple[int, int]]:
    """Contiguous voiced frame runs as (start_frame, end_frame) inclusive."""
    v = contour.voicing.astype(int)
    edges = np.diff(np.concatenate(([0], v, [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(starts, ends))


def detect_cycles(x: np.ndarray, contour: F0Contour) -> CycleMarks:
    """Mark glottal cycles inside voiced regions.

    The landmark is the |x| peak inside each successive pitch-period window,
    which locks onto the dominant per-cycle event for both natural vowels and
    synthetic pulse trains. Open/closed fractions classify each cycle's
    samples against its amplitude mid-range; this is an acoustic proxy (no
    electroglottography), flagged approximated in the feature registry.
    """
    hop_s = contour.hop
    periods, amps, opens, positions = [], [], [], []
    for fstart, fend in _voiced_segments(contour):  # no voiced run gives 0 cycles below
        t0 = contour.times[fstart] - hop_s / 2
        t1 = contour.times[fend] + hop_s / 2
        s0 = max(0, int(t0 * ANALYSIS_RATE))
        s1 = min(len(x), int(t1 * ANALYSIS_RATE))
        if s1 - s0 < 4:
            continue

        def period_at(sample: int) -> float:
            # every frame of the voiced run has f0 > 0
            idx = int(np.clip(np.searchsorted(contour.times, sample / ANALYSIS_RATE), fstart, fend))
            return ANALYSIS_RATE / contour.f0[idx]

        period = period_at(s0)
        first_hi = min(s1, s0 + int(np.ceil(period)) + 1)
        pos = s0 + int(np.argmax(np.abs(x[s0:first_hi])))
        seg_marks = [pos]
        while True:
            period = period_at(pos)
            lo = pos + int(round(0.55 * period))
            hi = pos + int(round(1.45 * period)) + 1
            if hi > s1:
                break
            pos = lo + int(np.argmax(np.abs(x[lo:hi])))
            seg_marks.append(pos)
        for prev, mark in zip(seg_marks, seg_marks[1:]):  # one cycle per pair of marks
            cyc = x[prev:mark]
            if len(cyc) >= 2:
                lohi = (cyc.min() + cyc.max()) / 2.0
                periods.append((mark - prev) / ANALYSIS_RATE)
                amps.append(float(np.max(np.abs(cyc))))
                opens.append(float(np.mean(cyc > lohi)))
                positions.append(prev)

    if len(periods) < 3:
        raise InsufficientSignalError(f"insufficient voicing: {len(periods)} cycles detected")
    return CycleMarks(
        periods=np.asarray(periods),
        peak_amplitudes=np.asarray(amps),
        open_fractions=np.asarray(opens),
        positions=np.asarray(positions, dtype=int),
    )

