"""Fundamental-frequency tracking and glottal-cycle marking.

The tracker is a frame-wise normalized autocorrelation method over the
plain (untapered) F0_FRAME_MS (40 ms) frames every HOP_MS (10 ms), searching
[F0_MIN, F0_MAX] = [60, 400] Hz. Frames below ENERGY_THRESHOLD mean power
are unvoiced; a frame is voiced when its peak reaches VOICING_THRESHOLD.
The raw autocorrelation of a Hann-tapered frame is divided by the taper's
own autocorrelation to remove the window bias, so the voicing threshold
means the same at every lag. The harmonics-to-noise measures do not read
these peaks: ``quality.harmonicity_r`` computes its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import HOP_MS, Recording, autocorrelation, frame_signal
from .errors import InsufficientSignalError

F0_MIN = 60.0
F0_MAX = 400.0
F0_FRAME_MS = 40.0
VOICING_THRESHOLD = 0.45
ENERGY_THRESHOLD = 1e-6


@dataclass
class F0Contour:
    """Per-frame fundamental frequency; f0 = 0 on unvoiced frames."""

    times: np.ndarray
    f0: np.ndarray
    voicing: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.f0) == len(self.voicing)):
            raise ValueError("times/f0/voicing length mismatch")

    @property
    def voiced_f0(self) -> np.ndarray:
        return self.f0[self.voicing]


@dataclass
class CycleMarks:
    """Per-glottal-cycle periods, peak amplitudes, and open/closed fractions."""

    periods: np.ndarray          # seconds
    peak_amplitudes: np.ndarray
    open_fractions: np.ndarray
    closed_fractions: np.ndarray
    positions: np.ndarray        # landmark sample index of each cycle start

    def __post_init__(self):
        if np.any(self.periods <= 0):
            raise ValueError("cycle periods must be positive")
        if np.any(self.peak_amplitudes < 0):
            raise ValueError("peak amplitudes must be non-negative")

    def __len__(self) -> int:
        return len(self.periods)

    def slice_range(self, start: int, stop: int) -> "CycleMarks | None":
        """Cycles whose landmark lies in [start, stop) samples; None if < 3."""
        keep = (self.positions >= start) & (self.positions < stop)
        if np.count_nonzero(keep) < 3:
            return None
        return CycleMarks(
            self.periods[keep],
            self.peak_amplitudes[keep],
            self.open_fractions[keep],
            self.closed_fractions[keep],
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


def estimate_f0(rec: Recording) -> F0Contour:
    """Track f0 in [F0_MIN, F0_MAX] Hz; silence and noise come out unvoiced."""
    if rec.fs <= 2 * F0_MAX:
        raise ValueError(f"sampling rate must exceed {2 * F0_MAX:g} Hz for f0 tracking")

    frames = frame_signal(rec, F0_FRAME_MS, HOP_MS)
    raw = frames.raw - frames.raw.mean(axis=1, keepdims=True)
    acf = _corrected_acf(raw, np.hanning(frames.frame_length))

    lag_min = int(np.floor(rec.fs / F0_MAX))
    lag_max = int(np.ceil(rec.fs / F0_MIN))
    energy = np.mean(frames.raw**2, axis=1)

    n = len(frames)
    f0 = np.zeros(n)
    voicing = np.zeros(n, dtype=bool)
    for i in range(n):
        if energy[i] < ENERGY_THRESHOLD:
            continue
        lag, value = pitch_lag_in_range(acf[i], lag_min, lag_max)
        if lag > 0 and value >= VOICING_THRESHOLD:
            cand = rec.fs / lag
            if F0_MIN <= cand <= F0_MAX:
                f0[i] = cand
                voicing[i] = True
    return F0Contour(times=frames.times, f0=f0, voicing=voicing)


def _voiced_segments(contour: F0Contour) -> list[tuple[int, int]]:
    """Contiguous voiced frame runs as (start_frame, end_frame) inclusive."""
    v = contour.voicing.astype(int)
    if v.sum() == 0:
        return []
    edges = np.diff(np.concatenate(([0], v, [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(starts, ends))


def detect_cycles(rec: Recording, contour: F0Contour) -> CycleMarks:
    """Mark glottal cycles inside voiced regions.

    The landmark is the |x| peak inside each successive pitch-period window,
    which locks onto the dominant per-cycle event for both natural vowels and
    synthetic pulse trains. Open/closed fractions classify each cycle's
    samples against its amplitude mid-range; this is an acoustic proxy (no
    electroglottography), flagged approximated in the feature registry.
    """
    x = rec.samples
    fs = rec.fs
    segs = _voiced_segments(contour)
    if not segs:
        raise InsufficientSignalError("no voiced region for cycle detection")

    hop_s = contour.times[1] - contour.times[0] if len(contour.times) > 1 else 0.01

    landmarks: list[int] = []
    for fstart, fend in segs:
        t0 = contour.times[fstart] - hop_s / 2
        t1 = contour.times[fend] + hop_s / 2
        s0 = max(0, int(t0 * fs))
        s1 = min(len(x), int(t1 * fs))
        if s1 - s0 < 4:
            continue

        def period_at(sample: int) -> float:
            t = sample / fs
            idx = int(np.clip(np.searchsorted(contour.times, t), fstart, fend))
            f = contour.f0[idx] if contour.voicing[idx] else contour.f0[fstart]
            return fs / f if f > 0 else 0.0

        period = period_at(s0)
        if period <= 0:
            continue
        first_hi = min(s1, s0 + int(np.ceil(period)) + 1)
        pos = s0 + int(np.argmax(np.abs(x[s0:first_hi])))
        seg_marks = [pos]
        while True:
            period = period_at(pos)
            if period <= 0:
                break
            lo = pos + int(round(0.55 * period))
            hi = pos + int(round(1.45 * period)) + 1
            if hi > s1:
                break
            pos = lo + int(np.argmax(np.abs(x[lo:hi])))
            seg_marks.append(pos)
        if len(seg_marks) >= 2:
            landmarks.extend(seg_marks)
            landmarks.append(-1)  # segment break sentinel

    periods, amps, opens, positions = [], [], [], []
    run: list[int] = []
    for mark in landmarks:
        if mark < 0:
            run = []
            continue
        if run:
            prev = run[-1]
            cyc = x[prev:mark]
            if len(cyc) >= 2:
                lohi = (cyc.min() + cyc.max()) / 2.0
                periods.append((mark - prev) / fs)
                amps.append(float(np.max(np.abs(cyc))))
                opens.append(float(np.mean(cyc > lohi)))
                positions.append(prev)
        run.append(mark)

    if len(periods) < 3:
        raise InsufficientSignalError(f"insufficient voicing: {len(periods)} cycles detected")
    opens = np.asarray(opens)
    return CycleMarks(
        periods=np.asarray(periods),
        peak_amplitudes=np.asarray(amps),
        open_fractions=opens,
        closed_fractions=1.0 - opens,
        positions=np.asarray(positions, dtype=int),
    )

