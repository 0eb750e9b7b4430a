"""Temporal, spectral, cepstral, noise, and modulation voice-quality measures.

Several of these exist only in the specialist literature; the formulas
actually implemented are written out in docs/features.md, and the registry
carries a definition_version so later corrections do not silently change
outputs.

Every measure takes a 16 kHz sample array or frames cut from one. Constants:
spectra use SPECTRUM_NFFT (512) points and a SMOOTH_BINS (15) bin envelope
smoother; cepstra use CEPSTRUM_NFFT (1024) points. The
harmonicity r is read on the pitch tracker's F0_FRAME (40 ms) frames, the
dysperiodicity on FRAME (25 ms) frames, both every HOP (10 ms).
GNE inverse-filters with GNE_LPC_ORDER (12) and correlates GNE_BAND_HZ
(1 kHz) bands stepped by GNE_STEP_HZ (300 Hz). dB values are clamped to
DB_CLAMP.
"""
from __future__ import annotations

import numpy as np

from .. import dsp
from ..audio import (ANALYSIS_RATE, FRAME, HOP, FrameSequence, autocorrelation, context_sums,
                     frame_array)
from ..errors import InsufficientSignalError
from ..pitch import F0_FRAME, F0Contour, _parabolic
from .articulation import lpc_coefficients

DB_CLAMP = (-20.0, 60.0)
TINY = 1e-300
SPECTRUM_NFFT = 512
SMOOTH_BINS = 15
CEPSTRUM_NFFT = 1024
GNE_BAND_HZ = 1000.0
GNE_STEP_HZ = 300.0
GNE_LPC_ORDER = 12


def _clamp_db(v: float) -> float:
    return float(np.clip(v, *DB_CLAMP))


def frame_voicing(frames: FrameSequence, contour: F0Contour) -> tuple[np.ndarray, np.ndarray]:
    """(voicing flag, f0) per frame, both read at the nearest contour time."""
    times = frames.times
    idx = np.clip(np.searchsorted(contour.times, times), 0, len(contour.times) - 1)
    left = np.clip(idx - 1, 0, len(contour.times) - 1)
    use_left = np.abs(contour.times[left] - times) < np.abs(contour.times[idx] - times)
    idx = np.where(use_left, left, idx)
    return contour.voicing[idx], contour.f0[idx]


def temporal_quality(frames: FrameSequence, contour: F0Contour):
    """(zcr contour, hzcrr, fluf).

    zcr is sign changes per sample; hzcrr the fraction of frames whose zcr
    exceeds 1.5x the mean over a 1 s context; fluf the unvoiced-frame
    fraction.
    """
    raw = frames.raw
    pos = raw >= 0
    zcr = np.sum(pos[:, 1:] != pos[:, :-1], axis=1) / frames.frame_length
    sums, counts = context_sums(zcr)
    hzcrr = np.count_nonzero(zcr > 1.5 * sums / counts) / len(zcr)

    voiced, _ = frame_voicing(frames, contour)
    fluf = float(np.mean(~voiced))
    return zcr, float(hzcrr), fluf


def spectral_quality(frames: FrameSequence):
    """(sf contour, sdbm, sdbp).

    sf is the L2 distance between successive unit-norm magnitude spectra.
    sdbm / sdbp are RMS distances between the frame's log-magnitude /
    unwrapped-phase spectrum and its moving-average smoothed envelope,
    averaged over frames.
    """
    if len(frames) < 2:
        raise InsufficientSignalError("need >= 2 frames for spectral flux")
    spec = np.fft.rfft(frames.frames, SPECTRUM_NFFT)
    mags = np.abs(spec)
    norms = np.linalg.norm(mags, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    sf = np.linalg.norm(np.diff(mags / norms, axis=0), axis=1)

    logmag = 20.0 * np.log10(np.maximum(mags, TINY))
    phase = np.unwrap(np.angle(spec), axis=1)
    kernel = np.ones(SMOOTH_BINS) / SMOOTH_BINS
    half = SMOOTH_BINS // 2

    def rms_dist(rows):
        out = np.empty(rows.shape[0])
        for i, row in enumerate(rows):
            # edge-replicated padding keeps the smoother shift-invariant, so
            # a global gain change cancels in the distance
            padded = np.pad(row, half, mode="edge")
            smooth = np.convolve(padded, kernel, mode="valid")
            out[i] = np.sqrt(np.mean((row - smooth) ** 2))
        return out

    sdbm = float(np.mean(rms_dist(logmag)))
    sdbp = float(np.mean(rms_dist(phase)))
    return sf, sdbm, sdbp


def cepstral_quality(frames: FrameSequence, contour: F0Contour):
    """(cpp, pecm, vr) over the voiced frames of a frame sequence.

    A frame's cepstrum is the inverse transform of its dB magnitude spectrum.
    The power cepstra of the voiced frames are averaged across frames (which
    suppresses the extreme-value bias a noisy log cepstrum would otherwise
    show); cpp is the dB peak height of that average above its linear
    quefrency trend at the pitch quefrency. pecm is the cepstral energy
    within +-0.5 ms of the peak relative to the whole 1 ms+ range. vr is the
    across-frame std of the second-to-first harmonic dB ratio.
    """
    voiced, f0_per_frame = frame_voicing(frames, contour)
    if not np.any(voiced):
        raise InsufficientSignalError("no voiced frames for cepstral measures")
    q_lo = int(1e-3 * ANALYSIS_RATE)  # 1 ms
    half_ms = int(0.5e-3 * ANALYSIS_RATE)

    spec_all = np.abs(np.fft.rfft(frames.frames, CEPSTRUM_NFFT))
    freq_axis = np.fft.rfftfreq(CEPSTRUM_NFFT, 1.0 / ANALYSIS_RATE)
    powers = []
    f0_used = []
    h2h1 = []
    for i in np.flatnonzero(voiced):
        f0 = f0_per_frame[i]
        cep = np.fft.irfft(20.0 * np.log10(np.maximum(spec_all[i], TINY)), CEPSTRUM_NFFT)
        powers.append(cep[: CEPSTRUM_NFFT // 2] ** 2)
        f0_used.append(f0)
        h1 = _harmonic_db(spec_all[i], freq_axis, f0)
        h2 = _harmonic_db(spec_all[i], freq_axis, 2 * f0)
        if h1 is not None and h2 is not None:
            h2h1.append(h2 - h1)

    power = np.mean(powers, axis=0)
    power_db = 10.0 * np.log10(power + TINY)
    n_half = len(power)
    lag = ANALYSIS_RATE / float(np.median(f0_used))
    # f0 in [60, 400] Hz puts the lag in [40, 267] samples: lo < hi always
    lo = max(q_lo, int(lag * 0.8))
    hi = min(n_half - 2, int(lag * 1.2) + 1)
    rel = int(np.argmax(power_db[lo:hi]))
    qpk, peak_val = _parabolic(power_db, lo + rel)
    q = np.arange(q_lo, n_half)
    slope, intercept = np.polyfit(q, power_db[q_lo:], 1)
    cpp = float(peak_val - (slope * qpk + intercept))

    seg = power[max(q_lo, int(qpk) - half_ms) : min(n_half, int(qpk) + half_ms + 1)]
    denom = np.sum(power[q_lo:])
    pecm = float(np.sum(seg) / denom) if denom > 0 else 0.0
    vr = float(np.std(h2h1)) if len(h2h1) >= 2 else 0.0
    return cpp, pecm, vr


def _harmonic_db(mag: np.ndarray, freqs: np.ndarray, target: float) -> float | None:
    if target >= freqs[-1]:
        return None
    width = max(1, int(0.25 * target / (freqs[1] - freqs[0])))
    center = int(round(target / (freqs[1] - freqs[0])))
    lo, hi = max(0, center - width), min(len(mag), center + width + 1)
    return float(20.0 * np.log10(max(mag[lo:hi].max(), TINY)))


def _nccf_rows(raw: np.ndarray) -> np.ndarray:
    """Normalized cross-correlation of every frame at every lag.

    r(tau) = sum x[n] x[n+tau] / sqrt(E0(tau) E1(tau)); exactly 1 for a
    periodic frame at an integer multiple of its period, so no window-bias
    correction is needed.
    """
    n = raw.shape[1]
    num = autocorrelation(raw)
    sq = np.concatenate([np.zeros((raw.shape[0], 1)), np.cumsum(raw**2, axis=1)], axis=1)
    taus = np.arange(n)
    e0 = sq[:, n - taus] - sq[:, 0:1]      # energy of x[0 : n-tau]
    e1 = sq[:, n:n+1] - sq[:, taus]        # energy of x[tau : n]
    den = np.sqrt(e0 * e1)
    den[den <= 0] = np.inf
    return num / den


def harmonicity_r(x: np.ndarray, contour: F0Contour) -> np.ndarray:
    """Normalized cross-correlation at the pitch lag, per voiced frame."""
    frames = frame_array(x, F0_FRAME, HOP)
    raw = frames.raw - frames.raw.mean(axis=1, keepdims=True)
    nccf = _nccf_rows(raw)
    voiced, f0s = frame_voicing(frames, contour)
    out = []
    for i in np.flatnonzero(voiced):
        lag = ANALYSIS_RATE / f0s[i]
        # f0 in [60, 400] Hz puts the lag in [40, 267] samples: lo < hi always
        lo = max(1, int(lag * 0.85))
        hi = min(frames.frame_length - 2, int(lag * 1.15) + 1)
        rel = int(np.argmax(nccf[i, lo:hi]))
        _, val = _parabolic(nccf[i], lo + rel)
        out.append(min(max(val, 0.0), 1.0 - 1e-12))
    return np.asarray(out)


def noise_measures(x: np.ndarray, contour: F0Contour) -> tuple[float, float, float, float, float, float, float]:
    """(hnr, nhr, nne, gne, spi, vti, ssd) on the voiced part of a recording.

    The harmonic fraction r is reduced over voiced frames in the correlation
    domain (median) before conversion to dB, which keeps the estimate stable
    for very clean signals and partial edge cycles. hnr = 10 log10(r/(1-r));
    nhr = (1-r)/r; nne = 10 log10(1-r). dB values are clamped to [-20, 60].
    """
    voiced_dur = float(np.sum(contour.voicing)) * contour.hop
    if voiced_dur < 0.5:
        raise InsufficientSignalError(f"need >= 0.5 s voiced, got {voiced_dur:.2f} s")

    r_vals = harmonicity_r(x, contour)
    if len(r_vals) == 0:
        raise InsufficientSignalError("no usable voiced frames")
    # median over frames: robust to partial cycles at the signal edges
    r = float(np.median(r_vals))
    r = min(max(r, 1e-9), 1.0 - 1e-9)
    hnr = _clamp_db(10.0 * np.log10(r / (1.0 - r)))
    nhr = float((1.0 - r) / r)
    nne = _clamp_db(10.0 * np.log10(1.0 - r))

    gne = glottal_noise_excitation(x)
    spi, vti = _band_ratios(x)
    ssd = _dysperiodicity(x, contour)
    return hnr, nhr, nne, gne, spi, vti, ssd


def _band_energy(freqs: np.ndarray, pxx: np.ndarray, lo: float, hi: float) -> float:
    m = (freqs >= lo) & (freqs < hi)
    return float(pxx[m].sum()) if np.any(m) else 0.0


def _band_ratios(x: np.ndarray) -> tuple[float, float]:
    freqs, pxx = dsp.welch(x, ANALYSIS_RATE, nperseg=2048)
    spi_hi = _band_energy(freqs, pxx, 1600, 4500)
    spi = _band_energy(freqs, pxx, 70, 1600) / max(spi_hi, TINY)
    vti_lo = _band_energy(freqs, pxx, 70, 2800)
    vti = _band_energy(freqs, pxx, 2800, 5800) / max(vti_lo, TINY)
    return float(spi), float(vti)


def _dysperiodicity(x: np.ndarray, contour: F0Contour) -> float:
    """Mean segmental signal-to-dysperiodicity ratio in dB (clamped)."""
    frames = frame_array(x, FRAME, HOP)
    voiced, f0s = frame_voicing(frames, contour)
    vals = []
    for i in np.flatnonzero(voiced):
        T = int(round(ANALYSIS_RATE / f0s[i]))
        start = i * frames.hop
        if start < T:
            continue
        seg = x[start : start + frames.frame_length]
        prev = x[start - T : start - T + frames.frame_length]
        num = np.sum(seg**2)
        den = np.sum((seg - prev) ** 2)
        if num <= 0:
            continue
        vals.append(10.0 * np.log10(num / max(den, TINY)))
    if not vals:
        return 0.0
    return _clamp_db(float(np.mean(vals)))


def _analytic_band(spec: np.ndarray, freqs: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    """Envelope of the band [lo, hi) of ``spec``, the fft or rfft of n samples
    at ``freqs``: the magnitude of its analytic signal, the ifft of its bins
    doubled but for the DC bin, which an analytic signal counts once. No
    caller's band holds the Nyquist bin, which it would count once too."""
    full = np.zeros(n, dtype=complex)
    idx = np.flatnonzero((freqs >= lo) & (freqs < hi))
    full[idx] = 2.0 * spec[idx]
    if idx.size and idx[0] == 0:
        full[0] = spec[0]
    return np.abs(np.fft.ifft(full))


def glottal_noise_excitation(x: np.ndarray) -> float:
    """Glottal-to-noise excitation ratio in [0, 1].

    LPC inverse filtering yields the excitation; Hilbert envelopes of 1 kHz
    bands stepped by 300 Hz (centers up to 4.5 kHz) are cross-correlated,
    and the maximum correlation between bands at least half a bandwidth apart
    is returned. Glottal excitation drives all bands coherently (ratio near
    1); turbulent noise decorrelates them. A too-short input or a singular
    LPC model (say, a zero-energy one) raises ``InsufficientSignalError``.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < GNE_LPC_ORDER * 4:
        raise InsufficientSignalError("too short for excitation analysis")
    try:
        a = lpc_coefficients(x * np.hanning(len(x)), GNE_LPC_ORDER)
    except np.linalg.LinAlgError as exc:
        raise InsufficientSignalError("singular excitation model") from exc
    excitation = np.convolve(x, a, mode="same")
    n = len(excitation)
    spec = np.fft.fft(excitation)
    freqs = np.fft.fftfreq(n, 1.0 / ANALYSIS_RATE)
    half = GNE_BAND_HZ / 2
    centers = np.arange(half, 4500.0 + 1, GNE_STEP_HZ)
    envs = []
    for c in centers:
        env = _analytic_band(spec, freqs, c - half, c + half, n)
        env = env - env.mean()
        norm = np.sqrt(np.sum(env**2))
        envs.append(env / norm if norm > 0 else env)
    best = 0.0
    for i in range(len(envs)):
        for j in range(i + 1, len(envs)):
            if centers[j] - centers[i] < half:
                continue
            best = max(best, float(np.dot(envs[i], envs[j])))
    return min(max(best, 0.0), 1.0)


MOD_BANDS = ((100, 300), (300, 700), (700, 1500), (1500, 3000), (3000, 6000), (6000, 7900))
ENVELOPE_RATE = 1000
IC_BAND = (64.0, 128.0)


def modulation_spectrum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Band-averaged envelope power spectrum: (mod_freqs, power, dc_energy).

    Each band's envelope is its analytic signal's magnitude, taken from the
    band's rfft bins (``_analytic_band``), then resampled to
    ``ENVELOPE_RATE`` with 50 ms trimmed off each edge. The top band ends at
    7.9 kHz, below the 8 kHz Nyquist frequency. dc_energy
    is the summed energy of the raw (pre-mean-removal) envelopes; callers
    floor their band ratios with it so an unmodulated carrier reads ~0
    instead of a ratio of numerical leakage.
    """
    if len(x) < ANALYSIS_RATE:
        raise InsufficientSignalError("need >= 1 s for modulation analysis")
    n = len(x)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1.0 / ANALYSIS_RATE)
    trim = ENVELOPE_RATE // 20  # 50 ms of resampling transients per edge
    powers = []
    dc_energy = 0.0
    for lo, hi in MOD_BANDS:
        env = _analytic_band(spec, freqs, lo, hi, n)
        env = dsp.resample_poly(env, ENVELOPE_RATE, ANALYSIS_RATE, beta=5.0)
        env = env[trim:-trim] if len(env) > 3 * trim else env
        dc_energy += float(np.sum(env**2))
        env = env - env.mean()
        p = np.abs(np.fft.rfft(env * np.hanning(len(env)))) ** 2
        powers.append(p)
    power = np.mean(powers, axis=0)
    mod_freqs = np.fft.rfftfreq(len(env), 1.0 / ENVELOPE_RATE)
    return mod_freqs, power, dc_energy


def modulation_measures(x: np.ndarray) -> tuple[float, float, float, float, float]:
    """(mser, mfp, rphm, icer, rphic) from the band-envelope modulation spectrum.

    mfp: modulation frequency of the dominant peak in [0.5, 30] Hz. rphm: that
    peak's share of low-band energy. mser: energy below 10 Hz over total.
    icer / rphic: energy share and in-band peak share of the 64-128 Hz region
    (interpretation of the companion-article bands; flagged provisional).
    """
    mod_freqs, power, dc_energy = modulation_spectrum(x)
    floor = 1e-10 * dc_energy
    total = max(float(power[mod_freqs >= 0.5].sum()), floor, TINY)
    low_mask = (mod_freqs >= 0.5) & (mod_freqs <= 30.0)
    low = power[low_mask]
    low_f = mod_freqs[low_mask]
    pk = int(np.argmax(low))
    mfp = float(low_f[pk])
    rphm = float(low[pk] / max(low.sum(), floor, TINY))
    mser = float(power[(mod_freqs >= 0.5) & (mod_freqs <= 10.0)].sum() / total)
    ic_mask = (mod_freqs >= IC_BAND[0]) & (mod_freqs <= IC_BAND[1])
    ic = power[ic_mask]
    icer = float(ic.sum() / total)
    rphic = float(ic.max() / max(ic.sum(), floor, TINY)) if ic.size else 0.0
    return mser, mfp, rphm, icer, rphic
