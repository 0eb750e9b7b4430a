"""The band-envelope modulation spectrum against the one it replaced.

``ref_modulation_spectrum`` is the former ``quality.modulation_spectrum``,
kept verbatim but for ``scipy.signal.hilbert`` in place of the in-repo copy
of it that it called, and for a band clipped at fs / 2 stopping below the
Nyquist bin by index: each band went back to the time domain (``irfft``)
and through a second FFT for its analytic signal. The current one takes the
analytic signal from the band's rfft bins (``quality._analytic_band``), which
moves values in their last bits only. So the spectra must agree to 1e-12 of
the size of their rounding error (``power_scale``), and the DC energies to
1e-12 of their own size. Both run at the 16 kHz analysis rate, where the top
band ends at 7.9 kHz and no band is clipped.

A band's envelope is its analytic signal's (``scipy.signal.hilbert``), which
counts the DC bin once. Only ``gne``'s first band holds that bin; the
modulation bands start at 100 Hz, so the modulation measures are bitwise
those of the version that doubled it.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import signal

from phonassess import dsp
from phonassess.audio import ANALYSIS_RATE
from phonassess.errors import InsufficientSignalError
from phonassess.features import quality
from phonassess.features.quality import ENVELOPE_RATE, MOD_BANDS, modulation_spectrum


def ref_modulation_spectrum(x: np.ndarray, fs: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Band-averaged envelope power spectrum: (mod_freqs, power, dc_energy).

    dc_energy is the summed energy of the raw (pre-mean-removal) envelopes;
    callers floor their band ratios with it so an unmodulated carrier reads
    ~0 instead of a ratio of numerical leakage.
    """
    if len(x) < fs:
        raise InsufficientSignalError("need >= 1 s for modulation analysis")
    n = len(x)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    trim = ENVELOPE_RATE // 20  # 50 ms of resampling transients per edge
    powers = []
    dc_energy = 0.0
    for lo, hi in MOD_BANDS:
        if lo >= fs / 2:
            continue
        band = np.zeros_like(spec)
        m = (freqs >= lo) & (freqs < min(hi, fs / 2)) & (2 * np.arange(len(freqs)) < n)
        band[m] = spec[m]
        env = np.abs(signal.hilbert(np.fft.irfft(band, n)))
        env = dsp.resample_poly(env, ENVELOPE_RATE, fs, beta=5.0)
        env = env[trim:-trim] if len(env) > 3 * trim else env
        dc_energy += float(np.sum(env**2))
        env = env - env.mean()
        p = np.abs(np.fft.rfft(env * np.hanning(len(env)))) ** 2
        powers.append(p)
    power = np.mean(powers, axis=0)
    mod_freqs = np.fft.rfftfreq(len(env), 1.0 / ENVELOPE_RATE)
    return mod_freqs, power, dc_energy


@st.composite
def recordings(draw):
    """An amplitude-modulated tone (depth 0 to 1) or noise, 1 to 3 s long at 16 kHz."""
    fs = ANALYSIS_RATE
    n = draw(st.integers(fs, 3 * fs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 3e4]))
    if draw(st.booleans()):
        t = np.arange(n) / fs
        carrier = draw(st.floats(80.0, 0.45 * fs))
        rate = draw(st.floats(0.5, 200.0))
        depth = draw(st.floats(0.0, 1.0))
        x = (1 + depth * np.sin(2 * np.pi * rate * t)) * np.sin(2 * np.pi * carrier * t)
        x += draw(st.sampled_from([0.0, 1e-3, 0.1])) * rng.standard_normal(n)
    else:
        x = rng.standard_normal(n)
    return x * scale


# 1.1 s of noise whose rfft puts its Nyquist bin just below 8 kHz
NYQUIST_IN_BAND = np.random.default_rng(0).standard_normal(17650)


@settings(max_examples=60, deadline=None)
@given(recordings())
@example(NYQUIST_IN_BAND)
def test_modulation_spectrum_matches_hilbert_reference(x):
    mod_freqs, power, dc_energy = modulation_spectrum(x)
    ref_freqs, ref_power, ref_dc = ref_modulation_spectrum(x, ANALYSIS_RATE)
    assert mod_freqs.tobytes() == ref_freqs.tobytes()
    assert power.shape == ref_power.shape
    assert np.abs(power - ref_power).max() <= 1e-12 * power_scale(ref_power, ref_dc)
    assert abs(dc_energy - ref_dc) <= 1e-12 * ref_dc


def power_scale(power: np.ndarray, dc_energy: float) -> float:
    """The size of the rounding error a modulation spectrum may carry.

    An envelope rounds to its own size, about sqrt(dc_energy) over the
    frames, and mean removal keeps that error while it cancels the rest. So
    the power of a nearly unmodulated envelope, far below its DC energy,
    rounds to sqrt(peak * dc_energy), not to its peak; it is floored at the
    1e-10 of the DC energy that the modulation measures floor their ratios
    with.
    """
    peak = power.max()
    return max(np.sqrt(peak * max(peak, dc_energy)), 1e-10 * dc_energy)


@pytest.mark.parametrize("n", [16000, 17650])
def test_nyquist_tone_is_in_no_band(n):
    """(-1)**k is all Nyquist bin: rfftfreq reads it as 8000.0 Hz at n 16000
    but 7999.999999999999 Hz at n 17650, and neither length lets it into the
    top band, which ends at 7.9 kHz."""
    x = (-1.0) ** np.arange(n)
    _, _, dc_energy = modulation_spectrum(x)
    assert dc_energy < 1e-20


def analytic_band_v1(spec, freqs, lo, hi, n):
    """``quality._analytic_band`` before version 2 of ``gne``: every bin in
    the band doubled, the DC bin too."""
    full = np.zeros(n, dtype=complex)
    idx = np.flatnonzero((freqs >= lo) & (freqs < hi))
    full[idx] = 2.0 * spec[idx]
    return np.abs(np.fft.ifft(full))


@pytest.mark.parametrize("band", [(0.0, 1000.0), (300.0, 1300.0)])
def test_band_envelope_is_the_analytic_signals(band):
    """A band of noise with a DC offset: its envelope is the magnitude of
    ``scipy.signal.hilbert`` of the real band signal, DC bin included once."""
    fs, n = 16000, 4000
    x = np.random.default_rng(7).standard_normal(n) + 0.3
    spec = np.fft.fft(x)
    freqs = np.fft.fftfreq(n, 1.0 / fs)
    lo, hi = band
    real_band = ((np.abs(freqs) >= lo) & (np.abs(freqs) < hi)) | ((lo == 0) & (freqs == 0))
    want = np.abs(signal.hilbert(np.fft.ifft(spec * real_band).real))
    env = quality._analytic_band(spec, freqs, lo, hi, n)
    assert np.abs(env - want).max() <= 1e-12 * want.max()
    if lo == 0:  # version 1 doubled DC: its mean was 0.695, the analytic one's 0.523
        assert np.abs(analytic_band_v1(spec, freqs, lo, hi, n) - want).max() > 0.1 * want.max()


@settings(max_examples=20, deadline=None)
@given(recordings(), st.sampled_from([0.0, 0.3, -2.0]))
def test_modulation_measures_do_not_move(recording, offset):
    """The modulation bands start at 100 Hz and hold no DC bin, so counting DC
    once changes none of mser, mfp, rphm, icer and rphic: bit for bit, even
    with a DC offset."""
    x = recording + offset * np.abs(recording).max()
    now = quality.modulation_measures(x)
    with mock.patch.object(quality, "_analytic_band", analytic_band_v1):
        before = quality.modulation_measures(x)
    assert np.asarray(now).tobytes() == np.asarray(before).tobytes()
