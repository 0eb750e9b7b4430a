import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phonassess.audio import FRAME, HOP, frame_array
from phonassess.errors import InsufficientSignalError
from phonassess.features.quality import (cepstral_quality, glottal_noise_excitation,
                                         harmonicity_r, modulation_measures, noise_measures,
                                         spectral_quality, temporal_quality)
from phonassess.pitch import F0_MAX, F0_MIN, F0Contour, estimate_f0
from phonassess.synth import add_noise_snr, pulse_train

from conftest import FS, am_tone, harmonic_tone


def all_voiced_contour(n_frames, f0=100.0):
    return F0Contour(times=0.0125 + 0.01 * np.arange(n_frames),
                     f0=np.full(n_frames, f0))


class TestTemporal:
    def test_zcr_analytic(self):
        x = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(FS) / FS)
        frames = frame_array(x, FRAME, HOP)
        zcr, _, _ = temporal_quality(frames, all_voiced_contour(len(frames)))
        # 2 f / fs sign changes per sample
        assert np.allclose(np.median(zcr), 0.125, atol=0.01)

    def test_fluf_fully_voiced(self):
        x = 0.5 * np.sin(2 * np.pi * 200 * np.arange(FS) / FS)
        frames = frame_array(x, FRAME, HOP)
        _, _, fluf = temporal_quality(frames, all_voiced_contour(len(frames)))
        assert fluf == 0.0

    def test_fluf_counting(self):
        x = np.random.default_rng(0).standard_normal(FS + 6320)
        frames = frame_array(x, FRAME, HOP)
        n = len(frames)
        voicing = np.ones(n, dtype=bool)
        voicing[: int(0.3 * n)] = False
        contour = F0Contour(times=frames.times, f0=np.where(voicing, 100.0, 0.0))
        _, _, fluf = temporal_quality(frames, contour)
        assert fluf == pytest.approx(np.mean(~voicing), abs=1e-12)

    def test_bounds(self):
        x = np.random.default_rng(1).standard_normal(FS)
        frames = frame_array(x, FRAME, HOP)
        zcr, hzcrr, fluf = temporal_quality(frames, all_voiced_contour(len(frames)))
        assert np.all((zcr >= 0) & (zcr <= 1))
        assert 0 <= hzcrr <= 1 and 0 <= fluf <= 1


class TestSpectral:
    def test_stationary_sine_flux_zero(self):
        x = 0.5 * np.sin(2 * np.pi * 500 * np.arange(FS) / FS)
        frames = frame_array(x, FRAME, HOP)
        sf, _, _ = spectral_quality(frames)
        assert np.median(sf) < 1e-6

    def test_disjoint_sines_orthogonal(self):
        # alternate frames of two far tones: unit-norm spectra are orthogonal
        frame_len = 400
        t = np.arange(frame_len) / FS
        a = np.sin(2 * np.pi * 500 * t)
        b = np.sin(2 * np.pi * 4000 * t)
        x = np.concatenate([a if i % 2 == 0 else b for i in range(20)])
        frames = frame_array(x, FRAME, FRAME)
        sf, _, _ = spectral_quality(frames)
        assert np.max(sf) == pytest.approx(np.sqrt(2.0), abs=0.05)

    def test_chirp_exceeds_stationary(self):
        t = np.arange(FS) / FS
        chirp = np.sin(2 * np.pi * (300 + 800 * t) * t)
        steady = np.sin(2 * np.pi * 500 * t)
        sf_c, _, _ = spectral_quality(frame_array(chirp, FRAME, HOP))
        sf_s, _, _ = spectral_quality(frame_array(steady, FRAME, HOP))
        assert np.median(sf_c) > np.median(sf_s)

    def test_needs_two_frames(self):
        x = np.ones(420)
        frames = frame_array(x, FRAME, HOP)
        with pytest.raises(InsufficientSignalError):
            spectral_quality(frames)


class TestCepstral:
    def test_pulse_train_vs_noise(self, pulse_x, pulse_contour):
        frames = frame_array(pulse_x, FRAME, HOP)
        cpp_pulse, pecm, vr = cepstral_quality(frames, pulse_contour)
        noise = np.random.default_rng(2).standard_normal(2 * FS) * 0.3
        noise_frames = frame_array(noise, FRAME, HOP)
        cpp_noise, _, _ = cepstral_quality(noise_frames, all_voiced_contour(len(noise_frames)))
        assert cpp_pulse >= 15.0
        assert cpp_noise <= 5.0
        assert cpp_pulse > cpp_noise
        assert 0 <= pecm <= 1

    def test_deterministic(self, pulse_x, pulse_contour):
        frames = frame_array(pulse_x, FRAME, HOP)
        a = cepstral_quality(frames, pulse_contour)
        b = cepstral_quality(frames, pulse_contour)
        assert a == b

    def test_no_voiced_error(self):
        x = np.random.default_rng(3).standard_normal(FS)
        frames = frame_array(x, FRAME, HOP)
        contour = F0Contour(times=frames.times, f0=np.zeros(len(frames)))
        with pytest.raises(InsufficientSignalError):
            cepstral_quality(frames, contour)


@settings(max_examples=30, deadline=None)
@given(st.floats(F0_MIN, F0_MAX), st.booleans(), st.integers(0, 2**32 - 1))
@example(F0_MIN, True, 0)
@example(F0_MAX, True, 0)
@example(F0_MIN, False, 0)
@example(F0_MAX, False, 0)
def test_pitch_windows_hold_every_tracker_f0(f0, pulses, seed):
    """Every f0 the tracker can report, 60 to 400 Hz, puts the pitch lag (40 to
    267 samples at 16 kHz) inside the cepstral quefrency window and the
    harmonicity lag window, so neither measure needs a guard for an empty
    window."""
    if pulses:
        x = pulse_train(FS, 0.5, f0)
    else:
        x = np.random.default_rng(seed).standard_normal(FS // 2)
    frames = frame_array(x, FRAME, HOP)
    contour = F0Contour(times=frames.times, f0=np.full(len(frames), f0))
    assert np.isfinite(cepstral_quality(frames, contour)).all()
    r = harmonicity_r(x, contour)
    assert len(r) > 0 and np.isfinite(r).all()


class TestNoise:
    def test_pulse_train_ceiling(self, pulse_x, pulse_contour):
        hnr, nhr, nne, gne, spi, vti, ssd = noise_measures(pulse_x, pulse_contour)
        assert 40.0 <= hnr <= 60.0
        assert nhr < 0.01
        assert -20.0 <= nne <= 60.0

    def test_known_snr(self):
        sig = harmonic_tone(FS, 2.0, 120.0, n_harmonics=10)
        x = add_noise_snr(sig, 10.0, np.random.default_rng(42))
        hnr = noise_measures(x, estimate_f0(x))[0]
        assert abs(hnr - 10.0) <= 2.0

    def test_monotone_in_snr(self):
        sig = harmonic_tone(FS, 2.0, 120.0, n_harmonics=10)
        values = []
        for snr in (0, 10, 20, 30):
            x = add_noise_snr(sig, snr, np.random.default_rng(42))
            hnr = noise_measures(x, estimate_f0(x))[0]
            assert abs(hnr - snr) <= 2.0
            values.append(hnr)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gne_ordering(self, pulse_x):
        gne_pulse = glottal_noise_excitation(pulse_x)
        noise = np.random.default_rng(5).standard_normal(2 * FS) * 0.3
        gne_noise = glottal_noise_excitation(noise)
        assert gne_noise <= 0.5
        assert gne_pulse > gne_noise
        assert 0.0 <= gne_noise <= 1.0 and 0.0 <= gne_pulse <= 1.0

    def test_gne_of_silence_raises(self):
        # a zero-energy excitation model is singular: no value, not a made-up 0
        with pytest.raises(InsufficientSignalError):
            glottal_noise_excitation(np.zeros(2000))

    def test_insufficient_voicing(self):
        x = np.random.default_rng(6).standard_normal(FS)
        contour = estimate_f0(x)  # noise: unvoiced
        with pytest.raises(InsufficientSignalError):
            noise_measures(x, contour)


class TestModulation:
    def test_mfp_at_3hz(self):
        mser, mfp, rphm, icer, rphic = modulation_measures(am_tone(FS, 2.0, 150.0, 3.0, depth=0.5))
        assert abs(mfp - 3.0) <= 0.5

    def test_rphm_ordering(self):
        mod = am_tone(FS, 2.0, 150.0, 3.0, depth=0.5)
        flat = 0.4 * np.sin(2 * np.pi * 150.0 * np.arange(2 * FS) / FS)
        assert modulation_measures(mod)[2] > modulation_measures(flat)[2]

    def test_deterministic(self):
        x = am_tone(FS, 1.5, 200.0, 5.0)
        assert modulation_measures(x) == modulation_measures(x)

    def test_too_short(self):
        x = np.ones(FS // 2)
        with pytest.raises(InsufficientSignalError):
            modulation_measures(x)


def test_scale_invariance_hnr_cpp(pulse_x, pulse_contour):
    scaled = 0.5 * pulse_x
    scaled_contour = estimate_f0(scaled)
    a = noise_measures(pulse_x, pulse_contour)
    b = noise_measures(scaled, scaled_contour)
    assert a[0] == pytest.approx(b[0], abs=1e-6)   # hnr
    assert a[3] == pytest.approx(b[3], rel=1e-6)   # gne
    cpp_a = cepstral_quality(frame_array(pulse_x, FRAME, HOP), pulse_contour)[0]
    cpp_b = cepstral_quality(frame_array(scaled, FRAME, HOP), scaled_contour)[0]
    assert cpp_a == pytest.approx(cpp_b, abs=1e-6)
