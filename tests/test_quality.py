import numpy as np
import pytest

from phonassess.audio import Recording, frame_signal
from phonassess.errors import InsufficientSignalError
from phonassess.features.quality import (cepstral_quality, glottal_noise_excitation,
                                         modulation_measures, noise_measures,
                                         spectral_quality, temporal_quality)
from phonassess.pitch import F0Contour, estimate_f0
from phonassess.synth import add_noise_snr

from conftest import FS, am_tone, harmonic_tone


def all_voiced_contour(n_frames, f0=100.0):
    return F0Contour(times=0.0125 + 0.01 * np.arange(n_frames),
                     f0=np.full(n_frames, f0))


class TestTemporal:
    def test_zcr_analytic(self):
        x = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(FS) / FS)
        frames = frame_signal(Recording(x, FS), 25, 10)
        zcr, _, _ = temporal_quality(frames, all_voiced_contour(len(frames)))
        # 2 f / fs sign changes per sample
        assert np.allclose(np.median(zcr), 0.125, atol=0.01)

    def test_fluf_fully_voiced(self):
        x = 0.5 * np.sin(2 * np.pi * 200 * np.arange(FS) / FS)
        frames = frame_signal(Recording(x, FS), 25, 10)
        _, _, fluf = temporal_quality(frames, all_voiced_contour(len(frames)))
        assert fluf == 0.0

    def test_fluf_counting(self):
        x = np.random.default_rng(0).standard_normal(FS + 6320)
        frames = frame_signal(Recording(x, FS), 25, 10)
        n = len(frames)
        voicing = np.ones(n, dtype=bool)
        voicing[: int(0.3 * n)] = False
        contour = F0Contour(times=frames.times, f0=np.where(voicing, 100.0, 0.0))
        _, _, fluf = temporal_quality(frames, contour)
        assert fluf == pytest.approx(np.mean(~voicing), abs=1e-12)

    def test_bounds(self):
        x = np.random.default_rng(1).standard_normal(FS)
        frames = frame_signal(Recording(x, FS), 25, 10)
        zcr, hzcrr, fluf = temporal_quality(frames, all_voiced_contour(len(frames)))
        assert np.all((zcr >= 0) & (zcr <= 1))
        assert 0 <= hzcrr <= 1 and 0 <= fluf <= 1


class TestSpectral:
    def test_stationary_sine_flux_zero(self):
        x = 0.5 * np.sin(2 * np.pi * 500 * np.arange(FS) / FS)
        frames = frame_signal(Recording(x, FS), 25, 10)
        sf, _, _ = spectral_quality(frames)
        assert np.median(sf) < 1e-6

    def test_disjoint_sines_orthogonal(self):
        # alternate frames of two far tones: unit-norm spectra are orthogonal
        frame_len = 400
        t = np.arange(frame_len) / FS
        a = np.sin(2 * np.pi * 500 * t)
        b = np.sin(2 * np.pi * 4000 * t)
        x = np.concatenate([a if i % 2 == 0 else b for i in range(20)])
        frames = frame_signal(Recording(x, FS), 25, 25)
        sf, _, _ = spectral_quality(frames)
        assert np.max(sf) == pytest.approx(np.sqrt(2.0), abs=0.05)

    def test_chirp_exceeds_stationary(self):
        t = np.arange(FS) / FS
        chirp = np.sin(2 * np.pi * (300 + 800 * t) * t)
        steady = np.sin(2 * np.pi * 500 * t)
        sf_c, _, _ = spectral_quality(frame_signal(Recording(chirp, FS), 25, 10))
        sf_s, _, _ = spectral_quality(frame_signal(Recording(steady, FS), 25, 10))
        assert np.median(sf_c) > np.median(sf_s)

    def test_needs_two_frames(self):
        x = np.ones(420)
        frames = frame_signal(Recording(x, FS), 25, 10)
        with pytest.raises(InsufficientSignalError):
            spectral_quality(frames)


class TestCepstral:
    def test_pulse_train_vs_noise(self, pulse_rec, pulse_contour):
        frames = frame_signal(pulse_rec, 25, 10)
        cpp_pulse, pecm, vr = cepstral_quality(frames, pulse_contour)
        noise = np.random.default_rng(2).standard_normal(2 * FS) * 0.3
        nrec = Recording(noise, FS)
        fake = all_voiced_contour(len(frame_signal(nrec, 25, 10)))
        cpp_noise, _, _ = cepstral_quality(frame_signal(nrec, 25, 10), fake)
        assert cpp_pulse >= 15.0
        assert cpp_noise <= 5.0
        assert cpp_pulse > cpp_noise
        assert 0 <= pecm <= 1

    def test_deterministic(self, pulse_rec, pulse_contour):
        frames = frame_signal(pulse_rec, 25, 10)
        a = cepstral_quality(frames, pulse_contour)
        b = cepstral_quality(frames, pulse_contour)
        assert a == b

    def test_no_voiced_error(self):
        x = np.random.default_rng(3).standard_normal(FS)
        rec = Recording(x, FS)
        frames = frame_signal(rec, 25, 10)
        contour = F0Contour(times=frames.times, f0=np.zeros(len(frames)))
        with pytest.raises(InsufficientSignalError):
            cepstral_quality(frames, contour)


class TestNoise:
    def test_pulse_train_ceiling(self, pulse_rec, pulse_contour):
        hnr, nhr, nne, gne, spi, vti, ssd = noise_measures(pulse_rec, pulse_contour)
        assert 40.0 <= hnr <= 60.0
        assert nhr < 0.01
        assert -20.0 <= nne <= 60.0

    def test_known_snr(self):
        sig = harmonic_tone(FS, 2.0, 120.0, n_harmonics=10)
        x = add_noise_snr(sig, 10.0, np.random.default_rng(42))
        rec = Recording(x, FS)
        hnr = noise_measures(rec, estimate_f0(rec))[0]
        assert abs(hnr - 10.0) <= 2.0

    def test_monotone_in_snr(self):
        sig = harmonic_tone(FS, 2.0, 120.0, n_harmonics=10)
        values = []
        for snr in (0, 10, 20, 30):
            x = add_noise_snr(sig, snr, np.random.default_rng(42))
            rec = Recording(x, FS)
            hnr = noise_measures(rec, estimate_f0(rec))[0]
            assert abs(hnr - snr) <= 2.0
            values.append(hnr)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gne_ordering(self, pulse_rec):
        gne_pulse = glottal_noise_excitation(pulse_rec.samples, FS)
        noise = np.random.default_rng(5).standard_normal(2 * FS) * 0.3
        gne_noise = glottal_noise_excitation(noise, FS)
        assert gne_noise <= 0.5
        assert gne_pulse > gne_noise
        assert 0.0 <= gne_noise <= 1.0 and 0.0 <= gne_pulse <= 1.0

    def test_insufficient_voicing(self):
        x = np.random.default_rng(6).standard_normal(FS)
        rec = Recording(x, FS)
        contour = estimate_f0(rec)  # noise: unvoiced
        with pytest.raises(InsufficientSignalError):
            noise_measures(rec, contour)


class TestModulation:
    def test_mfp_at_3hz(self):
        rec = Recording(am_tone(FS, 2.0, 150.0, 3.0, depth=0.5), FS)
        mser, mfp, rphm, icer, rphic = modulation_measures(rec)
        assert abs(mfp - 3.0) <= 0.5

    def test_rphm_ordering(self):
        mod = Recording(am_tone(FS, 2.0, 150.0, 3.0, depth=0.5), FS)
        flat = Recording(0.4 * np.sin(2 * np.pi * 150.0 * np.arange(2 * FS) / FS), FS)
        assert modulation_measures(mod)[2] > modulation_measures(flat)[2]

    def test_deterministic(self):
        rec = Recording(am_tone(FS, 1.5, 200.0, 5.0), FS)
        assert modulation_measures(rec) == modulation_measures(rec)

    def test_too_short(self):
        rec = Recording(np.ones(FS // 2), FS)
        with pytest.raises(InsufficientSignalError):
            modulation_measures(rec)


def test_scale_invariance_hnr_cpp(pulse_rec, pulse_contour):
    scaled = Recording(0.5 * pulse_rec.samples, FS)
    scaled_contour = estimate_f0(scaled)
    a = noise_measures(pulse_rec, pulse_contour)
    b = noise_measures(scaled, scaled_contour)
    assert a[0] == pytest.approx(b[0], abs=1e-6)   # hnr
    assert a[3] == pytest.approx(b[3], rel=1e-6)   # gne
    cpp_a = cepstral_quality(frame_signal(pulse_rec, 25, 10), pulse_contour)[0]
    cpp_b = cepstral_quality(frame_signal(scaled, 25, 10), scaled_contour)[0]
    assert cpp_a == pytest.approx(cpp_b, abs=1e-6)
