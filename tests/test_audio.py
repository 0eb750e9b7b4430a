import numpy as np
import pytest
from scipy.io import wavfile

from phonassess.audio import FRAME, HOP, Recording, frame_array, load_recording, resample, write_wav
from phonassess.errors import AudioError, InsufficientSignalError


def test_load_mono_zeros(tmp_path):
    path = tmp_path / "z.wav"
    wavfile.write(path, 48000, np.zeros(48000, dtype=np.int16))
    rec = load_recording(path)
    assert rec.fs == 48000
    assert len(rec.samples) == 48000
    assert np.all(rec.samples == 0.0)


def test_load_stereo_cancels(tmp_path):
    x = (np.random.default_rng(0).standard_normal(1000) * 10000).astype(np.int16)
    stereo = np.column_stack([x, -x])
    path = tmp_path / "s.wav"
    wavfile.write(path, 16000, stereo)
    rec = load_recording(path)
    assert np.allclose(rec.samples, 0.0)


def test_load_fullscale_int16(tmp_path):
    path = tmp_path / "f.wav"
    wavfile.write(path, 16000, np.full(100, 32767, dtype=np.int16))
    rec = load_recording(path)
    # oracle: the documented scaling rule value / 32768
    assert abs(rec.samples[0] - 32767.0 / 32768.0) < 1e-12
    assert abs(rec.samples[0] - 1.0) < 1e-4


def test_load_float32(tmp_path):
    path = tmp_path / "g.wav"
    wavfile.write(path, 16000, np.linspace(-0.5, 0.5, 64).astype(np.float32))
    rec = load_recording(path)
    assert abs(rec.samples[-1] - 0.5) < 1e-6


def test_load_missing_file(tmp_path):
    with pytest.raises(AudioError):
        load_recording(tmp_path / "nope.wav")


def test_load_zero_length(tmp_path):
    path = tmp_path / "e.wav"
    wavfile.write(path, 16000, np.zeros(0, dtype=np.int16))
    with pytest.raises(AudioError):
        load_recording(path)


def test_decode_deterministic(tmp_path):
    x = (np.random.default_rng(1).standard_normal(5000) * 20000).astype(np.int16)
    path = tmp_path / "d.wav"
    wavfile.write(path, 48000, x)
    a = load_recording(path)
    b = load_recording(path)
    assert np.array_equal(a.samples, b.samples)


def test_write_read_roundtrip(tmp_path):
    x = 0.25 * np.sin(2 * np.pi * 440 * np.arange(8000) / 16000)
    path = tmp_path / "w.wav"
    write_wav(path, x, 16000)
    rec = load_recording(path)
    assert np.max(np.abs(rec.samples - x)) < 1.0 / 32000


class TestResample:
    def test_three_to_one_length(self):
        rec = Recording(np.random.default_rng(0).standard_normal(48000), 48000)
        out = resample(rec)
        assert abs(len(out) - 16000) <= 1

    def test_sine_peak_preserved(self):
        # oracle: FFT peak location/amplitude of the resampled tone
        t = np.arange(96000) / 48000
        rec = Recording(0.5 * np.sin(2 * np.pi * 1000 * t), 48000)
        out = resample(rec)
        spec = np.fft.rfft(out)
        freqs = np.fft.rfftfreq(len(out), 1 / 16000)
        peak = np.argmax(np.abs(spec))
        assert abs(freqs[peak] - 1000.0) <= 2.0
        amp = 2 * np.abs(spec[peak]) / len(out)
        assert abs(amp - 0.5) / 0.5 < 0.01

    def test_dc_preserved(self):
        rec = Recording(np.full(48000, 0.37), 48000)
        out = resample(rec)
        inner = out[100:-100]  # edges carry filter transients
        assert np.allclose(inner, 0.37, atol=1e-6)

    def test_idempotent_at_target(self):
        x = np.random.default_rng(2).standard_normal(32000)
        rec = Recording(x, 16000)
        once = resample(rec)
        twice = resample(Recording(once, 16000))
        rms = np.sqrt(np.mean((once - twice) ** 2))
        assert rms < 1e-6
        assert np.array_equal(once, x)


class TestFraming:
    def test_frame_count(self):
        frames = frame_array(np.ones(16000), FRAME, HOP)
        assert len(frames) == 98  # floor((16000-400)/160) + 1

    def test_hann_taper_values(self):
        frames = frame_array(np.ones(16000), FRAME, HOP)
        n = frames.frame_length
        # closed-form symmetric Hann taper
        taper = 0.5 * (1.0 - np.cos(2 * np.pi * np.arange(n) / (n - 1)))
        assert np.allclose(frames.frames[0], taper, atol=1e-12)

    def test_reconstruction_prefix(self):
        x = np.random.default_rng(3).standard_normal(16000)
        frames = frame_array(x, FRAME, FRAME)
        joined = frames.raw.ravel()
        assert np.array_equal(joined, x[: len(joined)])

    def test_too_short(self):
        with pytest.raises(InsufficientSignalError):
            frame_array(np.ones(100), FRAME, HOP)


def test_recording_validation():
    with pytest.raises(ValueError):
        Recording(np.ones(10), 0)
    with pytest.raises(AudioError):
        Recording(np.zeros(0), 16000)
