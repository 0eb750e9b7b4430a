"""Audio decoding, resampling, short-time framing and the frame-level kernels.

All downstream analysis runs at ANALYSIS_RATE (16 kHz). Decoding is
bit-deterministic: the same file always yields the same float buffer.
Feature frames are FRAME_MS (25 ms) long every HOP_MS (10 ms); every frame
sequence carries both the plain slices and their Hann-tapered copies. The
FFT autocorrelation and the 1 s context sums shared by the feature families
live here. VOWELS and TASKS are the cohort's vowel and task tokens.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import AudioError, InsufficientSignalError

VOWELS = ("a", "e", "i", "o", "u")
TASKS = ("s", "l", "ll", "ls")
ANALYSIS_RATE = 16_000
FRAME_MS = 25.0
HOP_MS = 10.0

# Integer PCM is scaled by the full-scale divisor of its width (asymmetric
# full scale accepted), so golden files are stable across platforms.
_PCM_SCALE = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}


@dataclass
class Recording:
    """Mono sample buffer with its sampling rate."""

    samples: np.ndarray
    fs: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.fs <= 0:
            raise ValueError(f"sampling rate must be positive, got {self.fs}")
        if self.samples.size == 0:
            raise AudioError("empty sample buffer")

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs


@dataclass
class FrameSequence:
    """Short-time frames of a signal.

    ``frames`` holds the Hann-tapered frames, ``raw`` the same slices before
    the taper (some measures, e.g. energy, TKEO and the pitch tracker, are
    defined on the plain waveform). Frame count is
    floor((N - frame_length) / hop) + 1.
    """

    frames: np.ndarray
    raw: np.ndarray
    frame_length: int
    hop: int
    fs: int
    times: np.ndarray = field(default=None)  # frame centers in seconds

    def __post_init__(self):
        if self.times is None:
            starts = np.arange(self.frames.shape[0]) * self.hop
            self.times = (starts + self.frame_length / 2) / self.fs

    def __len__(self) -> int:
        return self.frames.shape[0]


def load_recording(path) -> Recording:
    """Decode a PCM/float WAV file into a mono Recording in [-1, 1].

    Stereo input is averaged to mono. Peak normalization, if wanted, is
    ``extract_recording(peak_normalize=True)``.
    """
    from scipy.io import wavfile

    path = Path(path)
    if not path.exists():
        raise AudioError(f"no such audio file: {path}")
    try:
        fs, data = wavfile.read(path)
    except Exception as exc:  # noqa: BLE001 - scipy raises bare ValueError/OSError
        raise AudioError(f"cannot decode {path}: {exc}") from exc
    if data.size == 0:
        raise AudioError(f"zero-length audio: {path}")

    if data.dtype in _PCM_SCALE:
        x = data.astype(np.float64) / _PCM_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        x = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        x = data.astype(np.float64)
    else:
        raise AudioError(f"unsupported sample encoding {data.dtype} in {path}")

    if x.ndim == 2:  # average channels
        x = x.mean(axis=1)

    return Recording(samples=x, fs=int(fs))


def write_wav(path, samples: np.ndarray, fs: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM."""
    from scipy.io import wavfile

    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype(np.int16)
    wavfile.write(str(path), fs, pcm)


def resample(rec: Recording, target_fs: int) -> Recording:
    """Rate-convert with a windowed-sinc polyphase filter (kaiser, ~90 dB).

    Idempotent at the target rate: a recording already at ``target_fs`` is
    returned sample-identical.
    """
    from scipy.signal import resample_poly

    if target_fs <= 0:
        raise ValueError(f"target_fs must be positive, got {target_fs}")
    if rec.fs == target_fs:
        return Recording(rec.samples.copy(), rec.fs)
    ratio = Fraction(int(target_fs), int(rec.fs))
    y = resample_poly(rec.samples, ratio.numerator, ratio.denominator, window=("kaiser", 9.0))
    return Recording(y, target_fs)


def frame_signal(rec: Recording, frame_ms: float, hop_ms: float) -> FrameSequence:
    """Slice a recording into frames of frame_ms every hop_ms."""
    if hop_ms <= 0 or frame_ms < hop_ms:
        raise ValueError("require frame_ms >= hop_ms > 0")
    frame_length = int(round(frame_ms * rec.fs / 1000.0))
    hop = int(round(hop_ms * rec.fs / 1000.0))
    return frame_array(rec.samples, rec.fs, frame_length, hop)


def frame_array(x: np.ndarray, fs: int, frame_length: int, hop: int) -> FrameSequence:
    """frame_signal on a bare sample array (internal plumbing)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < frame_length:
        raise InsufficientSignalError(f"signal shorter than one frame ({n} < {frame_length} samples)")
    count = (n - frame_length) // hop + 1
    idx = np.arange(frame_length)[None, :] + hop * np.arange(count)[:, None]
    raw = x[idx]
    return FrameSequence(
        frames=raw * np.hanning(frame_length),
        raw=raw,
        frame_length=frame_length,
        hop=hop,
        fs=fs,
    )


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Linear autocorrelation along the last axis, lags 0 .. n-1.

    Zero-padded FFT of length 2^ceil(log2(2n)), so no circular wrap-around.
    """
    n = x.shape[-1]
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, nfft)
    return np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[..., :n]


def context_sums(values: np.ndarray, hop: int, fs: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum, frame count) of each frame value's centred 1 s context, cut at the edges.

    Callers form the context mean as sum / count themselves, so each keeps
    its own rounding order (1.5 * sum / count is not 1.5 * (sum / count)).
    """
    half = max(1, int(round(fs / hop))) // 2
    n = len(values)
    cums = np.concatenate(([0.0], np.cumsum(values)))
    i = np.arange(n)
    a = np.maximum(0, i - half)
    b = np.minimum(n, i + half + 1)
    return cums[b] - cums[a], b - a
