"""Audio decoding, resampling, short-time framing and the frame-level kernels.

All downstream analysis runs on sample arrays at ANALYSIS_RATE (16 kHz); no
measure takes a rate. Decoding is bit-deterministic: the same file always
yields the same float buffer. Feature frames are FRAME (400) samples long
every HOP (160), 25 ms every 10 ms; every frame sequence carries both the
plain slices and their Hann-tapered copies. The FFT autocorrelation and the
1 s context sums shared by the feature families live here. VOWELS and TASKS
are the cohort's vowel and task tokens.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import dsp
from .errors import AudioError, InsufficientSignalError

VOWELS = ("a", "e", "i", "o", "u")
TASKS = ("s", "l", "ll", "ls")
ANALYSIS_RATE = 16_000
FRAME_MS = 25.0
HOP_MS = 10.0
FRAME = int(round(FRAME_MS * ANALYSIS_RATE / 1000.0))
HOP = int(round(HOP_MS * ANALYSIS_RATE / 1000.0))

# WAVE format tags; WAVE_FORMAT_EXTENSIBLE names one of the first two in the
# first four bytes of its sub-format GUID, whose other twelve bytes are these
WAVE_PCM, WAVE_FLOAT, WAVE_EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
# Integer PCM is scaled by the full-scale divisor of its container (asymmetric
# full scale accepted), so golden files are stable across platforms; 24-bit
# samples sit in the top three bytes of a 32-bit container, as scipy reads them.
_PCM_SCALE = {2: 32768.0, 3: 2147483648.0, 4: 2147483648.0}


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


@dataclass
class FrameSequence:
    """Short-time frames of a signal at ANALYSIS_RATE.

    ``frames`` holds the Hann-tapered frames, ``raw`` the same slices before
    the taper (some measures, e.g. energy, TKEO and the pitch tracker, are
    defined on the plain waveform). Frame count is
    floor((N - frame_length) / hop) + 1; ``times`` are the frame centres in
    seconds, derived from hop and frame_length.
    """

    frames: np.ndarray
    raw: np.ndarray
    frame_length: int
    hop: int

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def times(self) -> np.ndarray:
        starts = np.arange(self.frames.shape[0]) * self.hop
        return (starts + self.frame_length / 2) / ANALYSIS_RATE


def load_recording(path) -> Recording:
    """Decode a WAV file into a mono Recording in [-1, 1].

    Accepted: RIFF (little-endian), RIFX (big-endian) and RF64 files holding
    8-bit unsigned, 16-, 24- or 32-bit signed PCM or 32-/64-bit IEEE float
    samples, in a plain or WAVE_FORMAT_EXTENSIBLE fmt chunk; other chunks are
    skipped, odd-sized ones with their pad byte. A data chunk cut short by the
    end of the file yields the whole samples it holds, as scipy.io.wavfile
    reads it. Stereo input is averaged to mono. Anything else, samples that
    do not fill whole frames, a 24-bit sample cut in two, or a non-finite
    sample raises AudioError naming the file. Peak normalization, if wanted, is
    ``extract_recording(peak_normalize=True)``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise AudioError(f"cannot read audio file {path}: {exc.strerror}") from exc
    fs, x = _WavBytes(raw, path).decode()
    if x.size == 0:
        raise AudioError(f"zero-length audio: {path}")
    if not np.all(np.isfinite(x)):
        raise AudioError(f"non-finite samples in {path}")
    if x.ndim == 2:  # average channels
        x = x.mean(axis=1)
    return Recording(samples=x, fs=fs)


class _WavBytes:
    """The bytes of one WAV file, decoded chunk by chunk."""

    def __init__(self, raw: bytes, path: Path):
        self.raw, self.path, self.endian = raw, path, "<"

    def fail(self, reason: str) -> AudioError:
        return AudioError(f"cannot decode {self.path}: {reason}")

    def fields(self, layout: str, at: int) -> tuple:
        if at + struct.calcsize(layout) > len(self.raw):
            raise self.fail("file ends inside a header")
        return struct.unpack_from(self.endian + layout, self.raw, at)

    def decode(self) -> tuple[int, np.ndarray]:
        """(rate, float64 samples with one column per channel if more than one)."""
        raw = self.raw
        form = raw[:4]
        if form not in (b"RIFF", b"RIFX", b"RF64") or raw[8:12] != b"WAVE":
            raise self.fail("not a RIFF, RIFX or RF64 WAVE file")
        self.endian = ">" if form == b"RIFX" else "<"
        end, pos, rf64_data_size = self.fields("I", 4)[0] + 8, 12, None
        if form == b"RF64":
            if raw[12:16] != b"ds64":
                raise self.fail("RF64 file without a ds64 chunk")
            ds64_size, riff_size, rf64_data_size = self.fields("IQQ", 16)
            end, pos = riff_size + 8, 20 + ds64_size

        fmt = x = None
        # a chunk header past the end of the file ends the chunk list: the
        # RIFF size a streaming recorder writes may overstate the file
        while pos < end and pos + 8 <= len(raw):
            chunk_id, (size,) = raw[pos:pos + 4], self.fields("I", pos + 4)
            body = pos + 8
            if chunk_id == b"fmt ":
                fmt = self.format(size, body)
            elif chunk_id == b"data":
                if fmt is None:
                    raise self.fail("data chunk before the fmt chunk")
                if rf64_data_size is not None:
                    size = rf64_data_size
                x = self.samples(body, size, *fmt[1:])
            pos = body + size + size % 2
        if x is None:
            raise self.fail("no data chunk")
        return fmt[0], x

    def format(self, size: int, body: int) -> tuple[int, int, int, int, int]:
        """(rate, format tag, channels, bytes per sample, bits per sample) of a fmt chunk."""
        if size < 16:
            raise self.fail(f"fmt chunk of {size} bytes")
        tag, channels, fs, byte_rate, block_align, bits = self.fields("HHIIHH", body)
        if tag == WAVE_EXTENSIBLE and size >= 18:
            if self.fields("H", body + 16)[0] < 22 or size < 40:
                raise self.fail("WAVE_FORMAT_EXTENSIBLE fmt chunk without its sub-format")
            guid = self.raw[body + 24 : body + 40]
            if guid.endswith(_GUID_TAIL[self.endian]):
                tag = self.fields("I", body + 24)[0]
        if tag not in (WAVE_PCM, WAVE_FLOAT):
            raise self.fail(f"format tag {tag:#06x}; only PCM and IEEE float are read")
        if fs == 0:
            raise self.fail("sample rate 0")
        if channels == 0 or block_align < channels:
            raise self.fail(f"{channels} channels in blocks of {block_align} bytes")
        if tag == WAVE_PCM and byte_rate != fs * block_align:
            raise self.fail(f"byte rate {byte_rate} is not rate {fs} x block align {block_align}")
        return fs, tag, channels, block_align // channels, bits

    def samples(self, body: int, size: int, tag: int, channels: int, width: int,
                bits: int) -> np.ndarray:
        """A data chunk's samples as float64, one column per channel if more than one."""
        # a recording cut off mid-write declares more data than the file holds;
        # the samples present are read, as scipy.io.wavfile reads them
        size = min(size, len(self.raw) - body)
        count = size // width
        if tag == WAVE_FLOAT:
            kind, known = "f", bits in (32, 64) and width in (4, 8)
        elif 1 <= bits <= 8:
            kind, known = "u", width == 1
        else:
            kind, known = "i", bits <= 64 and width in _PCM_SCALE
        if not known:
            raise self.fail(f"unsupported sample encoding: {bits}-bit "
                            f"{'float' if tag == WAVE_FLOAT else 'PCM'} in {width}-byte samples")
        if count % channels or (width == 3 and size % 3):
            raise self.fail(f"data chunk of {size} bytes does not hold whole frames")
        if width == 3:  # into the top three bytes of a 32-bit container
            wide = np.zeros((count, 4), dtype=np.uint8)
            top = slice(1, 4) if self.endian == "<" else slice(0, 3)
            wide[:, top] = np.frombuffer(self.raw, np.uint8, size, body).reshape(count, 3)
            data = wide.view(self.endian + "i4")[:, 0]
        else:
            data = np.frombuffer(self.raw, f"{self.endian}{kind}{width}", count, body)
        if kind == "u":
            x = (data.astype(np.float64) - 128.0) / 128.0
        elif kind == "i":
            x = data.astype(np.float64) / _PCM_SCALE[width]
        else:
            x = data.astype(np.float64)
        return x.reshape(-1, channels) if channels > 1 else x


def write_wav(path, samples: np.ndarray, fs: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM."""
    from scipy.io import wavfile

    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype(np.int16)
    wavfile.write(str(path), fs, pcm)


def resample(rec: Recording) -> np.ndarray:
    """The samples at ANALYSIS_RATE, by a windowed-sinc polyphase filter
    (kaiser, ~90 dB); a recording already at that rate is copied unchanged."""
    ratio = Fraction(ANALYSIS_RATE, int(rec.fs))
    return dsp.resample_poly(rec.samples, ratio.numerator, ratio.denominator, beta=9.0)


def frame_array(x: np.ndarray, frame_length: int, hop: int) -> FrameSequence:
    """Slice a sample array into frames of frame_length samples every hop."""
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
    )


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Linear autocorrelation along the last axis, lags 0 .. n-1.

    Zero-padded FFT of length 2^ceil(log2(2n)), so no circular wrap-around.
    """
    n = x.shape[-1]
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, nfft)
    return np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[..., :n]


def context_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum, frame count) of each HOP-spaced frame value's centred 1 s context,
    cut at the edges.

    Callers form the context mean as sum / count themselves, so each keeps
    its own rounding order (1.5 * sum / count is not 1.5 * (sum / count)).
    """
    half = ANALYSIS_RATE // HOP // 2  # 50 frames each side
    n = len(values)
    cums = np.concatenate(([0.0], np.cumsum(values)))
    i = np.arange(n)
    a = np.maximum(0, i - half)
    b = np.minimum(n, i + half + 1)
    return cums[b] - cums[a], b - a
