"""The in-repo signal routines against the scipy calls they replace, bit for bit.

``phonassess.dsp`` repeats scipy's welch, resample_poly and CubicSpline,
and ``audio.load_recording`` decodes WAV files itself; each must return
exactly the bits its scipy original returns (``tobytes`` equality, so signed
zeros and NaN payloads count too). A scipy whose rounding differs fails here
by name.
"""
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal
from scipy.interpolate import CubicSpline
from scipy.io import wavfile

from phonassess import dsp
from phonassess.audio import load_recording
from phonassess.errors import AudioError
from phonassess.features.emd import _extrema

ORACLE = settings(max_examples=40, deadline=None)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def signal_of(seed, n, scale=1.0):
    return np.random.default_rng(seed).standard_normal(n) * scale


# ---- welch -------------------------------------------------------------------

@pytest.mark.parametrize("nperseg", [1024, 2048])
@pytest.mark.parametrize("n", [2, 3, 1023, 1024, 1025, 2047, 2048, 2049, 16000, 32000, 32001])
def test_welch(nperseg, n):
    x = signal_of(n, n)
    freqs, pxx = signal.welch(x, fs=16000, nperseg=min(nperseg, n))
    got_freqs, got_pxx = dsp.welch(x, 16000, nperseg)
    assert same_bits(got_freqs, freqs)
    assert same_bits(got_pxx, pxx)


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40000),
       nperseg=st.sampled_from([1024, 2048]) | st.integers(2, 4096),
       fs=st.sampled_from([8000, 16000, 22050, 44100]), scale=st.sampled_from([1e-9, 1.0, 3e4]))
def test_welch_random(seed, n, nperseg, fs, scale):
    x = signal_of(seed, n, scale)
    freqs, pxx = signal.welch(x, fs=fs, nperseg=min(nperseg, n))
    got_freqs, got_pxx = dsp.welch(x, fs, nperseg)
    assert same_bits(got_freqs, freqs)
    assert same_bits(got_pxx, pxx)


# ---- resample_poly -----------------------------------------------------------

@pytest.mark.parametrize("up,down,beta", [(320, 441, 9.0), (160, 441, 9.0), (1, 16, 5.0),
                                          (1, 3, 9.0), (2, 1, 9.0)])
@pytest.mark.parametrize("n", [1, 2, 17, 1000, 32000])
def test_resample_poly(up, down, beta, n):
    x = signal_of(n, n)
    expected = signal.resample_poly(x, up, down, window=("kaiser", beta))
    assert same_bits(dsp.resample_poly(x, up, down, beta), expected)


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000), up=st.integers(1, 60),
       down=st.integers(1, 60), beta=st.sampled_from([5.0, 9.0]))
def test_resample_poly_random(seed, n, up, down, beta):
    x = signal_of(seed, n)
    expected = signal.resample_poly(x, up, down, window=("kaiser", beta))
    assert same_bits(dsp.resample_poly(x, up, down, beta), expected)


def test_resample_poly_propagates_nan_like_scipy():
    x = signal_of(0, 500)
    x[[0, 250, 499]] = [np.nan, np.inf, -np.inf]
    expected = signal.resample_poly(x, 3, 7, window=("kaiser", 9.0))
    with np.errstate(invalid="ignore"):  # inf * 0.0 taps; scipy's C loop does not warn
        assert same_bits(dsp.resample_poly(x, 3, 7, 9.0), expected)


# ---- the EMD envelope spline ---------------------------------------------------

def mirrored_knots(x, idx):
    """The knots and values emd._envelope builds: two mirrored extrema per side."""
    n = len(x)
    t = np.concatenate([-idx[:2][::-1], idx, 2 * (n - 1) - idx[-2:][::-1]])
    v = np.concatenate([x[idx[:2]][::-1], x[idx], x[idx[-2:]][::-1]])
    return t, v


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 6000), walk=st.booleans())
def test_envelope_spline_random(seed, n, walk):
    x = signal_of(seed, n)
    x = np.cumsum(x) if walk else x
    for idx in _extrema(x):
        if len(idx) < 2:
            continue
        t, v = mirrored_knots(x, idx)
        assert same_bits(dsp.envelope_spline(t, v, n), CubicSpline(t, v)(np.arange(n)))


@pytest.mark.parametrize("idx", [[1, 2], [1, 6], [3, 4, 5], [1, 8], [2, 3, 5, 7]])
def test_envelope_spline_few_knots(idx):
    x = signal_of(len(idx), 10)
    t, v = mirrored_knots(x, np.array(idx))
    assert same_bits(dsp.envelope_spline(t, v, 10), CubicSpline(t, v)(np.arange(10)))


# ---- WAV decoding --------------------------------------------------------------

def scipy_decode(path):
    """What load_recording returned when scipy.io.wavfile read the file."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        fs, data = wavfile.read(path)
    data = data.astype(data.dtype.newbyteorder("="))
    if data.dtype == np.uint8:
        x = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        x = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        x = data.astype(np.float64) / 2147483648.0
    else:
        x = data.astype(np.float64)
    return fs, x.mean(axis=1) if x.ndim == 2 else x


def assert_decodes_like_scipy(path):
    fs, x = scipy_decode(path)
    rec = load_recording(path)
    assert rec.fs == fs
    assert same_bits(rec.samples, x)


def random_samples(rng, dtype, shape):
    if np.dtype(dtype).kind == "f":
        return rng.uniform(-1, 1, shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, shape, endpoint=True).astype(dtype)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
def test_wav_written_by_scipy(tmp_path, dtype, channels):
    rng = np.random.default_rng(channels)
    data = random_samples(rng, dtype, (1001, channels))
    path = tmp_path / "x.wav"
    wavfile.write(path, 22050, data[:, 0] if channels == 1 else data)
    assert_decodes_like_scipy(path)


def chunk(chunk_id, body, endian="<"):
    return chunk_id + struct.pack(endian + "I", len(body)) + body + b"\0" * (len(body) % 2)


def fmt_body(tag, channels, fs, width, bits, endian="<", extensible_tag=None):
    block = channels * width
    body = struct.pack(endian + "HHIIHH", tag, channels, fs, fs * block, block, bits)
    if extensible_tag is not None:
        tail = (b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71" if endian == "<"
                else b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71")
        body += struct.pack(endian + "HHI", 22, bits, 0) + struct.pack(endian + "I", extensible_tag)
        body += tail
    return body


def riff(*chunks, form=b"RIFF", endian="<"):
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack(endian + "I", len(body)) + body


def pcm24(values, endian="<"):
    raw = np.asarray(values, dtype=np.int64).astype(endian + "i4").tobytes()
    words = [raw[i:i + 4] for i in range(0, len(raw), 4)]
    return b"".join(w[:3] if endian == "<" else w[1:] for w in words)


@pytest.mark.parametrize("channels", [1, 2])
def test_wav_24_bit(tmp_path, channels):
    rng = np.random.default_rng(24)
    values = rng.integers(-(2**23), 2**23, 999 * channels)
    values[:2] = [-(2**23), 2**23 - 1]
    path = tmp_path / "x.wav"
    path.write_bytes(riff(chunk(b"fmt ", fmt_body(1, channels, 48000, 3, 24)),
                          chunk(b"data", pcm24(values))))
    assert_decodes_like_scipy(path)
    assert load_recording(path).samples.min() >= -1.0


@pytest.mark.parametrize("tag,dtype,width", [(1, "<i2", 2), (1, "<i4", 4), (3, "<f4", 4),
                                             (3, "<f8", 8)])
def test_wav_extensible(tmp_path, tag, dtype, width):
    data = random_samples(np.random.default_rng(width), np.dtype(dtype).newbyteorder("="), 500)
    path = tmp_path / "x.wav"
    path.write_bytes(riff(chunk(b"fmt ", fmt_body(0xFFFE, 2, 16000, width, 8 * width,
                                                  extensible_tag=tag)),
                          chunk(b"data", data.astype(dtype).tobytes())))
    assert_decodes_like_scipy(path)


def test_wav_extensible_24_bit(tmp_path):
    values = np.random.default_rng(3).integers(-(2**23), 2**23, 400)
    path = tmp_path / "x.wav"
    path.write_bytes(riff(chunk(b"fmt ", fmt_body(0xFFFE, 1, 44100, 3, 24, extensible_tag=1)),
                          chunk(b"data", pcm24(values))))
    assert_decodes_like_scipy(path)


def test_wav_odd_sized_chunks(tmp_path):
    # odd-sized LIST and data chunks, each followed by its pad byte
    data = np.arange(1, 202, dtype=np.uint8)
    path = tmp_path / "x.wav"
    path.write_bytes(riff(chunk(b"LIST", b"INFOabc"), chunk(b"fmt ", fmt_body(1, 1, 8000, 1, 8)),
                          chunk(b"junk", b"12345"), chunk(b"data", data.tobytes()),
                          chunk(b"LIST", b"x")))
    assert_decodes_like_scipy(path)


@pytest.mark.parametrize("dtype,width,tag", [(">i2", 2, 1), (">i4", 4, 1), (">f4", 4, 3)])
def test_wav_big_endian(tmp_path, dtype, width, tag):
    data = random_samples(np.random.default_rng(5), np.dtype(dtype).newbyteorder("="), 300)
    path = tmp_path / "x.wav"
    path.write_bytes(riff(chunk(b"fmt ", fmt_body(tag, 1, 16000, width, 8 * width, ">"), ">"),
                          chunk(b"data", data.astype(dtype).tobytes(), ">"), form=b"RIFX",
                          endian=">"))
    assert_decodes_like_scipy(path)


def test_wav_big_endian_24_bit(tmp_path):
    values = np.random.default_rng(6).integers(-(2**23), 2**23, 300)
    path = tmp_path / "x.wav"
    path.write_bytes(riff(chunk(b"fmt ", fmt_body(1, 1, 16000, 3, 24, ">"), ">"),
                          chunk(b"data", pcm24(values, ">"), ">"), form=b"RIFX", endian=">"))
    assert_decodes_like_scipy(path)


def test_wav_rf64(tmp_path):
    data = random_samples(np.random.default_rng(7), np.int16, 300).tobytes()
    fmt = chunk(b"fmt ", fmt_body(1, 1, 16000, 2, 16))
    rest = fmt + b"data" + b"\xff\xff\xff\xff" + data
    ds64 = struct.pack("<QQQI", 4 + 36 + len(rest), len(data), 300, 0)
    path = tmp_path / "x.wav"
    path.write_bytes(b"RF64\xff\xff\xff\xffWAVE" + chunk(b"ds64", ds64) + rest)
    assert_decodes_like_scipy(path)


def test_wav_riff_size_past_the_end(tmp_path):
    # a streaming recorder may leave a RIFF size larger than the file
    data = np.arange(-50, 50, dtype=np.int16)
    raw = bytearray(riff(chunk(b"fmt ", fmt_body(1, 1, 16000, 2, 16)),
                         chunk(b"data", data.tobytes())))
    raw[4:8] = struct.pack("<I", 10**6)
    path = tmp_path / "x.wav"
    path.write_bytes(bytes(raw))
    assert_decodes_like_scipy(path)


def decodes_or_fails_like_scipy(path):
    try:
        fs, x = scipy_decode(path)
    except ValueError:  # what scipy raises for a file it cannot decode
        x = None
    if x is None or x.size == 0:
        with pytest.raises(AudioError, match=path.name):
            load_recording(path)
    else:
        rec = load_recording(path)
        assert rec.fs == fs
        assert same_bits(rec.samples, x)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("width,tag", [(1, 1), (2, 1), (3, 1), (4, 1), (4, 3), (8, 3)])
def test_wav_cut_in_data_decodes_like_scipy(tmp_path, width, tag, channels):
    # a recorder cut off mid-write leaves a data size larger than the file:
    # scipy returns the samples present, or fails where they are not whole frames
    rng = np.random.default_rng(width * channels)
    if width == 3:
        data = pcm24(rng.integers(-(2**23), 2**23, 40 * channels))
    else:
        kind = "f" if tag == 3 else "u" if width == 1 else "i"
        data = random_samples(rng, np.dtype(f"{kind}{width}"), 40 * channels).tobytes()
    full = riff(chunk(b"fmt ", fmt_body(tag, channels, 16000, width, 8 * width)),
                chunk(b"data", data))
    for cut in range(1, 3 * width * channels + 2):
        path = tmp_path / f"cut{cut}.wav"
        path.write_bytes(full[:-cut])
        decodes_or_fails_like_scipy(path)
    path = tmp_path / "data_header_only.wav"
    path.write_bytes(full[:-len(data)])
    decodes_or_fails_like_scipy(path)


def good_wav():
    data = np.arange(-100, 100, dtype=np.int16).tobytes()
    return riff(chunk(b"fmt ", fmt_body(1, 1, 16000, 2, 16)), chunk(b"data", data))


BAD_WAVS = {
    "empty": b"",
    "garbage": bytes(range(256)) * 4,
    "text": b"subject_id,group\nP1,PD\n" * 20,
    "header_only": good_wav()[:12],
    "cut_in_fmt": good_wav()[:30],
    "no_data_chunk": riff(chunk(b"fmt ", fmt_body(1, 1, 16000, 2, 16))),
    "data_before_fmt": riff(chunk(b"data", b"\0\0" * 10),
                            chunk(b"fmt ", fmt_body(1, 1, 16000, 2, 16))),
    "alaw": riff(chunk(b"fmt ", fmt_body(6, 1, 8000, 1, 8)), chunk(b"data", b"\x55" * 10)),
    "short_fmt": riff(chunk(b"fmt ", b"\x01\x00" * 6), chunk(b"data", b"\0\0" * 10)),
    "no_channels": riff(chunk(b"fmt ", fmt_body(1, 0, 16000, 2, 16)), chunk(b"data", b"\0\0" * 10)),
    "bad_byte_rate": riff(chunk(b"fmt ", fmt_body(1, 1, 16000, 2, 16)[:8] + struct.pack("<I", 7)
                                + fmt_body(1, 1, 16000, 2, 16)[12:]),
                          chunk(b"data", b"\0\0" * 10)),
    "float16": riff(chunk(b"fmt ", fmt_body(3, 1, 16000, 2, 16)), chunk(b"data", b"\0\0" * 10)),
    "pcm64": riff(chunk(b"fmt ", fmt_body(1, 1, 16000, 8, 64)), chunk(b"data", b"\0" * 80)),
    "half_frame": riff(chunk(b"fmt ", fmt_body(1, 2, 16000, 2, 16)), chunk(b"data", b"\0\0" * 3)),
    "zero_length": riff(chunk(b"fmt ", fmt_body(1, 1, 16000, 2, 16)), chunk(b"data", b"")),
    "nan": riff(chunk(b"fmt ", fmt_body(3, 1, 16000, 4, 32)),
                chunk(b"data", np.array([0.0, np.nan, 0.5], dtype="<f4").tobytes())),
}


@pytest.mark.parametrize("name", sorted(BAD_WAVS))
def test_bad_wav_raises_audio_error(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(BAD_WAVS[name])
    with pytest.raises(AudioError, match=name):
        load_recording(path)


@ORACLE
@given(cut=st.integers(0, 443), flip=st.integers(0, 443), byte=st.integers(0, 255))
def test_damaged_wav_decodes_or_raises_audio_error(tmp_path_factory, cut, flip, byte):
    raw = bytearray(good_wav())
    raw[flip % len(raw)] = byte
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    path.write_bytes(bytes(raw[:len(raw) - cut]))
    try:
        rec = load_recording(path)
    except AudioError as exc:
        assert str(path) in str(exc)
    else:
        assert np.all(np.isfinite(rec.samples))
