import sys

# phonassess pins BLAS to one thread, as on the command line; the pin takes
# effect only if it runs before numpy is first imported
if "numpy" in sys.modules and "phonassess" not in sys.modules:
    raise RuntimeError("numpy was imported before phonassess could pin BLAS to one thread")
import phonassess  # noqa: F401

import numpy as np
import pytest

from phonassess.pitch import estimate_f0
from phonassess.synth import pulse_train, synth_vowel

FS = 16000


@pytest.fixture(scope="session")
def fs():
    return FS


@pytest.fixture(scope="session")
def pulse_x():
    """Clean 100 Hz pulse train, 2 s at 16 kHz."""
    return pulse_train(FS, 2.0, 100.0)


@pytest.fixture(scope="session")
def pulse_contour(pulse_x):
    return estimate_f0(pulse_x)


@pytest.fixture(scope="session")
def vowel_x():
    """Synthetic vowel, 2 s at 16 kHz."""
    return synth_vowel(fs=FS, seed=11)


@pytest.fixture(scope="session")
def vowel_contour(vowel_x):
    return estimate_f0(vowel_x)


def alternating_pulse_train(fs, duration, p1, p2, a1=1.0, a2=1.0, width=0.001):
    """Pulses at exactly alternating periods/amplitudes (test construction)."""
    n = int(fs * duration)
    x = np.zeros(n)
    w = max(1, int(width * fs))
    pos = 0.0
    k = 0
    while pos < n - w:
        i = int(round(pos))
        x[i : i + w] = a1 if k % 2 == 0 else a2
        pos += (p1 if k % 2 == 0 else p2) * fs
        k += 1
    return x


def duty_train(fs, duration, f0=100.0, duty=0.3):
    """Rectangular train with a fixed open fraction per cycle."""
    t = np.arange(int(fs * duration)) / fs
    return np.where((t * f0) % 1.0 < duty, 1.0, 0.0)


def harmonic_tone(fs, duration, f0, n_harmonics=8):
    """Sum of the first n_harmonics harmonics of f0, the k-th at amplitude 1/k,
    normalized to 0.5 peak."""
    t = np.arange(int(fs * duration)) / fs
    x = sum(np.sin(2 * np.pi * f0 * (h + 1) * t) / (h + 1) for h in range(n_harmonics))
    return 0.5 * x / np.max(np.abs(x))


def am_tone(fs, duration, fc, fm, depth=0.5):
    """Carrier fc at 0.4 amplitude, amplitude-modulated at fm with the given depth."""
    t = np.arange(int(fs * duration)) / fs
    return (1.0 + depth * np.sin(2 * np.pi * fm * t)) * 0.4 * np.sin(2 * np.pi * fc * t)
