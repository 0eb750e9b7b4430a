import sys

# phonassess pins BLAS to one thread, as on the command line; the pin takes
# effect only if it runs before numpy is first imported
if "numpy" in sys.modules and "phonassess" not in sys.modules:
    raise RuntimeError("numpy was imported before phonassess could pin BLAS to one thread")
import phonassess  # noqa: F401

import numpy as np
import pytest

from phonassess.audio import Recording
from phonassess.pitch import estimate_f0
from phonassess.synth import pulse_train, synth_vowel

FS = 16000


@pytest.fixture(scope="session")
def fs():
    return FS


@pytest.fixture(scope="session")
def pulse_rec():
    """Clean 100 Hz pulse train, 2 s at 16 kHz."""
    return Recording(pulse_train(FS, 2.0, 100.0), FS)


@pytest.fixture(scope="session")
def pulse_contour(pulse_rec):
    return estimate_f0(pulse_rec)


@pytest.fixture(scope="session")
def vowel_rec():
    return Recording(synth_vowel(fs=FS, seed=11), FS)


@pytest.fixture(scope="session")
def vowel_contour(vowel_rec):
    return estimate_f0(vowel_rec)


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
