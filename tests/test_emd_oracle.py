"""``emd.emd`` against the loop it replaced, which searched every residual
for extrema before sifting it.

``ref_emd`` is that loop, verbatim. ``_sift``'s first iteration searches the
same array and returns None when it lacks 2 maxima or 2 minima, which any
array with fewer than 4 extrema does, so dropping the loop's own search must
leave every IMF and the residual bitwise as they were.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonassess.errors import InsufficientSignalError
from phonassess.features import emd as emd_module
from phonassess.features.emd import MAX_IMFS, ImfSet, _extrema, _sift, emd
from phonassess.synth import synth_vowel


def ref_emd(samples: np.ndarray) -> ImfSet:
    """Decompose a signal into intrinsic mode functions plus a residual."""
    x = np.asarray(samples, dtype=np.float64)
    maxima, minima = _extrema(x)
    if len(maxima) + len(minima) < 4:
        raise InsufficientSignalError("signal has fewer than 4 extrema")
    imfs: list[np.ndarray] = []
    residual = x.copy()
    while len(imfs) < MAX_IMFS:
        maxima, minima = _extrema(residual)
        if len(maxima) + len(minima) < 4:
            break
        imf = _sift(residual)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
    return ImfSet(imfs=imfs, residual=residual)


def assert_same_bits(x):
    try:
        want = ref_emd(x)
    except InsufficientSignalError:
        with pytest.raises(InsufficientSignalError):
            emd(x)
        return
    got = emd(x)
    assert len(got) == len(want)
    for a, b in zip(got.imfs + [got.residual], want.imfs + [want.residual]):
        assert a.tobytes() == b.tobytes()


NOISY_VOWEL = dict(seed=3, snr_db=10, jitter_pct=3)


def test_noisy_vowel_matches_reference_with_fewer_extrema_searches(monkeypatch):
    x = synth_vowel(**NOISY_VOWEL)
    assert_same_bits(x)
    calls = []
    monkeypatch.setattr(emd_module, "_extrema", lambda a: calls.append(1) or _extrema(a))
    modes = emd(x)
    # one search of the input, then one per sift iteration over its 10 modes
    assert len(modes) == MAX_IMFS and len(calls) == 63


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 600),
       st.sampled_from(["noise", "tones", "steps", "trend"]))
def test_random_signals_match_reference(seed, n, kind):
    """Short and plateau-heavy signals run out of extrema before MAX_IMFS modes."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000
    if kind == "noise":
        x = rng.standard_normal(n)
    elif kind == "tones":
        x = (np.sin(2 * np.pi * rng.uniform(20, 3000) * t)
             + 0.5 * np.sin(2 * np.pi * rng.uniform(20, 300) * t))
    elif kind == "steps":  # few values: flat runs everywhere
        x = np.round(rng.standard_normal(n))
    else:  # a slope with a little wiggle: few extrema after the first mode
        x = 50.0 * t + 0.01 * np.sin(2 * np.pi * rng.uniform(100, 2000) * t)
    assert_same_bits(x)
