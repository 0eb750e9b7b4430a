import numpy as np
import pytest
from scipy.signal import lfilter

from phonassess.audio import FRAME, HOP, frame_array
from phonassess.errors import InsufficientSignalError
from phonassess.features.articulation import estimate_formants, vowel_space_features
from phonassess.synth import pulse_train, resonator_bank

from conftest import FS


def test_single_resonance_recovery():
    # oracle: synthesis through one known resonator
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(2 * FS)
    y = resonator_bank(noise, FS, [700.0], [80.0])
    frames = frame_array(y, FRAME, HOP)
    track = estimate_formants(frames)
    assert abs(np.nanmedian(track.f1) - 700.0) <= 25.0


def test_three_resonance_recovery():
    targets = (500.0, 1500.0, 2500.0)
    src = pulse_train(FS, 2.0, 100.0)
    y = resonator_bank(src, FS, targets, (60.0, 90.0, 120.0))
    frames = frame_array(y, FRAME, HOP)
    track = estimate_formants(frames)
    for got, want in zip((np.nanmedian(track.f1), np.nanmedian(track.f2), np.nanmedian(track.f3)), targets):
        assert abs(got - want) / want < 0.05


def test_dc_input_error():
    frames = frame_array(np.full(FS, 0.5), FRAME, HOP)
    with pytest.raises(InsufficientSignalError):
        estimate_formants(frames)


def test_ordering_invariant():
    rng = np.random.default_rng(1)
    y = resonator_bank(rng.standard_normal(FS), FS, (600.0, 1400.0, 2800.0), (70.0, 90.0, 140.0))
    frames = frame_array(y, FRAME, HOP)
    track = estimate_formants(frames)
    ok = track.valid()
    assert np.all(track.f1[ok] < track.f2[ok])
    assert np.all(track.f2[ok] < track.f3[ok])
    assert np.all(track.bw1[ok] > 0)


class TestVowelSpace:
    def test_worked_example(self):
        # oracle: direct shoelace arithmetic
        vals = vowel_space_features(800, 1200, 300, 2300, 350, 800)
        assert vals["vsa"] == pytest.approx(347_500.0, abs=1e-9)
        assert vals["ln_vsa"] == pytest.approx(np.log(347_500.0), rel=1e-12)

    def test_collinear_is_error(self):
        # equal F1 for all corners makes the triangle degenerate
        with pytest.raises(ValueError):
            vowel_space_features(500, 1200, 500, 2300, 500, 800)

    def test_fcr_vai_identity(self):
        vals = vowel_space_features(850, 1250, 320, 2200, 360, 900)
        assert vals["fcr"] * vals["vai"] == pytest.approx(1.0, rel=1e-12)

    def test_relabeling_invariance(self):
        # vsa is the absolute shoelace area: any corner rotation agrees
        a = vowel_space_features(800, 1200, 300, 2300, 350, 800)["vsa"]
        b = 0.5 * abs(800 * (2300 - 800) + 300 * (800 - 1200) + 350 * (1200 - 2300))
        assert a == pytest.approx(b, rel=1e-12)

    def test_scaling_property(self):
        base = vowel_space_features(800, 1200, 300, 2300, 350, 800)
        scaled = vowel_space_features(1600, 2400, 600, 4600, 700, 1600)
        assert scaled["vsa"] == pytest.approx(4 * base["vsa"], rel=1e-12)
        for key in ("fcr", "vai", "f2i_f2u"):
            assert scaled[key] == pytest.approx(base[key], rel=1e-12)

    def test_nonpositive_error(self):
        with pytest.raises(ValueError):
            vowel_space_features(800, 1200, -1, 2300, 350, 800)
