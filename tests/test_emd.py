import numpy as np
import pytest

from phonassess.audio import FRAME, HOP, frame_array
from phonassess.errors import InsufficientSignalError
from phonassess.features import emd as emd_module, quality
from phonassess.features.emd import emd, imf1_cpp, imf_features
from phonassess.features.quality import cepstral_quality
from phonassess.pitch import estimate_f0
from phonassess.synth import add_noise_snr

from conftest import FS


def test_single_sine():
    t = np.arange(2 * FS) / FS
    x = np.sin(2 * np.pi * 100 * t)
    modes = emd(x)
    assert len(modes) >= 1
    rho = np.corrcoef(modes.imfs[0], x)[0, 1]
    assert rho >= 0.99
    resid_rms = np.sqrt(np.mean(modes.residual**2))
    assert resid_rms <= 0.01 * np.sqrt(np.mean(x**2))


def test_two_tone_separation():
    t = np.arange(2 * FS) / FS
    hi = np.sin(2 * np.pi * 500 * t)
    lo = np.sin(2 * np.pi * 50 * t)
    modes = emd(hi + lo)
    assert len(modes) >= 2
    assert abs(np.corrcoef(modes.imfs[0], hi)[0, 1]) >= 0.95
    assert abs(np.corrcoef(modes.imfs[1], lo)[0, 1]) >= 0.95


def test_reconstruction_identity_random():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = rng.integers(2000, 8000)
        kind = trial % 3
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:
            t = np.arange(n) / FS
            x = np.sin(2 * np.pi * rng.uniform(50, 400) * t) + 0.3 * rng.standard_normal(n)
        else:
            t = np.arange(n) / FS
            x = (np.sin(2 * np.pi * rng.uniform(50, 150) * t)
                 + np.sin(2 * np.pi * rng.uniform(300, 900) * t))
        modes = emd(x)
        err = np.sqrt(np.mean((np.sum(modes.imfs, axis=0) + modes.residual - x) ** 2))
        assert err <= 1e-8, f"trial {trial}: rms {err}"


def test_imf_oscillation_property():
    # extrema and zero-crossing counts differ by at most 1 for the modes that
    # carry signal energy (the capped sift cannot always balance the
    # negligible artifact tail; see _count_balance in the sift stop)
    t = np.arange(FS) / FS
    x = np.sin(2 * np.pi * 80 * t) + np.sin(2 * np.pi * 400 * t)
    modes = emd(x)
    rms_x = np.sqrt(np.mean(x**2))
    checked = 0
    for imf in modes.imfs:
        if np.sqrt(np.mean(imf**2)) < 0.1 * rms_x:
            continue
        sign = imf >= 0
        zc = int(np.sum(sign[1:] != sign[:-1]))
        d = np.diff(imf)
        nz = d[d != 0]
        ext = int(np.sum(np.sign(nz[1:]) != np.sign(nz[:-1])))
        assert abs(ext - zc) <= 1
        checked += 1
    assert checked >= 2


def test_max_imfs_monotone(monkeypatch):
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4000)
    monkeypatch.setattr(emd_module, "MAX_IMFS", 3)
    few = emd(x)
    monkeypatch.setattr(emd_module, "MAX_IMFS", 6)
    many = emd(x)
    assert len(few) == 3
    for a, b in zip(few.imfs, many.imfs):
        assert np.array_equal(a, b)


def test_no_oscillation_error():
    with pytest.raises(InsufficientSignalError):
        emd(np.linspace(0, 1, 1000))


class TestImfFeatures:
    def make(self, snr):
        t = np.arange(2 * FS) / FS
        x = np.sin(2 * np.pi * 120 * t)
        x = add_noise_snr(x, snr, np.random.default_rng(10))
        return imf_features(emd(x), {})

    def test_snr_ordering(self):
        clean = self.make(40.0)
        noisy = self.make(0.0)
        assert clean["imf_snr_tkeo"] > noisy["imf_snr_tkeo"]
        assert clean["imf_snr_seo"] > noisy["imf_snr_seo"]

    def test_nsr_inverse_identity(self):
        feats = self.make(20.0)
        for key in ("tkeo", "seo", "se", "re"):
            assert feats[f"imf_nsr_{key}"] == pytest.approx(1.0 / feats[f"imf_snr_{key}"], rel=1e-9)

    def test_needs_two_imfs(self):
        t = np.arange(FS) / FS
        x = np.sin(2 * np.pi * 100 * t)
        modes = emd(x)
        if len(modes) < 2:
            with pytest.raises(InsufficientSignalError):
                imf_features(modes, {})

    def test_cpp_delegation_identity(self):
        t = np.arange(2 * FS) / FS
        x = np.sin(2 * np.pi * 120 * t) + 0.2 * np.sin(2 * np.pi * 700 * t)
        modes = emd(x)
        imf1 = modes.imfs[0]
        expected = imf1_cpp(imf1)
        contour = estimate_f0(imf1)
        if np.any(contour.voicing):
            direct = cepstral_quality(frame_array(imf1, FRAME, HOP), contour)[0]
            assert expected == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("measure", ["glottal_noise_excitation", "cepstral_quality"])
def test_imf_measure_bug_is_not_a_nan(monkeypatch, measure):
    """Only signal-level failures read as NaN; a programming error propagates."""
    def broken(*args):
        raise TypeError("broken measure")

    t = np.arange(2 * FS) / FS
    modes = emd(np.sin(2 * np.pi * 120 * t) + 0.2 * np.sin(2 * np.pi * 700 * t))
    monkeypatch.setattr(quality, measure, broken)
    with pytest.raises(TypeError):
        imf_features(modes, {})
