import numpy as np
import pytest

from phonassess.audio import Recording
from phonassess.features import nonlinear
from phonassess.features.extract import extract_recording
from phonassess.features.registry import REGISTRY, entry
from phonassess.synth import synth_vowel

from conftest import FS


@pytest.fixture(scope="module")
def extraction_pair():
    """Full battery on a vowel and on its half-amplitude copy."""
    x = synth_vowel(fs=FS, seed=33)
    full = extract_recording(Recording(x, FS))
    half = extract_recording(Recording(0.5 * x, FS))
    return full, half


def test_every_registry_name_produced(extraction_pair):
    full, _ = extraction_pair
    for e in REGISTRY:
        assert e.name in full.features, e.name


def test_no_failures_on_clean_vowel(extraction_pair):
    full, _ = extraction_pair
    assert full.failures == {}


def test_contours_have_blocks(extraction_pair):
    full, _ = extraction_pair
    for e in REGISTRY:
        if e.kind != "contour" or e.cross_vowel:
            continue
        arr = np.atleast_1d(full.features[e.name])
        assert np.isfinite(arr).any(), e.name


def test_scale_invariance_flags(extraction_pair):
    """The registry's scale_invariant flag is honored by the extractor."""
    full, half = extraction_pair
    for e in REGISTRY:
        if e.cross_vowel or not e.scale_invariant:
            continue
        a = np.atleast_1d(np.asarray(full.features[e.name], dtype=np.float64))
        b = np.atleast_1d(np.asarray(half.features[e.name], dtype=np.float64))
        n = min(len(a), len(b))
        fa, fb = a[:n], b[:n]
        ok = np.isfinite(fa) & np.isfinite(fb)
        if not ok.any():
            continue
        scale = np.maximum(np.abs(fa[ok]), 1e-6)
        rel = np.abs(fa[ok] - fb[ok]) / scale
        # median over blocks: boundary atoms may flip individual blocks
        assert np.median(rel) < 1e-3, (e.name, np.median(rel))


def test_scale_dependent_features_change(extraction_pair):
    full, half = extraction_pair
    for name in ("energy", "tkeo"):
        a = np.nanmedian(np.atleast_1d(full.features[name]))
        b = np.nanmedian(np.atleast_1d(half.features[name]))
        assert b == pytest.approx(0.25 * a, rel=1e-6), name
    assert entry("energy").scale_invariant is False


def test_noise_gate_skips_edge_blocks(extraction_pair):
    """A block whose noise measures fail is skipped, not NaN-filled."""
    full, _ = extraction_pair
    hnr, cpp = full.features["hnr"], full.features["cpp"]
    assert np.isfinite(hnr).all()
    assert len(hnr) < len(cpp)


def test_first_block_has_no_bicepstral_delta(extraction_pair):
    """bcmd compares each block with the previous one; block 1 has none."""
    full, _ = extraction_pair
    assert len(full.features["bic_bcmd"]) == len(full.features["bic_bcii"]) - 1


def test_peak_normalize_removes_gain():
    x = synth_vowel(fs=FS, seed=33)
    a = extract_recording(Recording(x, FS), peak_normalize=True).features["energy"]
    b = extract_recording(Recording(0.5 * x, FS), peak_normalize=True).features["energy"]
    assert np.array_equal(a, b)


def test_determinism(extraction_pair):
    full, _ = extraction_pair
    x = synth_vowel(fs=FS, seed=33)
    again = extract_recording(Recording(x, FS))
    for e in REGISTRY:
        a = np.atleast_1d(np.asarray(full.features[e.name], dtype=np.float64))
        b = np.atleast_1d(np.asarray(again.features[e.name], dtype=np.float64))
        assert np.array_equal(a, b, equal_nan=True), e.name


def test_resamples_input():
    x = synth_vowel(fs=48000, seed=34, duration=1.5)
    res = extract_recording(Recording(x, 48000))
    f0 = np.atleast_1d(res.features["f0"])
    assert np.isfinite(f0).any()


def test_unvoiced_signal_degrades_gracefully():
    rng = np.random.default_rng(35)
    res = extract_recording(Recording(0.3 * rng.standard_normal(2 * FS), FS))
    # cycle-based features missing, spectral ones still present
    assert np.isnan(np.atleast_1d(res.features["jitter_local"])).all()
    assert "jitter_local" in res.failures
    assert np.isfinite(np.atleast_1d(res.features["zcr"])).any()
    # IMF1 of white noise has no voiced frame: its CPP is missing and says why
    assert np.isnan(res.features["imf_cpp"])
    assert "imf_cpp" in res.failures


def test_no_block_ce_is_missing_not_zero(monkeypatch):
    # a delay too long for the entropy window gives no block a ce value
    monkeypatch.setattr(nonlinear, "fmmi", lambda x: 350)
    res = extract_recording(Recording(synth_vowel(fs=FS, seed=36, duration=1.0), FS))
    assert np.isnan(res.features["ce"]).all()
    assert res.failures["ce"] == "no block produced a value"
    assert np.isfinite(res.features["ae"]).all()
