import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phonassess.audio import Recording
from phonassess.features import (articulation, emd, extract, highorder, nonlinear, phonation,
                                 quality)
from phonassess.features.extract import extract_recording
from phonassess.features.registry import REGISTRY
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
    assert next(e for e in REGISTRY if e.name == "energy").scale_invariant is False


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


def test_no_scaling_region_ce_is_missing_not_zero():
    # a 1.0 every 400 samples gives no block a correlation-entropy scaling region
    x = np.zeros(FS)
    x[::400] = 1.0
    res = extract_recording(Recording(x, FS))
    assert np.isnan(res.features["ce"]).all()
    assert res.failures["ce"] == "no block produced a value"


def test_no_block_ce_is_missing_not_zero(monkeypatch):
    # a delay too long for the entropy window gives no block a ce value
    monkeypatch.setattr(nonlinear, "fmmi", lambda x: 350)
    res = extract_recording(Recording(synth_vowel(fs=FS, seed=36, duration=1.0), FS))
    assert np.isnan(res.features["ce"]).all()
    assert res.failures["ce"] == "no block produced a value"
    assert np.isfinite(res.features["ae"]).all()


def test_no_scaling_region_cd_is_missing_not_zero():
    x = np.zeros(FS)
    x[::400] = 1.0
    res = extract_recording(Recording(x, FS))
    assert np.isnan(res.features["cd"])
    assert "cd" in res.failures
    assert np.isfinite(res.features["he"])


def test_constant_signal_template_entropies_missing_not_zero():
    res = extract_recording(Recording(np.zeros(FS), FS))
    for name in ("ae", "se_k1", "se_k8"):
        assert np.isnan(res.features[name]).all(), name
        assert res.failures[name] == "no block produced a value"


def test_constant_signal_he_lle_missing_not_made_up():
    res = extract_recording(Recording(np.zeros(FS), FS))
    for name in ("he", "lle"):
        assert np.isnan(res.features[name]), name
        assert res.failures[name] == "the measure gave no value"


# every extraction function perfbench/tracing.py wraps, on the module whose
# attribute the extractor looks up
TRACED = [
    (extract, ("resample", "estimate_f0", "detect_cycles")),
    (phonation, ("energy_features", "ppe", "jitter_features", "shimmer_features",
                 "glottal_quotient_stds")),
    (quality, ("frame_voicing", "temporal_quality", "spectral_quality", "modulation_measures",
               "cepstral_quality", "noise_measures")),
    (articulation, ("estimate_formants",)),
    (emd, ("emd", "imf_features")),
    (highorder, ("estimate_bispectrum", "bispectral_features", "bicepstral_features")),
    (nonlinear, ("fmmi", "embed", "complexity_features", "entropy_features", "katz_fd",
                 "normalized_lempel_ziv")),
]


def _counting(fn, key, counts):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def test_rows_look_measures_up_at_call_time(monkeypatch):
    """A function replaced on its module after import is the one that runs.

    ``embed`` never runs: the estimators read delay vectors from one distance
    matrix, so extraction builds no trajectory.
    """
    counts = {}
    for module, names in TRACED:
        for name in names:
            key = f"{module.__name__}.{name}"
            counts[key] = 0
            monkeypatch.setattr(module, name, _counting(getattr(module, name), key, counts))
    fs = 22050  # not the analysis rate, so resample runs too
    extract_recording(Recording(synth_vowel(fs=fs, seed=37, duration=1.0), fs))
    assert [key for key, n in counts.items() if n == 0] == ["phonassess.features.nonlinear.embed"]


@pytest.mark.parametrize("module, name, corrupt, message", [
    (phonation, "jitter_features",
     lambda out: {("jitter_locl" if k == "jitter_local" else k): v for k, v in out.items()},
     "jitter_locl"),
    (quality, "spectral_quality", lambda out: out[:-1], "shorter"),
])
def test_measure_names_must_match_row(monkeypatch, module, name, corrupt, message):
    """A misspelt dict key or a tuple one value short raises, never a silent NaN."""
    measure = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(measure(*args)))
    with pytest.raises(ValueError, match=message):
        extract_recording(Recording(synth_vowel(fs=FS, seed=36, duration=1.0), FS))


def test_registry_name_without_row_fails_import():
    # a fresh interpreter, so no half-imported extract module outlives the test
    code = ("from phonassess.features.registry import REGISTRY, FeatureEntry\n"
            "REGISTRY.append(FeatureEntry('bogus', 6, 'scalar'))\n"
            "import phonassess.features.extract\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "RuntimeError: measure table names differ" in proc.stderr
