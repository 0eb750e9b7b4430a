import re

import numpy as np
import pytest

from phonassess.errors import PhonassessError
from phonassess.features import articulation
from phonassess.features.registry import REGISTRY, column_names, per_vowel_width
from phonassess.manifest import CohortManifest, SubjectRow
from phonassess.table import (CROSS_VOWEL_NAMES, FeatureMatrix, build_matrix, parse_scope,
                              summarize, summarize_features)


class TestSummarize:
    def test_small_example(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["median"] == 2.0
        assert stats["std"] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-9)  # population
        assert stats["ir"] == pytest.approx(stats["p99"] - stats["p1"], abs=0)

    def test_constant(self):
        stats = summarize([5.0] * 10)
        assert stats["std"] == 0.0
        assert stats["ir"] == 0.0

    def test_uniform_order_statistics(self):
        # oracle: order statistics of uniform(0, 1)
        x = np.random.default_rng(30).uniform(0, 1, 10_000)
        stats = summarize(x)
        assert abs(stats["p1"] - 0.01) < 0.005
        assert abs(stats["p99"] - 0.99) < 0.005

    def test_empty_all_missing(self):
        stats = summarize([])
        assert all(np.isnan(v) for v in stats.values())
        assert all(np.isnan(v) for v in summarize([np.nan, np.nan]).values())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(401)
        a = summarize(x)
        b = summarize(rng.permutation(x))
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-12)

    def test_shift_equivariance(self):
        x = np.random.default_rng(32).standard_normal(500)
        a = summarize(x)
        b = summarize(x + 7.5)
        for key in ("median", "p1", "p99"):
            assert b[key] == pytest.approx(a[key] + 7.5, abs=1e-9)
        for key in ("std", "ir"):
            assert b[key] == pytest.approx(a[key], abs=1e-9)


def test_registry_width_band():
    width = per_vowel_width()
    assert 300 <= width <= 400


def test_registry_names_unique():
    names = [e.name for e in REGISTRY]
    assert len(names) == len(set(names))


def fake_features(seed=0):
    """A full extraction-output dict with plausible values."""
    rng = np.random.default_rng(seed)
    feats = {}
    for e in REGISTRY:
        if e.kind == "contour":
            feats[e.name] = rng.uniform(100, 200, 7) if e.name.startswith(("f1", "f2", "f3")) \
                else rng.uniform(0, 1, 7)
        else:
            feats[e.name] = float(rng.uniform(0, 1))
    # realistic corner formants so cross-vowel features resolve
    return feats


def corner_features(vowel, seed=0):
    feats = fake_features(seed)
    corners = {"a": (800.0, 1200.0), "i": (300.0, 2300.0), "u": (350.0, 800.0),
               "e": (500.0, 1800.0), "o": (450.0, 900.0)}
    f1, f2 = corners[vowel]
    feats["f1"] = np.full(7, f1)
    feats["f2"] = np.full(7, f2)
    return feats


def small_manifest(n=3):
    rows = [SubjectRow(subject_id=f"S{i}", group="PD" if i % 2 == 0 else "HC",
                       scores={"updrs3": 10.0 + i, "duration": None, "updrs4": None,
                               "rbdsq": None, "fog": None, "nmss": None, "bdi": None,
                               "mmse": None, "acer": None, "led": None})
            for i in range(n)]
    return CohortManifest(rows=rows)


def extraction_for(manifest, vowels=("a", "e", "i", "o", "u"), task="s"):
    out = {}
    for k, row in enumerate(manifest.rows):
        for v in vowels:
            out[(row.subject_id, v, task)] = corner_features(v, seed=hash((k, v)) % 2**32)
    return out


class TestBuildMatrix:
    def test_single_vowel_shape(self):
        manifest = small_manifest()
        matrix = build_matrix(manifest, extraction_for(manifest), "e_s")
        assert len(matrix.subject_ids) == 3
        assert len(matrix.columns) == per_vowel_width()
        assert 300 <= len(matrix.columns) <= 400
        assert not any(c.startswith("e_") for c in matrix.columns)

    def test_all_scope_concatenation(self):
        manifest = small_manifest()
        matrix = build_matrix(manifest, extraction_for(manifest), "all_s")
        base = len(column_names(include_cross_vowel=False))
        assert len(matrix.columns) == 5 * base + len(CROSS_VOWEL_NAMES)
        assert sum(c == "vsa" for c in matrix.columns) == 1  # deduplicated

    def test_cross_vowel_values_present(self):
        manifest = small_manifest()
        matrix = build_matrix(manifest, extraction_for(manifest), "a_s")
        vsa = matrix.values[:, matrix.columns.index("vsa")]
        assert np.all(np.isfinite(vsa))
        expected = 0.5 * abs(300 * (1200 - 800) + 800 * (800 - 2300) + 350 * (2300 - 1200))
        assert vsa[0] == pytest.approx(expected, rel=1e-9)

    def test_missing_recording_keeps_row(self):
        manifest = small_manifest()
        extracted = extraction_for(manifest)
        del extracted[("S1", "e", "s")]
        matrix = build_matrix(manifest, extracted, "e_s")
        assert len(matrix.subject_ids) == 3
        row = matrix.values[1]
        assert np.isnan(row[matrix.columns.index("zcr_median")])

    def test_cross_vowel_bug_propagates(self, monkeypatch):
        """Only a missing corner vowel or unusable formants read as NaN indices."""
        def broken(*args):
            raise TypeError("broken measure")

        monkeypatch.setattr(articulation, "vowel_space_features", broken)
        manifest = small_manifest()
        with pytest.raises(TypeError):
            build_matrix(manifest, extraction_for(manifest), "a_s")

    def test_csv_deterministic_roundtrip(self, tmp_path):
        manifest = small_manifest()
        matrix = build_matrix(manifest, extraction_for(manifest), "a_s")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        matrix.to_csv(p1)
        matrix.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = FeatureMatrix.from_csv(p1, scope="a_s")
        assert back.columns == matrix.columns
        assert np.allclose(back.values, matrix.values, equal_nan=True)
        assert back.groups == matrix.groups
        assert np.allclose(back.scores["updrs3"], matrix.scores["updrs3"], equal_nan=True)


@pytest.mark.parametrize("text, where", [
    ("", "line 1"),
    ("subject_id\nS1\n", "line 1"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,0.5,1\nS2,HC,abc,0.5,1\n", "line 3, column updrs3"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,abc,1\n", "line 2, column c0"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,0.5\n", "line 2: 4 cells"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,0.5,1,7\n", "line 2: 6 cells"),
], ids=["empty", "short_header", "bad_score", "bad_value", "short_row", "long_row"])
def test_malformed_csv_is_a_data_error_naming_its_place(tmp_path, text, where):
    path = tmp_path / "features_a_s.csv"
    path.write_text(text)
    with pytest.raises(PhonassessError, match=re.escape(f"{path}, {where}")):
        FeatureMatrix.from_csv(path, scope="a_s")


def test_header_only_csv_is_an_empty_matrix(tmp_path):
    path = tmp_path / "features_a_s.csv"
    path.write_text("subject_id,group,updrs3,c0,c1\n")
    matrix = FeatureMatrix.from_csv(path, scope="a_s")
    assert matrix.values.shape == (0, 2) and matrix.columns == ["c0", "c1"]


def test_parse_scope():
    assert parse_scope("a_s") == ("a", "s")
    assert parse_scope("all_ls") == ("all", "ls")
    assert parse_scope("e_ll") == ("e", "ll")
    with pytest.raises(Exception):
        parse_scope("x_s")
    with pytest.raises(Exception):
        parse_scope("bogus")


def test_summarize_features_column_alignment():
    feats = fake_features()
    cols = summarize_features(feats)
    assert list(cols.keys()) == column_names(include_cross_vowel=True)
