import re

import numpy as np
import pytest

from phonassess.audio import VOWELS
from phonassess.errors import PhonassessError
from phonassess.features import articulation
from phonassess.features.registry import REGISTRY, column_names, per_vowel_width
from phonassess.manifest import CohortManifest, SubjectRow
from phonassess.table import (CROSS_VOWEL_NAMES, WHOLE_TASK, FeatureMatrix, _scope_vowels,
                              build_matrix, cross_vowel_features, parse_scope, scope_recordings,
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


def raw_extraction_for(manifest, vowels=VOWELS, task="s"):
    """Extraction outputs per (subject, vowel, task), seeded per recording."""
    return {(row.subject_id, v, task): corner_features(v, seed=10 * k + VOWELS.index(v))
            for k, row in enumerate(manifest.rows) for v in vowels}


def extraction_for(manifest, vowels=VOWELS, task="s"):
    """What ``build_matrix`` reads: each recording's summary columns."""
    return {key: summarize_features(feats)
            for key, feats in raw_extraction_for(manifest, vowels, task).items()}


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


def per_scope_build_matrix(manifest, extracted, scope):
    """The builder before each recording was summarized once: it summarized
    every recording a scope reads, per scope, and placed each value through a
    column index. The oracle for ``build_matrix``: verbatim but for its
    missing-recording warning."""
    vowel_sel, task = parse_scope(scope)
    whole_task = vowel_sel == WHOLE_TASK
    vowels = _scope_vowels(vowel_sel)

    base_cols = column_names(include_cross_vowel=False)
    cross_cols = list(CROSS_VOWEL_NAMES)
    if whole_task:
        columns = [f"{v}_{c}" for v in vowels for c in base_cols] + cross_cols
    else:
        # single vowel: registry order with cross-vowel features in place
        columns = column_names(include_cross_vowel=True)

    subject_ids = [row.subject_id for row in manifest.rows]
    values = np.full((len(subject_ids), len(columns)), np.nan)
    col_index = {c: k for k, c in enumerate(columns)}

    for i, row in enumerate(manifest.rows):
        per_vowel: dict[str, dict[str, float]] = {}
        for v, t in scope_recordings(scope):
            feats = extracted.get((row.subject_id, v, t))
            if feats is not None:
                per_vowel[v] = summarize_features(feats)
        cross = cross_vowel_features(per_vowel)

        for v in vowels:
            if v not in per_vowel:
                continue
            cols = per_vowel[v]
            prefix = f"{v}_" if whole_task else ""
            for name, val in cols.items():
                key = f"{prefix}{name}"
                if key in col_index:
                    values[i, col_index[key]] = val
        for name, val in cross.items():
            if name in col_index:
                values[i, col_index[name]] = val
    return columns, values


@pytest.mark.parametrize("scope", ["a_s", "e_s", "u_s", WHOLE_TASK + "_s"])
@pytest.mark.parametrize("case", ["complete", "missing_recording", "nan_corner_f1"])
def test_build_matrix_equals_per_scope_summaries(scope, case):
    """Summarizing each recording once, then laying the columns out, gives the
    columns and the bits of summarizing per scope."""
    manifest = small_manifest(4)
    raw = raw_extraction_for(manifest)
    if case == "missing_recording":
        del raw[("S1", "e", "s")]  # a scope vowel of e_s and all_s
        del raw[("S2", "a", "s")]  # a corner: every scope's cross-vowel cells go missing
    elif case == "nan_corner_f1":
        raw[("S0", "i", "s")]["f1"] = np.full(7, np.nan)  # vowel_space_features refuses it
        raw[("S3", "u", "s")]["f1"][2] = np.nan           # one NaN frame: summaries skip it
    columns, values = per_scope_build_matrix(manifest, raw, scope)
    matrix = build_matrix(manifest, {k: summarize_features(f) for k, f in raw.items()}, scope)
    assert matrix.columns == columns
    assert np.array_equal(matrix.values, values, equal_nan=True)
    if case == "nan_corner_f1":
        assert np.isnan(matrix.values[0, matrix.columns.index("vsa")])
        assert np.isfinite(matrix.values[1:, matrix.columns.index("vsa")]).all()


@pytest.mark.parametrize("text, where", [
    ("", "line 1"),
    ("subject_id\nS1\n", "line 1"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,0.5,1\nS2,HC,abc,0.5,1\n", "line 3, column updrs3"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,abc,1\n", "line 2, column c0"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,0.5\n", "line 2: 4 cells"),
    ("subject_id,group,updrs3,c0,c1\nS1,PD,12,0.5,1,7\n", "line 2: 6 cells"),
    ("subject_id,group,updrs3,updrs3,c0,c0\nS0,PD,10,30,1.0,2.0\nS1,PD,20,40,3.0,4.0\n",
     "line 1, column updrs3"),
    ("subject_id,group,c0,c1,c0\nS0,PD,1.0,2.0,3.0\n", "line 1, column c0"),
], ids=["empty", "short_header", "bad_score", "bad_value", "short_row", "long_row",
        "repeated_score", "repeated_feature"])
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


def test_score_columns_are_read_by_name(tmp_path):
    """A score column between feature columns is still a score, not a feature."""
    path = tmp_path / "features_a_s.csv"
    path.write_text("subject_id,group,c0,updrs3,c1\nS0,PD,1.0,30,0.5\nS1,PD,2.0,40,0.7\n")
    matrix = FeatureMatrix.from_csv(path, scope="a_s")
    assert matrix.columns == ["c0", "c1"]
    assert matrix.values.tolist() == [[1.0, 0.5], [2.0, 0.7]]
    assert list(matrix.scores) == ["updrs3"]
    assert matrix.scores["updrs3"].tolist() == [30.0, 40.0]


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
