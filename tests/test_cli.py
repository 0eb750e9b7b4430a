import argparse
import json
import logging

import numpy as np
import pytest

from phonassess import cli, table
from phonassess.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main, make_parser
from phonassess.audio import VOWELS, write_wav
from phonassess.errors import AudioError
from phonassess.evaluation import SCALES
from phonassess.manifest import load_manifest
from phonassess.synth import make_classification_cohort, make_regression_cohort
from phonassess.table import FeatureMatrix


@pytest.fixture(scope="module")
def five_vowel_extraction(tmp_path_factory):
    """Spec walkthrough: 2 subjects x 5 vowels x task s."""
    root = tmp_path_factory.mktemp("cohort5")
    manifest = make_classification_cohort(root / "cohort", n_pd=1, n_hc=1,
                                          vowels=("a", "e", "i", "o", "u"),
                                          tasks=("s",), duration=1.5, seed=2)
    out = root / "feats"
    code = main(["extract", "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def classify_extraction(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort_cls")
    manifest = make_classification_cohort(root / "cohort", n_pd=4, n_hc=4,
                                          vowels=("a",), tasks=("s",),
                                          duration=1.5, seed=3)
    out = root / "feats"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out),
                 "--scope", "a_s"]) == EXIT_OK
    return root, out


def test_extract_emits_all_matrices(five_vowel_extraction):
    out = five_vowel_extraction
    names = sorted(p.name for p in out.glob("features_*.csv"))
    expected = sorted([f"features_{v}_s.csv" for v in "aeiou"] + ["features_all_s.csv"])
    assert names == expected
    assert (out / "registry.json").exists()
    log = json.loads((out / "extraction_log.json").read_text())
    assert 300 <= log["per_vowel_width"] <= 400
    assert log["recordings_extracted"] == 10


def test_extract_matrix_contents(five_vowel_extraction):
    out = five_vowel_extraction
    single = FeatureMatrix.from_csv(out / "features_e_s.csv", scope="e_s")
    assert len(single.subject_ids) == 2
    assert 300 <= len(single.columns) <= 400
    full = FeatureMatrix.from_csv(out / "features_all_s.csv", scope="all_s")
    assert len(full.columns) > 4 * len(single.columns)
    assert sum(c == "vsa" for c in full.columns) == 1


def test_classify_separable(classify_extraction):
    root, feats = classify_extraction
    out = root / "reports"
    code = main(["classify", "--features", str(feats), "--out", str(out),
                 "--scope", "a_s", "--trees", "15", "--mrmr-k", "25",
                 "--sffs-patience", "1", "--seed", "4"])
    assert code == EXIT_OK
    rows = json.loads((out / "classification.json").read_text())
    assert rows[0]["acc"] == 100.0
    assert rows[0]["tss"] == 2.0
    header = (out / "classification.csv").read_text().splitlines()[0]
    assert header == "scope,acc,sen,spe,tss,no"
    selection = json.loads((out / "selection_group_a_s.json").read_text())
    assert selection["selected_features"] == rows[0]["selected_features"]
    assert selection["n_candidates"] == 25
    assert selection["n_evaluations"] >= selection["n_candidates"]
    assert selection["trace"][0]["action"] == "add"
    assert selection["dropped_rows"] == [] and selection["rows_without_target"] == []


def test_classify_rerun_identical(classify_extraction):
    root, feats = classify_extraction
    out1, out2 = root / "r1", root / "r2"
    args = ["classify", "--features", str(feats), "--scope", "a_s", "--trees", "10",
            "--mrmr-k", "10", "--sffs-patience", "1", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "classification.csv").read_bytes() == (out2 / "classification.csv").read_bytes()
    assert (out1 / "classification.json").read_bytes() == (out2 / "classification.json").read_bytes()
    assert ((out1 / "selection_group_a_s.json").read_bytes()
            == (out2 / "selection_group_a_s.json").read_bytes())


def test_missing_matrix_is_data_error(tmp_path):
    code = main(["classify", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--scope", "a_s"])
    assert code == EXIT_DATA


def test_bad_scope_is_config_error(classify_extraction):
    root, feats = classify_extraction
    code = main(["classify", "--features", str(feats), "--out", str(root / "x"),
                 "--scope", "zz_q"])
    assert code == EXIT_CONFIG


def test_regress_unknown_scale_is_config_error(tmp_path):
    code = main(["regress", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--target", "bogus"])
    assert code == EXIT_CONFIG


def test_config_file_and_override(tmp_path, classify_extraction):
    root, feats = classify_extraction
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"features={feats}\nscope=a_s\ntrees=10\nmrmr_k=10\nsffs_patience=1\nseed=5\n")
    out = tmp_path / "rep"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "classification.json").exists()


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


def _write_matrix(directory, groups, values):
    FeatureMatrix(scope="a_s", subject_ids=[f"S{i:02d}" for i in range(len(groups))],
                  columns=[f"c{j}" for j in range(values.shape[1])], values=values,
                  groups=groups).to_csv(directory / "features_a_s.csv")


def test_no_usable_columns_is_data_error(tmp_path):
    _write_matrix(tmp_path, ["PD", "HC"] * 4, np.ones((8, 3)))
    code = main(["classify", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--scope", "a_s"])
    assert code == EXIT_DATA


def test_inexact_constant_columns_are_not_candidates(tmp_path):
    """Twelve copies of 0.1 have a nonzero float std (1.4e-17) but no range."""
    values = np.full((12, 3), 0.1)
    values[:, 1] = np.random.default_rng(0).standard_normal(12)
    _write_matrix(tmp_path, ["PD", "HC"] * 6, values)
    assert main(["classify", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--scope", "a_s", "--trees", "3", "--mrmr-k", "3",
                 "--sffs-patience", "1"]) == EXIT_OK
    selection = json.loads((tmp_path / "selection_group_a_s.json").read_text())
    assert selection["n_candidates"] == 1
    assert selection["selected_features"] == ["c1"]


def test_failed_loo_fold_is_data_error(tmp_path):
    """With one HC subject its held-out fold cannot train a two-class forest."""
    values = np.random.default_rng(0).standard_normal((8, 3))
    _write_matrix(tmp_path, ["PD"] * 7 + ["HC"], values)
    code = main(["classify", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--scope", "a_s", "--trees", "3", "--mrmr-k", "2", "--sffs-patience", "1"])
    assert code == EXIT_DATA
    assert not (tmp_path / "classification.json").exists()


@pytest.mark.parametrize("groups, found", [
    (["PD", "HC", "X"] * 3, "HC, PD, X"),
    (["PD"] * 9, "PD"),
], ids=["third_group", "one_group"])
def test_classify_needs_exactly_pd_and_hc(tmp_path, caplog, groups, found):
    """A third group is not scored PD-vs-rest: its rows are no true negatives."""
    _write_matrix(tmp_path, groups, np.random.default_rng(0).standard_normal((9, 2)))
    code = main(["classify", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--scope", "a_s", "--trees", "3", "--mrmr-k", "2", "--sffs-patience", "1"])
    assert code == EXIT_DATA
    assert f"scope a_s: classify needs the groups PD and HC, found {found}" in caplog.text
    assert not (tmp_path / "classification.json").exists()


def test_search_that_scores_nothing_is_data_error(tmp_path, caplog):
    """c0 is missing in one HC row and c1 in the other, so every subset keeps at
    most one HC row and no subset scores; the report is not a LOO on no columns."""
    values = np.random.default_rng(0).standard_normal((10, 2))
    values[8, 0] = values[9, 1] = np.nan
    _write_matrix(tmp_path, ["PD"] * 8 + ["HC"] * 2, values)
    code = main(["classify", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--scope", "a_s", "--trees", "3", "--mrmr-k", "2", "--sffs-patience", "1"])
    assert code == EXIT_DATA
    assert "scope a_s: no feature subset could be scored" in caplog.text
    assert not (tmp_path / "classification.json").exists()
    selection = json.loads((tmp_path / "selection_group_a_s.json").read_text())
    assert selection["selected_features"] == []
    assert selection["objective"] is None
    assert selection["trace"] and all(step["objective"] is None for step in selection["trace"])


def test_non_integer_config_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trees=abc\n")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("command, flags", [
    ("classify", ["--trees", "0"]),
    ("classify", ["--mrmr-k", "0"]),
    ("regress", ["--sffs-patience", "0"]),
    ("regress", ["--min-leaf", "0"]),
    ("classify", ["--seed", "-3"]),
], ids=["trees", "mrmr_k", "sffs_patience", "min_leaf", "seed"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_out_of_range_value_is_config_error(tmp_path, command, flags, source):
    """Tree counts, mRMR size, SFFS patience and leaf size must be at least 1,
    and the seed at least 0."""
    rng = np.random.default_rng(2)
    FeatureMatrix(scope="a_s", subject_ids=[f"S{i:02d}" for i in range(14)],
                  columns=["c0", "c1"], values=rng.standard_normal((14, 2)),
                  groups=["PD", "HC"] * 7,
                  scores={"updrs3": rng.uniform(10, 40, 14)}).to_csv(tmp_path / "features_a_s.csv")
    argv = [command, "--features", str(tmp_path), "--out", str(tmp_path / "rep"),
            "--scope", "a_s"] + (["--target", "updrs3"] if command == "regress" else [])
    if source == "flag":
        argv += flags
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flags[0][2:].replace('-', '_')}={flags[1]}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("value", ["ture", "2", "on"])
def test_bad_boolean_config_value(tmp_path, value):
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=1,
                                          duration=1.0, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"peak_normalize={value}\n")
    argv = ["extract", "--manifest", str(manifest), "--out", str(tmp_path / "feats"),
            "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "feats").exists()


@pytest.mark.parametrize("scope, decoded", [
    ("e_s", ["a", "e", "i", "u"]),
    ("all_s", ["a", "e", "i", "o", "u"]),
], ids=["e_s", "all_s"])
def test_extract_reads_scope_recordings(tmp_path, monkeypatch, caplog, scope, decoded):
    """A scope decodes its own vowels plus the a/i/u corners, nothing else.

    The loader runs in forked workers, so the paths it saw are read back from
    the warnings the parent logs for each recording it skips.
    """
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=0,
                                          vowels=("a", "e", "i", "o", "u"),
                                          duration=0.6, seed=4)

    def recording(path):
        raise AudioError(f"not decoded in this test: {path.name}")

    monkeypatch.setattr(cli, "load_recording", recording)
    with caplog.at_level(logging.WARNING, logger="phonassess"):
        assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "feats"),
                     "--scope", scope, "--workers", "2"]) == EXIT_OK
    seen = [r.getMessage().rsplit(" ", 1)[-1] for r in caplog.records
            if r.getMessage().startswith("skipped recording")]
    assert seen == [f"P000_{v}_s.wav" for v in decoded]


def test_extract_output_independent_of_workers(tmp_path):
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=1,
                                          vowels=("a", "i"), duration=1.0, seed=5)
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"feats{workers}"
        assert main(["extract", "--manifest", str(manifest), "--out", str(outs[workers]),
                     "--workers", workers]) == EXIT_OK
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["2"].iterdir())
    assert {"registry.json", "extraction_log.json", "features_all_s.csv"} <= set(names)
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


def test_extract_summarizes_each_recording_once(tmp_path, monkeypatch):
    """a_s and all_s both read the a, i and u recordings; the 10 recordings of
    2 subjects x 5 vowels are summarized 10 times, not once per scope."""
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=1, vowels=VOWELS,
                                          duration=1.0, seed=6)
    summarize_features, calls = table.summarize_features, []

    def counted(features):
        calls.append(1)
        return summarize_features(features)

    for module in (cli, table):
        monkeypatch.setattr(module, "summarize_features", counted)
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "feats"),
                 "--workers", "1", "--scope", "a_s,all_s"]) == EXIT_OK
    assert len(calls) == 10


@pytest.mark.parametrize("source", ["flag", "file"])
def test_zero_workers_is_config_error(tmp_path, source):
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=1,
                                          duration=1.0, seed=4)
    argv = ["extract", "--manifest", str(manifest), "--out", str(tmp_path / "feats")]
    if source == "flag":
        argv += ["--workers", "0"]
    else:
        (tmp_path / "run.cfg").write_text("workers=0\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "feats").exists()


def test_usage_error_is_config_error(capsys):
    assert main(["classify", "--trees", "abc"]) == EXIT_CONFIG
    assert "invalid int value" in capsys.readouterr().err


def test_help_exits_ok(capsys):
    assert main(["classify", "--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_min_leaf_on_classify_is_config_error(tmp_path):
    """Forest trees always grow to purity, so classify takes no --min-leaf."""
    values = np.random.default_rng(1).standard_normal((8, 3))
    _write_matrix(tmp_path, ["PD", "HC"] * 4, values)
    code = main(["classify", "--features", str(tmp_path), "--out", str(tmp_path),
                 "--scope", "a_s", "--trees", "3", "--mrmr-k", "2", "--sffs-patience", "1",
                 "--min-leaf", "9"])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "classification.json").exists()


def test_trees_on_regress_is_config_error(tmp_path):
    """regress grows CART trees only, so it takes no --trees."""
    rng = np.random.default_rng(1)
    FeatureMatrix(scope="a_s", subject_ids=[f"S{i:02d}" for i in range(14)],
                  columns=["c0", "c1"], values=rng.standard_normal((14, 2)), groups=["PD"] * 14,
                  scores={"updrs3": rng.uniform(10, 40, 14)}).to_csv(tmp_path / "features_a_s.csv")
    argv = ["regress", "--features", str(tmp_path), "--out", str(tmp_path), "--scope", "a_s",
            "--target", "updrs3", "--mrmr-k", "2", "--sffs-patience", "1"]
    assert main(argv + ["--trees", "7"]) == EXIT_CONFIG
    assert not list(tmp_path.glob("regression_*"))
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["extract", "--manifest", "in/manifest.csv", "--scope", "a_s,all_s",
     "--out", "out", "--seed", "1"],
    ["regress", "--target", "updrs3", "--mrmr-k", "30", "--sffs-patience", "1",
     "--features", "in", "--scope", "a_s", "--out", "out", "--seed", "1"],
    ["correlate", "--features", "in", "--scope", "a_s", "--out", "out", "--seed", "1"],
    ["classify", "--trees", "5", "--mrmr-k", "16", "--sffs-patience", "1",
     "--features", "in", "--scope", "all_s", "--out", "out", "--seed", "1"],
    ["extract", "--manifest", "m.csv", "--peak-normalize", "--config", "c.cfg",
     "--workers", "2"],
    ["regress", "--min-leaf", "2", "--target", "updrs3"],
    ["synth", "--mode", "classify", "--subjects", "6", "--target", "updrs3",
     "--out", "c", "--seed", "1"],
])
def test_subcommand_flags_parse(argv):
    """The benchmark's command lines and each subcommand's own flags parse."""
    args = make_parser().parse_args(argv)
    assert args.command == argv[0]


# each subcommand's own flags, as in README.md's table
OWN_FLAGS = {
    "synth": {"--mode", "--subjects", "--vowels", "--tasks", "--target"},
    "extract": {"--manifest", "--scope", "--peak-normalize", "--workers"},
    "classify": {"--features", "--scope", "--mrmr-k", "--sffs-patience", "--trees"},
    "regress": {"--features", "--scope", "--target", "--mrmr-k", "--sffs-patience",
                "--min-leaf"},
    "correlate": {"--features", "--scope"},
}


def test_each_subcommand_takes_exactly_its_flags():
    """Every subcommand takes --config, --out and --seed, then its own flags only."""
    subparsers = next(a for a in make_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(OWN_FLAGS)
    for command, own in OWN_FLAGS.items():
        taken = {flag for action in subparsers.choices[command]._actions
                 for flag in action.option_strings}
        assert taken == {"-h", "--help", "--config", "--out", "--seed"} | own, command


# (subcommand, config key, floor): each bounded setting on each subcommand taking its flag
BOUNDED = ([(command, "seed", 0) for command in OWN_FLAGS]
           + [(command, key, 1) for command in ("classify", "regress")
              for key in ("mrmr_k", "sffs_patience")]
           + [("classify", "trees", 1), ("regress", "min_leaf", 1), ("extract", "workers", 1)])


@pytest.mark.parametrize("command, key, low", BOUNDED)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_every_bound_refuses_a_value_below_its_floor(tmp_path, caplog, command, key, low,
                                                     source):
    """The floor itself is taken; one below it is a configuration error, from a
    flag or a config file, before anything is written."""
    def argv(value):
        if source == "flag":
            return [command, "--out", str(tmp_path / "o"), f"--{key.replace('_', '-')}", value]
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        return [command, "--out", str(tmp_path / "o"), "--config", str(tmp_path / "run.cfg")]

    assert getattr(cli.build_config(make_parser().parse_args(argv(str(low)))), key) == low
    assert main(argv(str(low - 1))) == EXIT_CONFIG
    assert f"{key} must be at least {low}, got {low - 1}" in caplog.text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--scope", "a_s"],
    ["extract", "--features", "f"],
    ["extract", "--target", "updrs3"],
    ["classify", "--peak-normalize"],
    ["classify", "--target", "updrs3"],
    ["correlate", "--mrmr-k", "3"],
    ["correlate", "--manifest", "m.csv"],
])
def test_foreign_flag_is_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_synth_regress_manifest(tmp_path):
    code = main(["synth", "--mode", "regress", "--subjects", "6", "--out",
                 str(tmp_path / "c"), "--seed", "1"])
    assert code == EXIT_OK
    assert (tmp_path / "c" / "manifest.csv").exists()
    lines = (tmp_path / "c" / "manifest.csv").read_text().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("subject_id,group,sex,age,duration")


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--vowels", "q"],
    ["--vowels", "a,"],
    ["--tasks", "zz"],
    ["--subjects", "-2"],
    ["--subjects", "0"],
    ["--vowels", "a,a"],
    ["--tasks", "s,l,s"],
], ids=["seed", "vowel", "empty_vowel", "task", "negative_subjects", "no_subjects",
        "repeated_vowel", "repeated_task"])
@pytest.mark.parametrize("mode", ["regress", "classify"])
def test_bad_synth_value_is_config_error(tmp_path, mode, flags):
    assert main(["synth", "--mode", mode, "--out", str(tmp_path / "c"), *flags]) == EXIT_CONFIG
    assert not (tmp_path / "c").exists()


def test_synth_classify_needs_two_subjects(tmp_path, caplog):
    # one subject would be an HC-only cohort, which classify refuses
    code = main(["synth", "--mode", "classify", "--subjects", "1", "--out", str(tmp_path / "c")])
    assert code == EXIT_CONFIG
    assert "--subjects must be at least 2 in classify mode, got 1" in caplog.text
    assert not (tmp_path / "c").exists()
    assert main(["synth", "--mode", "regress", "--subjects", "1",
                 "--out", str(tmp_path / "r")]) == EXIT_OK


def test_synth_unknown_scale_is_config_error(tmp_path, caplog):
    code = main(["synth", "--mode", "regress", "--target", "foo", "--subjects", "2",
                 "--out", str(tmp_path / "c")])
    assert code == EXIT_CONFIG
    assert "unknown clinical scale 'foo'" in caplog.text
    assert not (tmp_path / "c").exists()


def test_synth_classify_checks_target(tmp_path, caplog):
    # a classify cohort writes no score, but a mistyped scale is still refused
    code = main(["synth", "--mode", "classify", "--target", "foo", "--subjects", "2",
                 "--out", str(tmp_path / "c")])
    assert code == EXIT_CONFIG
    assert "unknown clinical scale 'foo'" in caplog.text
    assert not (tmp_path / "c").exists()


def test_target_has_no_group_default(tmp_path):
    assert cli.RunConfig().target == ""
    (tmp_path / "run.cfg").write_text("target=\n")
    config = ["--config", str(tmp_path / "run.cfg")]
    assert main(["synth", *config, "--subjects", "2", "--out", str(tmp_path / "c")]) == EXIT_OK
    rows = load_manifest(tmp_path / "c" / "manifest.csv").rows
    assert all(row.scores["updrs3"] > 0 for row in rows)
    assert main(["regress", *config, "--features", str(tmp_path / "c"),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert main(["synth", "--target", "group", "--subjects", "2",
                 "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("command", ["extract", "classify", "regress", "correlate"])
def test_repeated_scope_is_config_error(tmp_path, caplog, command):
    (tmp_path / "manifest.csv").write_text("subject_id,group,path_a_s\nP1,PD,P1_a_s.wav\n")
    source = (["--manifest", str(tmp_path / "manifest.csv")] if command == "extract"
              else ["--features", str(tmp_path)])
    target = ["--target", "updrs3"] if command == "regress" else []
    code = main([command, *source, *target, "--scope", "a_s, a_s", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "scope names a token twice: a_s,a_s" in caplog.text
    assert not (tmp_path / "o").exists()


def test_extract_skips_recording_too_short_to_analyse(tmp_path, caplog):
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=1,
                                          duration=1.0, seed=4)
    # 500 samples: shorter than the pitch tracker's 640-sample frame
    write_wav(tmp_path / "cohort" / "H001_a_s.wav", 0.5 * np.sin(np.arange(500) / 8), 16_000)
    out = tmp_path / "feats"
    with caplog.at_level(logging.WARNING, logger="phonassess"):
        assert main(["extract", "--manifest", str(manifest), "--out", str(out),
                     "--workers", "1"]) == EXIT_OK
    assert ("skipped recording of H001 (a,s): signal shorter than one frame "
            "(500 < 640 samples)") in caplog.text
    matrix = FeatureMatrix.from_csv(out / "features_a_s.csv", scope="a_s")
    assert matrix.subject_ids == ["P000", "H001"]
    assert np.isnan(matrix.values[1]).all()
    assert np.isfinite(matrix.values[0]).any()
    log = json.loads((out / "extraction_log.json").read_text())
    assert log["recordings_extracted"] == 1
    assert log["skipped_recordings"] == [
        {"subject_id": "H001", "vowel": "a", "task": "s",
         "reason": "signal shorter than one frame (500 < 640 samples)"}]


@pytest.mark.parametrize("scale", list(SCALES))
def test_synth_scores_lie_in_scale_range(tmp_path, scale):
    out = tmp_path / "c"
    assert main(["synth", "--mode", "regress", "--target", scale, "--subjects", "4",
                 "--out", str(out)]) == EXIT_OK
    manifest = load_manifest(out / "manifest.csv")
    assert all(row.scores[scale] > 0 for row in manifest.rows)


def test_manifest_column_named_twice_is_data_error(tmp_path, caplog):
    # csv.DictReader would keep the second path_a_s cell and drop the first
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("subject_id,group,path_a_s,path_a_s\nP1,PD,one.wav,two.wav\n")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "feats")])
    assert code == EXIT_DATA
    assert "'path_a_s' appears twice" in caplog.text


def test_malformed_feature_matrix_is_data_error(tmp_path, caplog):
    (tmp_path / "features_a_s.csv").write_text("subject_id,group,updrs3,c0\nS1,PD,12,abc\n")
    code = main(["correlate", "--features", str(tmp_path), "--out", str(tmp_path / "rep")])
    assert code == EXIT_DATA
    assert "line 2, column c0" in caplog.text
