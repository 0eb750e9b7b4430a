"""Command-line pipeline: synth, extract, classify, regress, correlate.

Config values come from an optional key=value file overridden by flags.
Each subcommand accepts only the flags it reads (``SUBCOMMAND_FLAGS``).
``trees``, ``mrmr_k``, ``sffs_patience``, ``min_leaf`` and ``workers`` must be
at least 1 and ``seed`` at least 0; a boolean config value is one of
1/true/yes/0/false/no. ``synth`` takes vowels and tasks from ``audio.VOWELS``
and ``audio.TASKS`` and at least one subject.
``extract`` runs its recordings over ``workers`` forked processes (default:
the CPUs this process may run on; 1 runs them in this process), with the
same outputs for every worker count.
Exit codes: 0 success, 1 configuration error (``ConfigError``: a bad config
file or value, scope token or target, a missing --manifest, a bad synth
vowel, task or subject count; or an argparse
usage error such as a flag the subcommand does not take), 2 data error (any
other ``PhonassessError``).
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .allocator import keep_freed_memory
from .audio import TASKS, VOWELS, load_recording
from .errors import AudioError, ConfigError, PhonassessError
from .evaluation import (SCALES, classification_metrics, correlation_graph_data,
                         estimation_errors, loo_validate, regression_metrics,
                         round_half_away, spearman)
from .features.extract import ExtractionResult, extract_recording
from .features.registry import per_vowel_width, to_json as registry_to_json
from .manifest import load_manifest
from .models import predict  # noqa: F401 (perfbench/tracing.py wraps it at this module)
from .parallel import ordered_map
from .selection import LearnerSpec, drop_incomplete_rows, mrmr_rank, sffs
from .table import FeatureMatrix, build_matrix, default_scopes, parse_scope, scope_recordings

log = logging.getLogger("phonassess")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2

LOWER_BOUNDS = {"mrmr_k": 1, "sffs_patience": 1, "trees": 1, "min_leaf": 1, "workers": 1, "seed": 0}
BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass
class RunConfig:
    manifest: str = ""
    features: str = ""
    out: str = "out"
    scope: str = ""            # comma-separated; empty = derive from manifest
    target: str = "group"
    seed: int = 0
    mrmr_k: int = 500
    sffs_patience: int = 3
    trees: int = 500
    min_leaf: int = 3
    peak_normalize: bool = False
    workers: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))

    def scopes(self) -> list[str]:
        wanted = [s.strip() for s in self.scope.split(",") if s.strip()]
        for scope in wanted:
            parse_scope(scope)  # fail fast on malformed scope tokens
        return wanted


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such config file: {path}")
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r} (expected key=value)")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    valid = {f.name: f.type for f in fields(RunConfig)}
    for key, value in file_values.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            if value.lower() not in BOOLEAN_WORDS:
                raise ConfigError(f"config key {key!r} needs one of "
                                  f"{'/'.join(BOOLEAN_WORDS)}, got {value!r}")
            value = BOOLEAN_WORDS[value.lower()]
        elif isinstance(current, int):
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} needs an integer, got {value!r}") from None
        setattr(cfg, key, value)
    for key in valid:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    for key, low in LOWER_BOUNDS.items():
        if getattr(cfg, key) < low:
            raise ConfigError(f"{key} must be at least {low}, got {getattr(cfg, key)}")
    return cfg


def cmd_synth(cfg: RunConfig, args) -> int:
    from .synth import make_classification_cohort, make_regression_cohort

    out = Path(cfg.out)
    vowels, tasks = args.vowels.split(","), args.tasks.split(",")
    for flag, tokens, allowed in (("--vowels", vowels, VOWELS), ("--tasks", tasks, TASKS)):
        if bad := [t for t in tokens if t not in allowed]:
            raise ConfigError(f"{flag} takes tokens from {','.join(allowed)}, got {bad[0]!r}")
    if args.subjects < 1:
        raise ConfigError(f"--subjects must be at least 1, got {args.subjects}")
    if args.mode == "classify":
        manifest = make_classification_cohort(out, n_pd=args.subjects // 2,
                                              n_hc=args.subjects - args.subjects // 2,
                                              vowels=vowels, tasks=tasks, seed=cfg.seed)
    else:
        manifest = make_regression_cohort(out, n_subjects=args.subjects, vowels=vowels,
                                          tasks=tasks,
                                          target=cfg.target if cfg.target != "group" else "updrs3",
                                          seed=cfg.seed)
    log.info("wrote cohort manifest %s", manifest)
    print(manifest)
    return EXIT_OK


def _extract_job(path: Path, peak_normalize: bool) -> ExtractionResult | AudioError:
    """Load and extract one recording; unreadable audio is returned, not raised."""
    try:
        rec = load_recording(path)
    except AudioError as exc:
        return exc
    return extract_recording(rec, peak_normalize=peak_normalize)


def cmd_extract(cfg: RunConfig) -> int:
    manifest = load_manifest(cfg.manifest)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    scopes = cfg.scopes() or default_scopes(manifest)
    needed = {vt for scope in scopes for vt in scope_recordings(scope)}

    jobs = [(row.subject_id, v, t, row.recordings[(v, t)])
            for row in manifest.rows for (v, t) in sorted(needed) if (v, t) in row.recordings]
    # imported once here so forked workers inherit them instead of each importing them
    import scipy.interpolate, scipy.io.wavfile, scipy.linalg, scipy.signal  # noqa: E401, F401
    results = ordered_map(partial(_extract_job, peak_normalize=cfg.peak_normalize),
                          [path for *_, path in jobs], cfg.workers)
    extracted: dict[tuple[str, str, str], dict] = {}
    failure_counts: dict[str, int] = {}
    for (subject, v, t, _), result in zip(jobs, results):
        if isinstance(result, AudioError):
            log.warning("unreadable audio for %s (%s,%s): %s", subject, v, t, result)
            continue
        extracted[(subject, v, t)] = result.features
        for name in result.failures:
            failure_counts[name] = failure_counts.get(name, 0) + 1

    for scope in scopes:
        matrix = build_matrix(manifest, extracted, scope)
        matrix.to_csv(out / f"features_{scope}.csv")
    registry_to_json(out / "registry.json")
    with open(out / "extraction_log.json", "w") as fh:
        json.dump({"per_feature_failures": dict(sorted(failure_counts.items())),
                   "recordings_extracted": len(extracted),
                   "per_vowel_width": per_vowel_width()}, fh, indent=1)
    log.info("wrote %d matrices to %s", len(scopes), out)
    return EXIT_OK


def _load_matrix(cfg: RunConfig, scope: str) -> FeatureMatrix:
    base = Path(cfg.features or cfg.out)
    path = base / f"features_{scope}.csv"
    if not path.exists():
        raise PhonassessError(f"missing feature matrix {path}; run extract first")
    return FeatureMatrix.from_csv(path, scope=scope)


def _scopes_from_features_dir(cfg: RunConfig) -> list[str]:
    base = Path(cfg.features or cfg.out)
    return sorted(p.stem.replace("features_", "", 1) for p in base.glob("features_*.csv"))


def _report_scopes(cfg: RunConfig) -> tuple[list[str], Path]:
    """Scopes to report on (given, else every matrix found) and the output dir."""
    scopes = cfg.scopes() or _scopes_from_features_dir(cfg)
    if not scopes:
        raise ConfigError("no scopes given and no feature matrices found")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return scopes, out


def _select_and_loo(matrix: FeatureMatrix, target, target_name: str, spec: LearnerSpec,
                    cfg: RunConfig):
    """mRMR + SFFS on the rows with a target, then LOO of the selected subset.

    Writes how selection went to ``selection_<target>_<scope>.json`` and
    returns (selection, LOO predictions, truth of the evaluated rows); a LOO
    fold that cannot train is an error naming the held-out subjects.
    """
    rows = drop_incomplete_rows(matrix.values, target, [])  # rows with a finite target
    X, y = matrix.values[rows], np.asarray(target)[rows]
    ids = np.asarray(matrix.subject_ids)[rows]
    n = X.shape[0]
    # candidates: mostly-present columns with a finite, positive range, mRMR-ranked
    # (a range, not a std: the std of a constant 0.1 column is 1.4e-17)
    usable = [j for j in range(X.shape[1])
              if np.isfinite(X[:, j]).sum() >= max(3, n // 2)
              and 0 < np.nanmax(X[:, j]) - np.nanmin(X[:, j]) < np.inf]
    if not usable:
        raise PhonassessError("no usable feature columns (all missing or constant)")
    ranked = mrmr_rank(X[:, usable], y, k=min(cfg.mrmr_k, len(usable)))
    sel = sffs(X, y, matrix.columns, spec, candidates=[usable[j] for j in ranked],
               patience=cfg.sffs_patience)
    ok = drop_incomplete_rows(X, y, sel.selected_indices)
    _write_selection(Path(cfg.out) / f"selection_{target_name}_{matrix.scope}.json", sel,
                     no_target=np.asarray(matrix.subject_ids)[~rows], dropped=ids[~ok])
    loo = loo_validate(X[np.ix_(ok, sel.selected_indices)], y[ok], spec)
    if loo.failed_folds:
        held_out = ", ".join(ids[ok][loo.failed_folds])
        raise PhonassessError(f"scope {matrix.scope}: {len(loo.failed_folds)} LOO fold(s) "
                              f"could not be trained (held-out subjects: {held_out})")
    return sel, loo.predictions, y[ok]


def _write_selection(path: Path, sel, no_target, dropped) -> None:
    """The SFFS trace and its counts; no timings, so repeated runs match byte for byte."""
    def score(value: float) -> float | None:  # a subset no fold could train scores -inf
        return float(value) if np.isfinite(value) else None

    record = {
        "n_candidates": sel.n_candidates,
        "n_evaluations": sel.n_evaluations,
        "n_memo_hits": sel.n_memo_hits,
        "rows_without_target": no_target.tolist(),
        "dropped_rows": dropped.tolist(),
        "selected_features": sel.selected,
        "objective": score(sel.objective),
        "trace": [{"action": action, "feature": name, "objective": score(value)}
                  for action, name, value in sel.trace],
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def cmd_classify(cfg: RunConfig) -> int:
    scopes, out = _report_scopes(cfg)
    rows = []
    for scope in scopes:
        matrix = _load_matrix(cfg, scope)
        if len(set(matrix.groups)) < 2:
            raise PhonassessError(f"scope {scope}: only one group present in the cohort")
        spec = LearnerSpec(kind="forest", n_trees=cfg.trees, seed=cfg.seed)
        sel, preds, truth = _select_and_loo(matrix, matrix.groups, "group", spec, cfg)
        metrics = classification_metrics(preds, truth)
        rows.append({
            "scope": scope,
            "acc": round_half_away(metrics.acc), "sen": round_half_away(metrics.sen),
            "spe": round_half_away(metrics.spe), "tss": round_half_away(metrics.tss, 4),
            "n_selected": sel.size, "selected_features": sel.selected,
            "n_dropped_rows": sel.n_dropped_rows,
        })
        log.info("classified %s: ACC %.2f SEN %.2f SPE %.2f TSS %.4f (%d features)",
                 scope, metrics.acc, metrics.sen, metrics.spe, metrics.tss, sel.size)
    with open(out / "classification.json", "w") as fh:
        json.dump(rows, fh, indent=1)
    with open(out / "classification.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scope", "acc", "sen", "spe", "tss", "no"])
        for r in rows:
            w.writerow([r["scope"], f"{r['acc']:.2f}", f"{r['sen']:.2f}",
                        f"{r['spe']:.2f}", f"{r['tss']:.4f}", r["n_selected"]])
    return EXIT_OK


def cmd_regress(cfg: RunConfig) -> int:
    if cfg.target in ("", "group"):
        raise ConfigError("regress needs --target <clinical scale id>")
    if cfg.target not in SCALES:
        raise ConfigError(f"unknown clinical scale {cfg.target!r}")
    scopes, out = _report_scopes(cfg)
    scale = SCALES[cfg.target]
    rows = []
    for scope in scopes:
        matrix = _load_matrix(cfg, scope)
        y = matrix.scores.get(cfg.target)
        if y is None or np.isfinite(y).sum() < 10:
            raise PhonassessError(f"scope {scope}: fewer than 10 subjects rated on {cfg.target}")
        spec = LearnerSpec(kind="cart", min_leaf=cfg.min_leaf, seed=cfg.seed)
        sel, preds, truth = _select_and_loo(matrix, y, cfg.target, spec, cfg)
        mae, rho = regression_metrics(preds, truth)
        rows.append({
            "scope": scope, "target": cfg.target,
            "mae": round_half_away(mae, 4),
            "rho": round_half_away(rho, 4) if np.isfinite(rho) else None,
            "n_selected": sel.size, "selected_features": sel.selected,
            "observed_range": float(np.ptp(truth)),
        })
        log.info("regressed %s on %s: MAE %.3f rho %.3f (%d features)",
                 cfg.target, scope, mae, rho, sel.size)

    best = min(rows, key=lambda r: r["mae"])
    ee1, ee2 = estimation_errors(best["mae"], scale, best["observed_range"])
    summary = {
        "target": cfg.target, "best_scope": best["scope"], "mae": best["mae"],
        "ee1_percent": round_half_away(ee1),
        "ee2_percent": round_half_away(ee2) if ee2 is not None else None,
    }
    with open(out / f"regression_{cfg.target}.json", "w") as fh:
        json.dump({"rows": rows, "best": summary}, fh, indent=1)
    with open(out / f"regression_{cfg.target}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scope", "mae", "rho", "no"])
        for r in rows:
            w.writerow([r["scope"], f"{r['mae']:.4f}",
                        "" if r["rho"] is None else f"{r['rho']:.4f}", r["n_selected"]])
    return EXIT_OK


def cmd_correlate(cfg: RunConfig) -> int:
    scopes, out = _report_scopes(cfg)
    matrices = [_load_matrix(cfg, scope) for scope in scopes]
    panels = []
    for scale_id in SCALES:
        best = None
        for matrix in matrices:
            y = matrix.scores.get(scale_id)
            if y is None or np.isfinite(y).sum() < 5:
                continue
            for j, name in enumerate(matrix.columns):
                x = matrix.values[:, j]
                ok = np.isfinite(x) & np.isfinite(y)
                if ok.sum() < 5 or np.ptp(x[ok]) == 0 or np.ptp(y[ok]) == 0:
                    continue
                rho, p = spearman(x[ok], y[ok])
                if best is None or abs(rho) > abs(best[0]):
                    best = (rho, p, matrix.scope, name, x[ok], y[ok])
        if best is None:
            log.info("no complete pairs for scale %s; panel skipped", scale_id)
            continue
        rho, p, scope, name, xs, ys = best
        panel = correlation_graph_data(xs, ys)
        panels.append({"scale": scale_id, "scope": scope, "feature": name,
                       "rho": round_half_away(panel.rho, 4), "p": panel.p,
                       "fit_coefficients": panel.coefficients})
        with open(out / f"correlation_{scale_id}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["feature_value", "clinical_value"])
            for fx, fy in zip(panel.feature_values, panel.clinical_values):
                w.writerow([f"{fx:.12g}", f"{fy:.12g}"])
            w.writerow([])
            w.writerow(["feature", name])
            w.writerow(["scope", scope])
            w.writerow(["rho", f"{panel.rho:.6f}"])
            w.writerow(["p", f"{panel.p:.6g}"])
            w.writerow(["fit_a2", f"{panel.coefficients[0]:.12g}"])
            w.writerow(["fit_a1", f"{panel.coefficients[1]:.12g}"])
            w.writerow(["fit_a0", f"{panel.coefficients[2]:.12g}"])
    with open(out / "correlations.json", "w") as fh:
        json.dump(panels, fh, indent=1)
    log.info("wrote %d correlation panels", len(panels))
    return EXIT_OK


# flag -> add_argument keywords; --config, --out and --seed go on every subcommand
FLAGS = {
    "--config": {"help": "key=value config file"},
    "--out": {},
    "--seed": {"type": int},
    "--manifest": {},
    "--peak-normalize": {"action": "store_const", "const": True},
    "--features": {"help": "directory holding features_<scope>.csv"},
    "--scope": {"help": "comma-separated scopes like a_s,all_ls"},
    "--target": {},
    "--mrmr-k": {"type": int},
    "--sffs-patience": {"type": int},
    "--trees": {"type": int},
    "--min-leaf": {"type": int},
    "--workers": {"type": int, "help": "extraction processes (default: usable CPUs; 1 = serial)"},
}
SUBCOMMAND_FLAGS = {
    "synth": ("--target",),
    "extract": ("--manifest", "--scope", "--peak-normalize", "--workers"),
    "classify": ("--features", "--scope", "--mrmr-k", "--sffs-patience", "--trees"),
    "regress": ("--features", "--scope", "--target", "--mrmr-k", "--sffs-patience",
                "--min-leaf"),
    "correlate": ("--features", "--scope"),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phonassess",
                                     description="Vowel-phonation biomarker pipeline")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in SUBCOMMAND_FLAGS.items():
        p = sub.add_parser(name, help="generate a synthetic cohort" if name == "synth"
                           else f"run the {name} stage")
        for flag in ("--config", "--out", "--seed", *flags):
            p.add_argument(flag, **FLAGS[flag])

    p_synth = sub.choices["synth"]
    p_synth.add_argument("--mode", choices=("regress", "classify"), default="regress")
    p_synth.add_argument("--subjects", type=int, default=40)
    p_synth.add_argument("--vowels", default="a")
    p_synth.add_argument("--tasks", default="s")
    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: usage error (code 2) or --help (code 0)
        return EXIT_CONFIG if exc.code else EXIT_OK
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = build_config(args)
        if args.command == "synth":
            return cmd_synth(cfg, args)
        if args.command == "extract":
            if not cfg.manifest:
                raise ConfigError("extract needs --manifest")
            return cmd_extract(cfg)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "regress":
            return cmd_regress(cfg)
        if args.command == "correlate":
            return cmd_correlate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except PhonassessError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
