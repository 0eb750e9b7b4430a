"""Command-line pipeline: synth, extract, classify, regress, correlate.

Config values come from an optional key=value file overridden by flags.
Each subcommand accepts only the flags it reads (``SUBCOMMAND_FLAGS``).
``trees``, ``mrmr_k``, ``sffs_patience``, ``min_leaf`` and ``workers`` must be
at least 1 and ``seed`` at least 0; a boolean config value is one of
1/true/yes/0/false/no. ``synth`` takes vowels and tasks from ``audio.VOWELS``
and ``audio.TASKS``, each at most once, and at least one subject (two in
classify mode, whose cohort needs a PD and an HC subject).
``extract`` runs its recordings over ``workers`` forked processes (default:
the CPUs this process may run on; 1 runs them in this process), each
returning its recording's summary columns, with the same outputs for every
worker count.
Exit codes: 0 success, 1 configuration error (``ConfigError``: a bad config
file or value, a bad or repeated scope token, a bad target, a missing
--manifest, a bad or repeated synth vowel or task, a bad subject count; or
an argparse usage error such as a flag the subcommand does not take), 2 data
error (any other ``PhonassessError``).
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
from .errors import ConfigError, PhonassessError
# perfbench/tracing.py wraps loo_validate at this module
from .evaluation import (SCALES, classification_metrics, clinical_scale,  # noqa: F401
                         correlation_graph_data, estimation_errors, loo_validate,
                         regression_metrics, round_half_away, spearman)
from .features.extract import extract_recording
from .features.registry import per_vowel_width, to_json as registry_to_json
from .manifest import GROUPS, load_manifest
# perfbench/tracing.py wraps predict at this module
from .models import MIN_LEAF_DEFAULT, N_TREES_DEFAULT, predict  # noqa: F401
from .parallel import ordered_map
from .selection import (SFFS_PATIENCE_DEFAULT, LearnerSpec, drop_incomplete_rows, mrmr_rank, sffs,
                        usable_columns)
from .table import (FeatureMatrix, build_matrix, default_scopes, parse_scope, scope_recordings,
                    summarize_features)

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
    target: str = ""           # clinical scale id; synth simulates updrs3 when empty
    seed: int = 0
    mrmr_k: int = 500
    sffs_patience: int = SFFS_PATIENCE_DEFAULT
    trees: int = N_TREES_DEFAULT
    min_leaf: int = MIN_LEAF_DEFAULT
    peak_normalize: bool = False
    workers: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))

    def scopes(self) -> list[str]:
        wanted = [s.strip() for s in self.scope.split(",") if s.strip()]
        for scope in wanted:
            parse_scope(scope)  # fail fast on malformed scope tokens
        if len(set(wanted)) < len(wanted):
            raise ConfigError(f"scope names a token twice: {','.join(wanted)}")
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
        if len(set(tokens)) < len(tokens):
            raise ConfigError(f"{flag} names a token twice: {','.join(tokens)}")
    least = 2 if args.mode == "classify" else 1  # classify writes a PD and an HC subject
    if args.subjects < least:
        raise ConfigError(f"--subjects must be at least {least} in {args.mode} mode, "
                          f"got {args.subjects}")
    target = cfg.target or "updrs3"
    clinical_scale(target)  # checked in either mode, before anything is written
    if args.mode == "classify":
        manifest = make_classification_cohort(out, n_pd=args.subjects // 2,
                                              n_hc=args.subjects - args.subjects // 2,
                                              vowels=vowels, tasks=tasks, seed=cfg.seed)
    else:
        manifest = make_regression_cohort(out, n_subjects=args.subjects, vowels=vowels,
                                          tasks=tasks, target=target, seed=cfg.seed)
    log.info("wrote cohort manifest %s", manifest)
    print(manifest)
    return EXIT_OK


def _extract_job(path: Path, peak_normalize: bool) -> tuple[dict, dict] | PhonassessError:
    """Load, extract and summarize one recording: its ``summarize_features``
    columns and its failures. The error of a recording that cannot be read or
    analysed is returned, not raised."""
    try:
        result = extract_recording(load_recording(path), peak_normalize=peak_normalize)
    except PhonassessError as exc:
        return exc
    return summarize_features(result.features), result.failures


def cmd_extract(cfg: RunConfig) -> int:
    if not cfg.manifest:
        raise ConfigError("extract needs --manifest")
    manifest = load_manifest(cfg.manifest)
    scopes = cfg.scopes() or default_scopes(manifest)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    needed = {vt for scope in scopes for vt in scope_recordings(scope)}

    jobs = [(row.subject_id, v, t, row.recordings[(v, t)])
            for row in manifest.rows for (v, t) in sorted(needed) if (v, t) in row.recordings]
    # imported once here so forked workers inherit them instead of each importing them
    import scipy.fft, scipy.linalg, scipy.special  # noqa: E401, F401
    results = ordered_map(partial(_extract_job, peak_normalize=cfg.peak_normalize),
                          [path for *_, path in jobs], cfg.workers)
    extracted: dict[tuple[str, str, str], dict[str, float]] = {}
    failure_counts: dict[str, int] = {}
    skipped = []
    for (subject, v, t, _), result in zip(jobs, results):
        if isinstance(result, PhonassessError):
            log.warning("skipped recording of %s (%s,%s): %s", subject, v, t, result)
            skipped.append({"subject_id": subject, "vowel": v, "task": t, "reason": str(result)})
            continue
        extracted[(subject, v, t)], failures = result
        for name in failures:
            failure_counts[name] = failure_counts.get(name, 0) + 1

    for scope in scopes:
        matrix = build_matrix(manifest, extracted, scope)
        matrix.to_csv(out / f"features_{scope}.csv")
    registry_to_json(out / "registry.json")
    with open(out / "extraction_log.json", "w") as fh:
        json.dump({"per_feature_failures": dict(sorted(failure_counts.items())),
                   "recordings_extracted": len(extracted),
                   "skipped_recordings": skipped,
                   "per_vowel_width": per_vowel_width()}, fh, indent=1)
    log.info("wrote %d matrices to %s", len(scopes), out)
    return EXIT_OK


def _report_matrices(cfg: RunConfig):
    """Each report scope's feature matrix, loaded as it is reached.

    The scopes are those given, else every ``features_<scope>.csv`` found;
    the output directory is made before the first matrix is loaded.
    """
    base = Path(cfg.features or cfg.out)
    scopes = cfg.scopes() or sorted(p.stem.replace("features_", "", 1)
                                    for p in base.glob("features_*.csv"))
    if not scopes:
        raise ConfigError("no scopes given and no feature matrices found")
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    for scope in scopes:
        path = base / f"features_{scope}.csv"
        if not path.exists():
            raise PhonassessError(f"missing feature matrix {path}; run extract first")
        yield FeatureMatrix.from_csv(path, scope=scope)


def _select_and_loo(matrix: FeatureMatrix, target, target_name: str, spec: LearnerSpec,
                    cfg: RunConfig):
    """mRMR + SFFS on the rows with a target; the report is the search's LOO.

    Writes how selection went to ``selection_<target>_<scope>.json`` and
    returns (selection, truth of the rows its ``predictions`` are for): the
    selected subset's LOO predictions from the search. A search in which no
    subset could be scored is an error, raised after that file is written.
    """
    rows = drop_incomplete_rows(matrix.values, target, [])  # rows with a finite target
    X, y = matrix.values[rows], np.asarray(target)[rows]
    ids = np.asarray(matrix.subject_ids)[rows]
    usable = usable_columns(X)  # candidates for mRMR to rank
    if not usable.size:
        raise PhonassessError("no usable feature columns (all missing or constant)")
    ranked = mrmr_rank(X[:, usable], y, k=min(cfg.mrmr_k, usable.size))
    sel = sffs(X, y, matrix.columns, spec, candidates=usable[ranked].tolist(),
               patience=cfg.sffs_patience)
    _write_selection(Path(cfg.out) / f"selection_{target_name}_{matrix.scope}.json", sel,
                     no_target=np.asarray(matrix.subject_ids)[~rows], dropped=ids[~sel.rows])
    if sel.predictions is None:
        raise PhonassessError(f"scope {matrix.scope}: no feature subset could be scored (each "
                              "left fewer than 3 complete rows or a LOO fold that could not "
                              "be trained)")
    return sel, y[sel.rows]


def _write_selection(path: Path, sel, no_target, dropped) -> None:
    """The SFFS trace and its counts; no timings, so repeated runs match byte for byte."""
    def score(value: float) -> float | None:  # a subset that could not be scored is -inf
        return float(value) if np.isfinite(value) else None

    record = {
        "n_candidates": sel.n_candidates,
        "n_evaluations": sel.n_evaluations,
        "n_memo_hits": sel.n_memo_hits,
        "n_stopped": sel.n_stopped,
        "rows_without_target": no_target.tolist(),
        "dropped_rows": dropped.tolist(),
        "selected_features": sel.selected,
        "objective": score(sel.objective),
        "trace": [{"action": action, "feature": name, "objective": score(value)}
                  for action, name, value in sel.trace],
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def _write_table(cfg: RunConfig, stem: str, record, header: list[str], lines) -> None:
    """A report table: ``record`` as ``<stem>.json`` and ``header`` plus ``lines``
    as ``<stem>.csv``, both in the output directory."""
    out = Path(cfg.out)
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    with open(out / f"{stem}.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *lines])


def cmd_classify(cfg: RunConfig) -> int:
    rows = []
    for matrix in _report_matrices(cfg):
        scope = matrix.scope
        if (found := sorted(set(matrix.groups))) != sorted(GROUPS):
            raise PhonassessError(f"scope {scope}: classify needs the groups PD and HC, "
                                  f"found {', '.join(found) or 'none'}")
        spec = LearnerSpec(kind="forest", n_trees=cfg.trees, seed=cfg.seed)
        sel, truth = _select_and_loo(matrix, matrix.groups, "group", spec, cfg)
        metrics = classification_metrics(sel.predictions, truth)
        rows.append({
            "scope": scope,
            "acc": round_half_away(metrics.acc), "sen": round_half_away(metrics.sen),
            "spe": round_half_away(metrics.spe), "tss": round_half_away(metrics.tss, 4),
            "n_selected": sel.size, "selected_features": sel.selected,
            "n_dropped_rows": int((~sel.rows).sum()),
        })
        log.info("classified %s: ACC %.2f SEN %.2f SPE %.2f TSS %.4f (%d features)",
                 scope, metrics.acc, metrics.sen, metrics.spe, metrics.tss, sel.size)
    _write_table(cfg, "classification", rows, ["scope", "acc", "sen", "spe", "tss", "no"],
                 [[r["scope"], f"{r['acc']:.2f}", f"{r['sen']:.2f}", f"{r['spe']:.2f}",
                   f"{r['tss']:.4f}", r["n_selected"]] for r in rows])
    return EXIT_OK


def cmd_regress(cfg: RunConfig) -> int:
    if not cfg.target:
        raise ConfigError("regress needs --target <clinical scale id>")
    scale = clinical_scale(cfg.target)
    rows = []
    for matrix in _report_matrices(cfg):
        scope = matrix.scope
        y = matrix.scores.get(cfg.target)
        if y is None or np.isfinite(y).sum() < 10:
            raise PhonassessError(f"scope {scope}: fewer than 10 subjects rated on {cfg.target}")
        spec = LearnerSpec(kind="cart", min_leaf=cfg.min_leaf, seed=cfg.seed)
        sel, truth = _select_and_loo(matrix, y, cfg.target, spec, cfg)
        mae, rho = regression_metrics(sel.predictions, truth)
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
    _write_table(cfg, f"regression_{cfg.target}", {"rows": rows, "best": summary},
                 ["scope", "mae", "rho", "no"],
                 [[r["scope"], f"{r['mae']:.4f}", "" if r["rho"] is None else f"{r['rho']:.4f}",
                   r["n_selected"]] for r in rows])
    return EXIT_OK


def cmd_correlate(cfg: RunConfig) -> int:
    matrices = list(_report_matrices(cfg))
    out = Path(cfg.out)
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
        # looked up at call time, so a wrapper set on this module is the one called
        return globals()[f"cmd_{args.command}"](cfg)
    except PhonassessError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
