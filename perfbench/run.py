"""Closed-loop benchmark of the phonassess command-line pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload extract|regress|classify --seed N \
        --seconds S --trace 0|1

One client runs the workload's phonassess command sequence (one
repetition) again and again, each command in a fresh process started
through ``perfbench/child.py``, until the next repetition would end after
``--seconds``; at least one repetition always runs. Inputs are generated
from ``--seed`` in set-up (``perfbench/workloads.py``), which is timed
several times, spread over the run. Every repetition's outputs are checked and their
sha256 digests compared across repetitions.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (``perfbench/tracing.py``) plus the
tracing overhead. The last line of standard output is the result JSON; the
line before it is the run record: machine, versions, per-repetition
samples, output digests, error rate and recordings per second.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_EDGE_REPEATS = 5       # set-up timings before the first and after the last repetition
RUN_LIMIT_S = 170.0          # a command still running at this run age is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + sha256(path).encode())
    return h.hexdigest()


def run_command(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one child process to completion; wall, CPU and peak RSS from wait4."""
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def run_repetition(workload, k: int, traced: bool, inputs: Path, seed: int, facts: dict,
                   deadline: float) -> dict:
    from perfbench import workloads

    rep_dir = WORK / f"rep{k:03d}"
    out = rep_dir / "out"
    rep_dir.mkdir()
    cmds = workloads.commands(workload, inputs, out, seed)
    results, spans_files = [], []
    for i, args in enumerate(cmds):
        argv = [sys.executable, str(ROOT / "perfbench" / "child.py")]
        if traced:
            spans_files.append(rep_dir / f"spans{i}.json")
            argv += ["--spans", str(spans_files[-1]), "--run-id", str(k)]
        results.append(run_command(argv + ["--", *args], rep_dir / f"cmd{i}.log", deadline))

    per_command = facts["recordings"] if workload == "extract" else 1
    problems, failed = [], 0
    for i, check in enumerate(workloads.CHECKS[workload]):
        found = (check(out, facts) if results[i]["exit"] == 0
                 else [f"command {i} exited {results[i]['exit']}"])
        problems += found
        failed += per_command if found else 0
    cells = None
    if workload == "extract":  # the per-feature error rate extraction_log.json gives
        listed = workloads.failed_cells(out)
        total = facts["recordings"] * facts["features"]
        cells = [total, total if problems or listed is None else listed]
    digests = {name: sha256(out / name) for name in workloads.OUTPUTS[workload]
               if (out / name).exists()}
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "commands": results, "problems": problems,
        "attempted": per_command * len(cmds), "failed": failed, "cells": cells,
        "digests": digests,
        "spans": [json.loads(p.read_text()) for p in spans_files if p.exists()],
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("extract", "regress", "classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "phonassess" / "cli.py").is_file():
        print(f"no phonassess sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing, workloads
    import phonassess.cli  # noqa: F401  (import cost stays out of set-up time)
    import phonassess.synth  # noqa: F401

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    # ---- set-up, timed several times: at the start, after every repetition
    # and at the end, so that one slow spell of the machine cannot set the median
    setup_times, input_digests = [], set()

    def timed_setup() -> dict:
        target = WORK / f"inputs{len(setup_times)}"
        t0 = time.perf_counter()
        facts = workloads.setup(args.workload, target, args.seed)
        setup_times.append(time.perf_counter() - t0)
        input_digests.add(tree_digest(target))
        if target != inputs:
            shutil.rmtree(target)
        return facts

    inputs = WORK / "inputs0"
    for _ in range(SETUP_EDGE_REPEATS):
        facts = timed_setup()

    # ---- closed loop: one repetition at a time until time is up ---------
    pattern = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    t_loop = time.perf_counter()
    while True:
        traced = pattern[len(reps) % len(pattern)]
        reps.append(run_repetition(args.workload, len(reps), traced, inputs, args.seed,
                                   facts, deadline))
        if time.perf_counter() > deadline:
            print(f"run limit of {RUN_LIMIT_S} s reached; logs in {WORK}", file=sys.stderr)
            return 1
        timed_setup()
        elapsed = time.perf_counter() - t_loop
        next_rep = median([r["wall_s"] for r in reps])
        if len(reps) >= len(pattern) and elapsed + next_rep > args.seconds:
            break
    for _ in range(SETUP_EDGE_REPEATS - 1):
        timed_setup()
    problems = [] if len(input_digests) == 1 else ["set-up is not deterministic"]

    for r in reps:
        problems += r["problems"]
    first = reps[0]["digests"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps[1:]:
        if r["digests"] != first:
            differing = sorted(n for n in first.keys() | r["digests"].keys()
                               if first.get(n) != r["digests"].get(n))
            problems.append(f"outputs differ between repetitions: {differing}")
            failed += r["attempted"] - r["failed"]
            if r["cells"]:
                r["cells"][1] = r["cells"][0]

    if args.workload == "extract":  # failed cells / attempted cells
        error_rate = (sum(r["cells"][1] for r in reps) / sum(r["cells"][0] for r in reps))
    else:
        error_rate = failed / attempted

    plain = [r for r in reps if not r["traced"]]
    wall = median([r["wall_s"] for r in plain])
    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        per_rep = [tracing.layer_metrics(r["spans"]) for r in traced_reps]
        metrics = {m["name"]: {"value": median([p[m["name"]] for p in per_rep]),
                               "unit": m["unit"]}
                   for m in tracing.metric_catalogue() if m["name"] != tracing.OVERHEAD}
        metrics[tracing.OVERHEAD] = {
            "value": median([r["wall_s"] for r in traced_reps]) - wall, "unit": "s"}
        counts_differ = [name for name in per_rep[0]
                         if name.rsplit(".", 1)[1] in tracing.COUNT_STATS
                         and any(p[name] != per_rep[0][name] for p in per_rep)]
        if counts_differ:
            problems.append(f"traced counts differ between repetitions: {counts_differ}")
    else:
        values = {"setup_s": median(setup_times), "wall_s": wall,
                  "cpu_s": median([r["cpu_s"] for r in plain]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "inputs": facts,
        "input_digest": sorted(input_digests)[0],
        "setup_s": setup_times,
        "repetitions": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb",
                                           "attempted", "failed", "cells", "problems")}
                        for r in reps],
        "output_sha256": first,
        "error_rate": error_rate,
        "problems": problems,
        "run_s": time.perf_counter() - started,
    }
    if args.workload == "extract":
        record["recordings_per_s"] = facts["recordings"] / wall
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
