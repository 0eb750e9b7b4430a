"""Checks of the benchmark itself: seeded inputs, repeatable counts, catalogue.

Run from the repository root: python3 -m pytest -q perfbench/tests
The traced-count test runs each workload's command sequence twice (an
extract repetition takes about half a minute on two cores).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing, workloads  # noqa: E402

WORKLOADS = ("extract", "regress", "classify")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_inputs(workload, tmp_path):
    digests = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        workloads.setup(workload, tmp_path / name, seed)
        digests[name] = run.tree_digest(tmp_path / name)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    seed = workloads.DEFAULT_SEED
    facts = workloads.setup(workload, tmp_path / "inputs", seed)
    deadline = run.time.perf_counter() + 600
    reps = [run.run_repetition(workload, k, True, tmp_path / "inputs", seed, facts, deadline)
            for k in range(2)]
    for rep in reps:
        assert rep["problems"] == []
        assert rep["failed"] == 0
    assert reps[0]["digests"] == reps[1]["digests"]

    first, second = (tracing.layer_metrics(rep["spans"]) for rep in reps)
    counts = [name for name in first if name.rsplit(".", 1)[1] in tracing.COUNT_STATS]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    command = {"extract": "cli.cmd_extract", "regress": "cli.cmd_regress",
               "classify": "cli.cmd_classify"}[workload]
    assert first[f"{command}.calls"] == 1


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.metric_catalogue()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
