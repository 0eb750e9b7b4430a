"""Process policy: one BLAS thread under pytest as on the command line, and
the command line's allocator policy, each checked against a clean process.

``phonassess/__init__.py`` pins BLAS to one thread, which only takes effect
if it runs before numpy is imported; ``conftest.py`` imports it first. The
allocator checks run in subprocesses, so this process keeps its allocator.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phonassess
from phonassess.synth import make_classification_cohort

SRC = str(Path(phonassess.__file__).resolve().parents[1])


def run_clean(script: str, *args: str):
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# ---- one BLAS thread ----------------------------------------------------------

# BLAS results as a process that imports phonassess first computes them
BLAS_VALUES = """
import json, phonassess
import numpy as np
rng = np.random.default_rng(0)
print(json.dumps([float(np.dot(*rng.standard_normal((2, n)))) for n in (32000, 100000, 400000)]))
"""


def test_blas_results_match_the_command_line_process():
    """Threaded BLAS splits a long dot product and rounds it differently."""
    rng = np.random.default_rng(0)
    dots = [float(np.dot(*rng.standard_normal((2, n)))) for n in (32000, 100000, 400000)]
    assert dots == run_clean(BLAS_VALUES)


# ---- the allocator policy -----------------------------------------------------

# minor faults added by 20 evaluations of np.exp(-u) on 4 MB, in this
# process and in a worker forked by ordered_map, with or without the policy
EXP_FAULTS = """
import json, resource, sys
import numpy as np
from phonassess.allocator import keep_freed_memory
from phonassess.parallel import ordered_map

def exp_faults(_):
    u = np.linspace(0.0, 1.0, 500000)
    np.exp(-u)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        np.exp(-u)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

kept = keep_freed_memory() if sys.argv[1] == "policy" else None
print(json.dumps([kept, exp_faults(0), ordered_map(exp_faults, [0, 1], 2)]))
"""


def test_freed_temporaries_stay_in_the_heap():
    kept, here, workers = run_clean(EXP_FAULTS, "policy")
    if not kept:
        pytest.skip("the C library has no glibc mallopt")
    default = run_clean(EXP_FAULTS, "default")
    assert default[0] is None
    # glibc's defaults unmap each temporary, so every evaluation faults it in
    assert default[1] > 20 * 500 and min(default[2]) > 20 * 500, default
    assert here < 100
    assert max(workers) < 100, workers


# extract with the C library replaced by a stub: without mallopt, or with a
# mallopt that refuses every value
STUB_EXTRACT = """
import json, sys, types
from phonassess import allocator, cli

calls = []

def refuse(param, value):
    calls.append([param, value])
    return 0

stub = types.SimpleNamespace(**({"mallopt": refuse} if sys.argv[1] == "refusing" else {}))
allocator.ctypes.CDLL = lambda name: stub
kept = allocator.keep_freed_memory()
code = cli.main(["extract", "--manifest", sys.argv[2], "--out", sys.argv[3], "--workers", "1"])
print(json.dumps([kept, calls, code]))
"""

# extract as the command line runs it
EXTRACT = """
import json, sys
from phonassess import cli
print(json.dumps(cli.main(["extract", "--manifest", sys.argv[1], "--out", sys.argv[2],
                            "--workers", "1"])))
"""


def test_without_mallopt_the_helper_does_nothing(tmp_path):
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=1,
                                          vowels=("a",), duration=1.0, seed=5)
    assert run_clean(EXTRACT, str(manifest), str(tmp_path / "policy")) == 0
    assert run_clean(STUB_EXTRACT, "none", str(manifest), str(tmp_path / "none")) == [
        False, [], 0]
    kept, calls, code = run_clean(STUB_EXTRACT, "refusing", str(manifest),
                                  str(tmp_path / "refusing"))
    assert (kept, code) == (False, 0)
    # the first refusal stops it: one call per helper run (the test's and cli.main's)
    assert calls == [[-3, 32 * 1024 * 1024]] * 2
    names = sorted(p.name for p in (tmp_path / "policy").iterdir())
    assert "features_all_s.csv" in names
    for stub in ("none", "refusing"):
        assert sorted(p.name for p in (tmp_path / stub).iterdir()) == names
        for name in names:
            assert ((tmp_path / stub / name).read_bytes()
                    == (tmp_path / "policy" / name).read_bytes()), (stub, name)
