"""Which scipy modules each command loads, checked in a clean interpreter.

``import phonassess.cli`` loads no scipy module; ``classify`` and
``regress`` run without one, and ``correlate`` loads ``scipy.special``
only. ``extract`` imports the extraction stack's scipy modules,
``scipy.fft``, ``scipy.linalg`` and ``scipy.special``, before it forks its
workers, so they inherit them, and extraction loads no other scipy
subpackage.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import phonassess
from phonassess.synth import make_classification_cohort
from phonassess.table import FeatureMatrix

SRC = str(Path(phonassess.__file__).resolve().parents[1])

# runs cli.main on each argv in sys.argv[1] (JSON) and prints the exit codes
# and the scipy modules loaded after the import and after each command
RUN_COMMANDS = """
import json, sys
from phonassess import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    seen.append([argv[0], cli.main(argv), scipy_modules()])
print(json.dumps(seen))
"""

# runs extract with --workers 2, recording which scipy modules are loaded
# when cmd_extract calls ordered_map, then again with --workers 1, and prints
# the scipy modules loaded at the end
RECORD_PRE_FORK = """
import json, sys
from phonassess import cli

real_map = cli.ordered_map
loaded = []

def recording_map(fn, items, workers):
    loaded.append([workers, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
    return real_map(fn, items, workers)

cli.ordered_map = recording_map
manifest, out = sys.argv[1:]
codes = [cli.main(["extract", "--manifest", manifest, "--out", f"{out}{workers}",
                   "--workers", workers]) for workers in ("2", "1")]
print(json.dumps([codes, loaded, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_clean(script: str, *args: str):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def subpackages(modules: list[str]) -> set[str]:
    """Public scipy subpackages among loaded module names."""
    return {m.split(".")[1] for m in modules
            if m.count(".") and not m.split(".")[1].startswith("_") and m != "scipy.version"}


def test_commands_load_only_the_scipy_they_call(tmp_path):
    rng = np.random.default_rng(0)
    n = 12
    updrs3 = np.arange(n, dtype=float) * 3.0
    values = np.column_stack([updrs3 + rng.normal(0, 0.5, n), rng.normal(0, 1, (n, 3))])
    groups = ["PD", "HC"] * (n // 2)
    FeatureMatrix(scope="a_s", subject_ids=[f"S{i:02d}" for i in range(n)],
                  columns=[f"c{j}" for j in range(values.shape[1])], values=values,
                  groups=groups, scores={"updrs3": updrs3}).to_csv(tmp_path / "features_a_s.csv")
    common = ["--features", str(tmp_path), "--scope", "a_s", "--mrmr-k", "3",
              "--sffs-patience", "1"]
    commands = [["classify", "--out", str(tmp_path / "c"), "--trees", "3", *common],
                ["regress", "--out", str(tmp_path / "r"), "--target", "updrs3", *common],
                ["correlate", "--features", str(tmp_path), "--scope", "a_s",
                 "--out", str(tmp_path / "k")]]
    seen = run_clean(RUN_COMMANDS, json.dumps(commands))

    assert [(name, code) for name, code, _ in seen] == [
        ("import", 0), ("classify", 0), ("regress", 0), ("correlate", 0)]
    for name, _, modules in seen[:3]:
        assert modules == [], name
    correlate_modules = seen[3][2]
    assert subpackages(correlate_modules) == {"special"}
    for absent in ("signal", "stats", "io", "interpolate", "linalg"):
        assert f"scipy.{absent}" not in correlate_modules
    assert (tmp_path / "k" / "correlations.json").exists()


def test_extract_imports_scipy_before_forking(tmp_path):
    manifest = make_classification_cohort(tmp_path / "cohort", n_pd=1, n_hc=1,
                                          vowels=("a",), duration=1.0, seed=5)
    codes, loaded, after = run_clean(RECORD_PRE_FORK, str(manifest), str(tmp_path / "feats"))

    assert codes == [0, 0]
    assert [workers for workers, _ in loaded] == [2, 1]
    assert subpackages(loaded[0][1]) == {"fft", "linalg", "special"}
    # --workers 1 extracted in this process: what extraction calls loaded nothing more
    assert subpackages(after) == {"fft", "linalg", "special"}
    for absent in ("signal", "interpolate", "io", "stats", "sparse", "optimize", "ndimage"):
        assert f"scipy.{absent}" not in after, absent
    names = sorted(p.name for p in (tmp_path / "feats2").iterdir())
    assert "features_all_s.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "feats1").iterdir())
    for name in names:
        assert ((tmp_path / "feats2" / name).read_bytes()
                == (tmp_path / "feats1" / name).read_bytes()), name
