"""Spans around calls into phonassess, recorded from outside the program.

``install`` replaces each function below, at every name its callers look
up, with a wrapper that records one span per call: (id, name, start, end,
parent id, run id, raised PhonassessError, extra). Spans stay in memory;
the child process writes them out when its command ends.
``layer_metrics`` turns the spans of one repetition into the per-layer
metrics named ``<module>.<function>.<stat>``.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import time

import numpy as np


# Extra per-call values, computed after the call from (args, result).
def _rows(args, result) -> int:
    return int(np.shape(args[0])[0])


def _trees(args, result) -> int:
    return len(result.trees)


def _folds(args, result) -> list[int]:
    return [int(np.shape(args[0])[0]), len(result.failed_folds)]


def _cells(args, result) -> list[int]:
    return [len(result.failures), len(result.features)]


def _problem(args, result) -> str:
    """Digest of the (X, y) a LOO objective scores."""
    X = np.ascontiguousarray(args[0], dtype=np.float64)
    h = hashlib.sha1(str(X.shape).encode())
    h.update(X.tobytes())
    h.update("\x1f".join(map(str, np.asarray(args[1]).tolist())).encode())
    return h.hexdigest()



PHONATION = ("energy_features", "ppe", "jitter_features", "shimmer_features",
             "glottal_quotient_stds")
QUALITY = ("frame_voicing", "temporal_quality", "spectral_quality", "modulation_measures",
           "cepstral_quality", "noise_measures")
NONLINEAR = ("fmmi", "embed", "complexity_features", "entropy_features", "katz_fd",
             "normalized_lempel_ziv")

# (layer module, function, modules whose global callers look the function up,
#  extra stats beyond calls and busy_s, per-call extra value or None)
FUNCTIONS = [
    *[("cli", f, ("cli",), (), None)
      for f in ("cmd_extract", "cmd_regress", "cmd_classify", "cmd_correlate")],
    ("audio", "load_recording", ("cli",), (), None),
    ("audio", "resample", ("features.extract",), (), None),
    ("pitch", "estimate_f0", ("features.extract", "pitch"), ("fail_frac",), None),
    ("pitch", "detect_cycles", ("features.extract",), ("fail_frac",), None),
    ("features.extract", "extract_recording", ("cli",),
     ("self_s", "fail_frac", "failed_cell_frac"), _cells),
    *[("features.phonation", f, ("features.phonation",), ("fail_frac",), None)
      for f in PHONATION],
    *[("features.quality", f, ("features.quality",), ("fail_frac",), None) for f in QUALITY],
    ("features.articulation", "estimate_formants", ("features.articulation",),
     ("fail_frac",), None),
    *[("features.emd", f, ("features.emd",), ("fail_frac",), None)
      for f in ("emd", "imf_features")],
    *[("features.highorder", f, ("features.highorder",), ("fail_frac",), None)
      for f in ("estimate_bispectrum", "bispectral_features", "bicepstral_features")],
    *[("features.nonlinear", f, ("features.nonlinear",), ("fail_frac",), None)
      for f in NONLINEAR],
    ("table", "build_matrix", ("cli",), (), None),
    ("table", "FeatureMatrix.to_csv", ("table",), (), None),
    ("table", "FeatureMatrix.from_csv", ("table",), (), None),
    ("selection", "mrmr_rank", ("cli",), (), None),
    ("selection", "sffs", ("cli",), ("self_s",), None),
    ("selection", "loo_objective", ("selection",), ("self_s", "repeat_frac"), _problem),
    ("models", "train_cart", ("selection", "models"), ("rows_mean",), _rows),
    ("models", "train_forest", ("selection",), ("self_s", "trees"), _trees),
    ("models", "predict", ("cli", "selection"), (), None),
    ("evaluation", "loo_validate", ("cli", "selection"),
     ("self_s", "folds", "failed_fold_frac"), _folds),
    ("evaluation", "spearman", ("cli", "evaluation"), (), None),
    ("evaluation", "correlation_graph_data", ("cli",), (), None),
]

STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "fail_frac": "ratio",
              "repeat_frac": "ratio", "rows_mean": "rows", "trees": "count",
              "folds": "count", "failed_fold_frac": "ratio", "failed_cell_frac": "ratio"}
OVERHEAD = "trace.overhead_s"
# stats that count work and must repeat exactly at one seed
COUNT_STATS = ("calls", "folds", "trees", "rows_mean", "repeat_frac", "fail_frac",
               "failed_fold_frac", "failed_cell_frac")


def metric_catalogue() -> list[dict]:
    """Every per-layer metric, in report order, as BENCHMARK.json lists them."""
    out = []
    for layer, fn, _, stats, _ in FUNCTIONS:
        for stat in ("calls", "busy_s", *stats):
            out.append({"name": f"{layer}.{fn}.{stat}", "unit": STAT_UNITS[stat],
                        "better": "lower"})
    out.append({"name": OVERHEAD, "unit": "s", "better": "lower"})
    return out


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extra, error_type):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, run_id,
                    False, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                span[6] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[7] = extra(args, result)
            return result
        return traced


def _resolve(owner, path: str):
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every function in FUNCTIONS at each of its bindings.

    Fails loudly when a binding is missing or is not the layer's own
    function, so a moved call site never goes silently untraced.
    """
    from phonassess.errors import PhonassessError

    for layer, fn, bindings, _, extra in FUNCTIONS:
        home, attr = _resolve(importlib.import_module(f"phonassess.{layer}"), fn)
        original = getattr(home, attr)
        sites = [_resolve(importlib.import_module(f"phonassess.{b}"), fn) for b in bindings]
        for (owner, name), binding in zip(sites, bindings):
            if getattr(owner, name) != original:  # == also matches bound classmethods
                raise RuntimeError(f"phonassess.{binding}.{fn} is not phonassess.{layer}.{fn}")
        raw = vars(home)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(f"{layer}.{fn}", raw.__func__, extra,
                                              PhonassessError))
        else:
            wrapped = tracer.wrap(f"{layer}.{fn}", raw, extra, PhonassessError)
        for owner, name in sites:
            setattr(owner, name, wrapped)


def layer_metrics(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one repetition from the spans of its processes."""
    acc: dict[str, dict] = {f"{layer}.{fn}": {"calls": 0, "busy": 0.0, "self": 0.0,
                                              "failed": 0, "extra": []}
                            for layer, fn, *_ in FUNCTIONS}
    for spans in processes:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        for span in spans:
            a = acc[span[1]]
            a["calls"] += 1
            a["failed"] += span[6]
            a["self"] += span[3] - span[2] - child_time[span[0]]
            if span[7] is not None:
                a["extra"].append(span[7])
            parent = span[4]
            while parent >= 0 and spans[parent][1] != span[1]:
                parent = spans[parent][4]
            if parent < 0:  # outermost call of this name: count its time once
                a["busy"] += span[3] - span[2]

    out: dict[str, float] = {}
    for layer, fn, _, stats, _ in FUNCTIONS:
        name = f"{layer}.{fn}"
        a = acc[name]
        calls = a["calls"]
        values = {"calls": calls, "busy_s": a["busy"], "self_s": a["self"],
                  "fail_frac": a["failed"] / calls if calls else 0.0}
        if "rows_mean" in stats:
            values["rows_mean"] = float(np.mean(a["extra"])) if a["extra"] else 0.0
        if "trees" in stats:
            values["trees"] = int(sum(a["extra"]))
        if "folds" in stats:
            folds = sum(f for f, _ in a["extra"])
            values["folds"] = folds
            values["failed_fold_frac"] = sum(x for _, x in a["extra"]) / folds if folds else 0.0
        if "failed_cell_frac" in stats:
            cells = sum(total for _, total in a["extra"])
            values["failed_cell_frac"] = sum(f for f, _ in a["extra"]) / cells if cells else 0.0
        if "repeat_frac" in stats:
            values["repeat_frac"] = ((len(a["extra"]) - len(set(a["extra"]))) / len(a["extra"])
                                     if a["extra"] else 0.0)
        for stat in ("calls", "busy_s", *stats):
            out[f"{name}.{stat}"] = values[stat]
    return out
