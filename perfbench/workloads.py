"""Seeded inputs, command sequences and output checks for each workload.

The program only ever sees what ``setup`` writes: WAV files and a manifest
for ``extract``, one feature CSV for ``regress`` and ``classify``. All
inputs derive from the seed, so the same seed gives byte-identical inputs.

Why each workload exists (also in BENCHMARK.json):

- ``extract``: extraction cost depends on signal quality, so the cohort
  mixes clean HC-like and noisy PD-like voices over all five vowels; two
  vowels are written at 22.05 kHz so resampling runs too. Nearly all time
  is in audio, pitch, features.* and table writing.
- ``regress``: CART selection on a single-vowel matrix. SFFS ->
  loo_objective -> train_cart dominate; mRMR sees a narrow matrix. Also
  exercises reading feature CSVs and the correlate scan.
- ``classify``: forest selection on a wide all-vowel matrix. Bootstrapped,
  feature-subsampled trees with voting use the models layer differently
  from regress, and mRMR gets its widest input.

Matrix properties both selection workloads vary: a few informative columns
plus correlated redundant copies (mRMR redundancy), values quantized so
that ties occur (tie rules and split masks), about 1 % missing cells
(row dropping and pairwise-complete MI) and some constant columns (the
usable-column filter). The informative columns are built so that SFFS
takes the same number of steps at every seed; otherwise the seed, not the
program, would decide most of the run-to-run spread of the timings.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # for checking claims; never used while tuning a change

# classify output floor: TSS in [1, 2]; the inputs separate perfectly (2.0)
CLASSIFY_TSS_FLOOR = 1.9
# regress floors, acceptance criterion 9
REGRESS_EE1_MAX_PERCENT = 15.0
CORRELATE_RHO_MIN = 0.9

VOWELS = ("a", "e", "i", "o", "u")
RESAMPLED_VOWELS = ("e", "o")
RESAMPLED_RATE = 22_050
RECORDING_S = 2.0
EXTRACT_SUBJECTS = 2          # half clean HC-like, half noisy PD-like

REGRESS_SUBJECTS = 40
REGRESS_ARGS = ["--target", "updrs3", "--mrmr-k", "30", "--sffs-patience", "1"]
CLASSIFY_SUBJECTS = 32
CLASSIFY_ARGS = ["--trees", "5", "--mrmr-k", "16", "--sffs-patience", "1"]

REDUNDANT_PER_INFORMATIVE = 2
CONSTANT_COLUMNS = 6
MISSING_FRACTION = 0.01
QUANT_STEP = 0.05             # grid before scaling: ties occur
COPY_NOISE = 0.04             # bound of the noise a redundant copy adds

SCORE_COLUMNS = ("acer", "bdi", "duration", "fog", "led", "mmse", "nmss", "rbdsq",
                 "updrs3", "updrs4")  # sorted, as the program writes them
MANIFEST_HEADER = ["subject_id", "group", "sex", "age", "duration", "updrs3", "updrs4",
                   "rbdsq", "fog", "nmss", "bdi", "mmse", "acer", "led"]


# ---- input generators ---------------------------------------------------

def _extract_inputs(out: Path, seed: int) -> dict:
    from phonassess.audio import write_wav
    from phonassess.features.registry import REGISTRY
    from phonassess.synth import VOWEL_FORMANTS, synth_vowel

    rng = np.random.default_rng(seed)
    header = MANIFEST_HEADER + [f"path_{v}_s" for v in VOWELS]
    rows = []
    for i in range(EXTRACT_SUBJECTS):
        is_pd = i % 2 == 1
        sid = f"{'P' if is_pd else 'H'}{i:03d}"
        jitter = rng.uniform(2.5, 4.0) if is_pd else rng.uniform(0.1, 0.5)
        snr = rng.uniform(8.0, 12.0) if is_pd else rng.uniform(28.0, 32.0)
        row = {"subject_id": sid, "group": "PD" if is_pd else "HC",
               "sex": "F" if i % 2 else "M", "age": 60 + i}
        for v in VOWELS:
            fs = RESAMPLED_RATE if v in RESAMPLED_VOWELS else 16_000
            x = synth_vowel(fs=fs, duration=RECORDING_S, f0=105.0 + 40.0 * rng.random(),
                            formants=VOWEL_FORMANTS[v], jitter_pct=jitter,
                            shimmer_pct=2.0 * jitter, snr_db=snr,
                            seed=int(rng.integers(1 << 30)))
            name = f"{sid}_{v}_s.wav"
            write_wav(out / name, x, fs)
            row[f"path_{v}_s"] = name
        rows.append(row)
    with open(out / "manifest.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in header})
    return {"recordings": EXTRACT_SUBJECTS * len(VOWELS), "features": len(REGISTRY)}


def _matrix_values(rng, informative: list[np.ndarray], n_cols: int) -> tuple[np.ndarray, list[int]]:
    """A subjects x n_cols matrix holding the given informative columns.

    Each informative column gets REDUNDANT_PER_INFORMATIVE copies with
    bounded noise, which keeps the gaps the columns are built with;
    CONSTANT_COLUMNS columns are constant and the rest are standard normal
    noise. Values are quantized (ties) and every column gets its own affine
    scale. MISSING_FRACTION of the noise cells are missing; the informative
    columns and their copies stay complete, so that selection takes the
    same path at every seed. Returns the matrix and the positions of the
    informative columns.
    """
    n = len(informative[0])
    X = rng.standard_normal((n, n_cols))
    missing = rng.random(X.shape) < MISSING_FRACTION
    cols = [int(c) for c in rng.permutation(n_cols)]
    positions = cols[:len(informative)]
    k = len(informative)
    for j, column in zip(positions, informative):
        X[:, j] = column
        for _ in range(REDUNDANT_PER_INFORMATIVE):
            X[:, cols[k]] = column + rng.uniform(-COPY_NOISE, COPY_NOISE, n)
            k += 1
    missing[:, cols[:k]] = False
    X[:, cols[k:k + CONSTANT_COLUMNS]] = 1.0
    X = np.round(X / QUANT_STEP) * QUANT_STEP
    X[missing] = np.nan
    scale = np.exp(rng.uniform(-3.0, 3.0, n_cols))
    offset = rng.uniform(-5.0, 5.0, n_cols)
    return X * scale + offset, positions


def _write_matrix(path: Path, ids, groups, scores: dict, columns, values) -> None:
    """Feature CSV in the layout ``phonassess extract`` writes."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject_id", "group", *SCORE_COLUMNS, *columns])
        for i, sid in enumerate(ids):
            row = [sid, groups[i]]
            for s in SCORE_COLUMNS:
                v = scores.get(s, [np.nan] * len(ids))[i]
                row.append("" if np.isnan(v) else f"{v:.12g}")
            row.extend("" if np.isnan(v) else f"{v:.12g}" for v in values[i])
            w.writerow(row)


def _balanced_bits(rng, n: int, bits: int) -> list[np.ndarray]:
    """``bits`` binary factors whose 2**bits combinations are equally frequent."""
    cells = rng.permutation(np.arange(n) % (1 << bits))
    return [(cells >> b) & 1 for b in range(bits)]


def _regress_inputs(out: Path, seed: int) -> dict:
    """updrs3 takes four levels set by a major and a minor binary factor.

    A severity column ranks the subjects (Spearman above 0.9) but shows the
    wrong minor level for two subjects of one major level. Their values sit
    in the middle of the other level's evenly spread band, so CART on
    severity alone always errs; with the minor factor's column every LOO
    prediction is exact. SFFS therefore takes the same three steps at every
    seed: severity, the minor column, one more column, plus one floating
    pass that re-scores a subset already scored.
    """
    from phonassess.features.registry import column_names

    rng = np.random.default_rng(seed)
    columns = column_names()
    n = REGRESS_SUBJECTS
    minor, major = _balanced_bits(rng, n, 2)
    updrs3 = 10.0 + 24.0 * major + 6.0 * minor
    shown = minor.copy()
    level = rng.integers(2)
    swapped = [rng.choice(np.flatnonzero((major == level) & (minor == m))) for m in (0, 1)]
    shown[swapped] = 1 - minor[swapped]
    offset = np.zeros(n)
    for band in range(4):
        members = np.flatnonzero(2 * major + shown == band)
        offset[members] = rng.permutation(np.linspace(-0.2, 0.2, len(members)))
    offset[swapped] = 0.0
    severity = 3.0 * major + shown + offset
    minor_col = minor + rng.uniform(-0.2, 0.2, n)
    values, informative = _matrix_values(rng, [severity, minor_col], len(columns))
    ids = [f"S{i:03d}" for i in range(n)]
    _write_matrix(out / "features_a_s.csv", ids, ["PD"] * n, {"updrs3": updrs3},
                  columns, values)
    return {"subjects": n, "columns": len(columns),
            "informative": [columns[j] for j in informative]}


def _classify_inputs(out: Path, seed: int) -> dict:
    """PD and HC separate on one column (and its copies) with a clear gap."""
    from phonassess.features.registry import column_names
    from phonassess.table import CROSS_VOWEL_NAMES

    rng = np.random.default_rng(seed)
    base = column_names(include_cross_vowel=False)
    columns = [f"{v}_{c}" for v in VOWELS for c in base] + list(CROSS_VOWEL_NAMES)
    n = CLASSIFY_SUBJECTS
    (is_pd,) = _balanced_bits(rng, n, 1)
    marker = is_pd + rng.uniform(-0.2, 0.2, n)
    values, informative = _matrix_values(rng, [marker], len(columns))
    ids = [f"{'P' if pd else 'H'}{i:03d}" for i, pd in enumerate(is_pd)]
    groups = ["PD" if pd else "HC" for pd in is_pd]
    _write_matrix(out / "features_all_s.csv", ids, groups, {}, columns, values)
    return {"subjects": n, "columns": len(columns),
            "informative": [columns[j] for j in informative]}


SETUP = {"extract": _extract_inputs, "regress": _regress_inputs,
         "classify": _classify_inputs}


def setup(workload: str, out: Path, seed: int) -> dict:
    """Write the workload's inputs for ``seed`` into ``out``; returns facts."""
    out.mkdir(parents=True, exist_ok=True)
    return SETUP[workload](out, seed)


# ---- command sequences --------------------------------------------------

def commands(workload: str, inputs: Path, out: Path, seed: int) -> list[list[str]]:
    """The phonassess argument lists one repetition runs, in order."""
    common = ["--out", str(out), "--seed", str(seed)]
    if workload == "extract":
        return [["extract", "--manifest", str(inputs / "manifest.csv"),
                 "--scope", "a_s,all_s", *common]]
    if workload == "regress":
        feats = ["--features", str(inputs), "--scope", "a_s", *common]
        return [["regress", *REGRESS_ARGS, *feats], ["correlate", *feats]]
    return [["classify", *CLASSIFY_ARGS, "--features", str(inputs),
             "--scope", "all_s", *common]]


OUTPUTS = {
    "extract": ("features_a_s.csv", "features_all_s.csv", "registry.json",
                "extraction_log.json"),
    "regress": ("regression_updrs3.json", "correlations.json"),
    "classify": ("classification.json",),
}


# ---- output checks ------------------------------------------------------
# One check per command, in command order; each returns its problems. An
# operation is one recording on extract and one command elsewhere: it fails
# when its command exits non-zero or its check finds a problem.

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _missing(out: Path, names) -> list[str]:
    return [f"missing output {name}" for name in names if not (out / name).is_file()]


def _check_extract(out: Path, facts: dict):
    from phonassess.features.registry import column_names

    n_rec = facts["recordings"]
    problems = _missing(out, OUTPUTS["extract"])
    if problems:
        return problems
    log = json.loads((out / "extraction_log.json").read_text())
    if log["recordings_extracted"] != n_rec:
        problems.append(f"extracted {log['recordings_extracted']} of {n_rec} recordings")

    header, rows = _read_csv(out / "features_a_s.csv")
    if header[2 + len(SCORE_COLUMNS):] != column_names():
        problems.append("features_a_s.csv columns differ from the registry")
    if len(rows) != EXTRACT_SUBJECTS:
        problems.append(f"features_a_s.csv has {len(rows)} rows")
    else:
        # the PD-like voices carry several times the HC-like jitter
        j = header.index("jitter_local_median")
        by_group = {r[1]: float(r[j]) for r in rows if r[j]}
        if not by_group.get("PD", 0.0) > 2.0 * by_group.get("HC", np.inf):
            problems.append(f"jitter_local_median does not separate the groups: {by_group}")
    header, rows = _read_csv(out / "features_all_s.csv")
    width = len(header) - 2 - len(SCORE_COLUMNS)
    expected = len(VOWELS) * len(column_names(include_cross_vowel=False)) + 5
    if width != expected or len(rows) != EXTRACT_SUBJECTS:
        problems.append(f"features_all_s.csv is {len(rows)} x {width}, want "
                        f"{EXTRACT_SUBJECTS} x {expected}")
    return problems


def _check_regression(out: Path, facts: dict):
    problems = _missing(out, ["regression_updrs3.json"])
    if problems:
        return problems
    row = json.loads((out / "regression_updrs3.json").read_text())["rows"][0]
    ee1 = 100.0 * row["mae"] / row["observed_range"]
    if not ee1 <= REGRESS_EE1_MAX_PERCENT:
        problems.append(f"regress MAE is {ee1:.2f} % of the observed range "
                        f"(> {REGRESS_EE1_MAX_PERCENT} %)")
    return problems


def _check_correlations(out: Path, facts: dict):
    problems = _missing(out, ["correlations.json"])
    if problems:
        return problems
    panels = {p["scale"]: p for p in json.loads((out / "correlations.json").read_text())}
    rho = panels.get("updrs3", {}).get("rho")
    if rho is None or not abs(rho) >= CORRELATE_RHO_MIN:
        problems.append(f"correlate |rho| for updrs3 is {rho} (< {CORRELATE_RHO_MIN})")
    return problems


def _check_classification(out: Path, facts: dict):
    problems = _missing(out, ["classification.json"])
    if problems:
        return problems
    tss = json.loads((out / "classification.json").read_text())[0]["tss"]
    if not tss >= CLASSIFY_TSS_FLOOR:
        problems.append(f"classify TSS {tss} is below the floor {CLASSIFY_TSS_FLOOR}")
    return problems


def failed_cells(out: Path) -> int | None:
    """(recording, feature) cells extraction_log.json lists as failed."""
    path = out / "extraction_log.json"
    if not path.is_file():
        return None
    return sum(json.loads(path.read_text())["per_feature_failures"].values())


CHECKS = {"extract": [_check_extract],
          "regress": [_check_regression, _check_correlations],
          "classify": [_check_classification]}
