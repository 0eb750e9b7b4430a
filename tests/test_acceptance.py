"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The numeric fixtures for criteria 1 and 2 are the published metric pairs the
formulas must reproduce; everything else runs against synthetic signals with
independent oracles.
"""
import json
import time
from itertools import combinations

import numpy as np
import pytest

from phonassess.audio import FRAME, HOP, frame_array
from phonassess.cli import EXIT_OK, main
from phonassess.errors import PhonassessError
from phonassess.evaluation import (SCALES, classification_metrics, estimation_errors,
                                   loo_validate, trade_off_sen_spe)
from phonassess.features.articulation import estimate_formants, vowel_space_features
from phonassess.features.emd import emd
from phonassess.features.phonation import jitter_features, shimmer_features
from phonassess.features.quality import noise_measures
from phonassess.features.registry import per_vowel_width
from phonassess.pitch import detect_cycles, estimate_f0
from phonassess.selection import LearnerSpec, _masked_objective, mrmr_rank, sffs
from phonassess.synth import add_noise_snr, make_regression_cohort, pulse_train, resonator_bank

from conftest import FS, alternating_pulse_train, harmonic_tone


def report(number, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# --- 1. TSS fixture ---------------------------------------------------------

TABLE2_ROWS = [
    # (sen %, spe %, printed tss)
    (79.76, 67.35, 1.7748), (78.57, 81.63, 1.8724), (84.52, 81.63, 1.9059),
    (89.29, 83.67, 1.9367), (79.76, 79.59, 1.8680), (71.43, 77.55, 1.7969),
    (91.67, 83.67, 1.9440), (83.33, 79.59, 1.8878), (72.62, 73.47, 1.7791),
    (78.57, 73.47, 1.8189), (77.38, 73.47, 1.8116), (86.90, 77.55, 1.8904),
    (73.81, 75.51, 1.8020), (83.33, 79.59, 1.8878), (78.57, 69.39, 1.7861),
    (77.38, 67.35, 1.7616), (77.38, 79.59, 1.8529), (83.33, 77.55, 1.8745),
    (83.33, 87.76, 1.9293), (86.90, 73.47, 1.8598), (83.33, 77.55, 1.8745),
    (82.14, 87.76, 1.9228), (83.33, 83.67, 1.9110), (92.86, 85.71, 1.9572),
]


def test_criterion_1_tss_fixture():
    start = time.perf_counter()
    worst = 0.0
    for sen, spe, expected in TABLE2_ROWS:
        got = trade_off_sen_spe(sen / 100.0, spe / 100.0)
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    report(1, worst <= 5e-4 and elapsed < 1.0,
           f"24 rows reproduced, worst |err| {worst:.2e}, {elapsed:.3f} s")


# --- 2. EE2 fixture ---------------------------------------------------------

EE2_ROWS = [
    (0.77, "mmse", 2.57), (1.30, "updrs4", 5.65), (5.70, "updrs3", 5.28),
    (11.48, "nmss", 3.19), (3.58, "acer", 3.58), (3.12, "bdi", 4.95),
    (2.30, "fog", 9.58), (1.54, "rbdsq", 11.85),
]


def test_criterion_2_ee2_fixture():
    worst = 0.0
    for mae, scale_id, expected in EE2_ROWS:
        _, ee2 = estimation_errors(mae, SCALES[scale_id], observed_range=max(4 * mae, 1.0))
        worst = max(worst, abs(ee2 - expected))
    missing_ok = all(
        estimation_errors(2.0, SCALES[s], observed_range=10.0)[1] is None
        for s in ("duration", "led")
    )
    report(2, worst <= 0.01 and missing_ok,
           f"8 bounded rows within {worst:.4f} pp; duration/LED report missing")


# --- 3. perturbation oracle -------------------------------------------------

def test_criterion_3_perturbation():
    start = time.perf_counter()
    x = alternating_pulse_train(FS, 2.0, 99 / FS, 101 / FS)  # whole-sample periods
    jit = jitter_features(detect_cycles(x, estimate_f0(x)))

    x2 = alternating_pulse_train(FS, 2.0, 0.010, 0.010, a1=0.9, a2=1.1)
    shm = shimmer_features(detect_cycles(x2, estimate_f0(x2)))

    ddp_exact = jit["jitter_ddp"] == 3.0 * jit["jitter_rap"]
    dda_exact = shm["shimmer_dda"] == 3.0 * shm["shimmer_apq3"]
    elapsed = time.perf_counter() - start
    ok = (abs(jit["jitter_local"] - 0.02) <= 0.001
          and abs(shm["shimmer_local"] - 0.20) <= 0.01
          and ddp_exact and dda_exact and elapsed < 5.0)
    report(3, ok, (f"jitter_local {100*jit['jitter_local']:.3f}% "
                   f"shimmer_local {100*shm['shimmer_local']:.2f}% "
                   f"ddp/dda exact, {elapsed:.2f} s"))


# --- 4. HNR monotonicity ----------------------------------------------------

def test_criterion_4_hnr_ladder():
    sig = harmonic_tone(FS, 2.0, 120.0, n_harmonics=10)
    values = []
    for snr in (0, 10, 20, 30):
        x = add_noise_snr(sig, snr, np.random.default_rng(42))
        hnr = noise_measures(x, estimate_f0(x))[0]
        values.append(hnr)
    within = all(abs(h - s) <= 2.0 for h, s in zip(values, (0, 10, 20, 30)))
    increasing = all(b > a for a, b in zip(values, values[1:]))
    report(4, within and increasing,
           "hnr at {0,10,20,30} dB = " + ", ".join(f"{v:.2f}" for v in values))


# --- 5. formant recovery ----------------------------------------------------

def test_criterion_5_formants_and_vsa():
    targets = (500.0, 1500.0, 2500.0)
    src = pulse_train(FS, 2.0, 100.0)
    y = resonator_bank(src, FS, targets, (60.0, 90.0, 120.0))
    track = estimate_formants(frame_array(y, FRAME, HOP))
    medians = (np.nanmedian(track.f1), np.nanmedian(track.f2), np.nanmedian(track.f3))
    rel = [abs(g - t) / t for g, t in zip(medians, targets)]
    vsa = vowel_space_features(800, 1200, 300, 2300, 350, 800)["vsa"]
    ok = max(rel) < 0.05 and vsa == 347_500.0
    report(5, ok, (f"formants {medians[0]:.0f}/{medians[1]:.0f}/{medians[2]:.0f} Hz "
                   f"(max err {100*max(rel):.1f}%), vsa == 347500 exactly"))


# --- 6. EMD identity --------------------------------------------------------

def test_criterion_6_emd():
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2000, 8000))
        kind = trial % 3
        t = np.arange(n) / FS
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:
            x = np.sin(2 * np.pi * rng.uniform(50, 400) * t) + 0.3 * rng.standard_normal(n)
        else:
            x = (np.sin(2 * np.pi * rng.uniform(50, 150) * t)
                 + np.sin(2 * np.pi * rng.uniform(300, 900) * t))
        modes = emd(x)
        rebuilt = np.sum(modes.imfs, axis=0) + modes.residual
        worst = max(worst, float(np.sqrt(np.mean((rebuilt - x) ** 2))))
    t2 = np.arange(2 * FS) / FS
    hi, lo = np.sin(2 * np.pi * 500 * t2), np.sin(2 * np.pi * 50 * t2)
    modes = emd(hi + lo)
    c_hi = abs(np.corrcoef(modes.imfs[0], hi)[0, 1])
    c_lo = abs(np.corrcoef(modes.imfs[1], lo)[0, 1])
    ok = worst <= 1e-8 and c_hi >= 0.95 and c_lo >= 0.95
    report(6, ok, (f"20 reconstructions worst rms {worst:.2e}; "
                   f"two-tone correlations {c_hi:.3f}/{c_lo:.3f}"))


# --- 7. selection oracles ---------------------------------------------------

def test_criterion_7_selection_oracles():
    start = time.perf_counter()
    spec = LearnerSpec(kind="cart", min_leaf=2)
    rng = np.random.default_rng(47)

    # SFFS vs exhaustive search on an XOR construction
    x1 = np.array([0, 0, 1, 1] * 6, dtype=float)
    x2 = np.array([0, 1, 0, 1] * 6, dtype=float)
    y = np.where((x1 + x2) % 2 == 1, "PD", "HC")
    X = np.column_stack([rng.normal(0, 1, 24), x1, x2, rng.normal(0, 1, 24)])
    res = sffs(X, y, ["n1", "x1", "x2", "n2"], spec, patience=3)
    exhaustive = max(
        _masked_objective(X, y, list(c), spec)[0]
        for r in range(1, 5) for c in combinations(range(4), r)
    )
    xor_ok = {"x1", "x2"} <= set(res.selected) and abs(res.objective - exhaustive) < 1e-9

    # SFFS vs exhaustive on a separable 6-feature instance
    Xs = rng.normal(0, 1, (30, 6))
    Xs[:15, 2] += 3.0
    ys = np.array(["PD"] * 15 + ["HC"] * 15)
    res2 = sffs(Xs, ys, list("abcdef"), spec, patience=2)
    ex2 = max(
        _masked_objective(Xs, ys, list(c), spec)[0]
        for r in range(1, 4) for c in combinations(range(6), r)
    )
    sep_ok = abs(res2.objective - ex2) < 1e-9

    # mRMR vs brute-force greedy objective on 5 features
    yr = rng.normal(0, 1, 120)
    cols = [yr + rng.normal(0, 0.1, 120), yr + rng.normal(0, 0.1, 120),
            0.5 * yr + rng.normal(0, 0.6, 120), rng.normal(0, 1, 120),
            rng.normal(0, 1, 120)]
    Xm = np.column_stack(cols)
    from phonassess.selection import quantile_discretize
    from test_mrmr_oracle import _discrete_mi  # the former per-pair MI, verbatim
    disc = [quantile_discretize(c) for c in cols]
    ty = quantile_discretize(yr)
    rel = [_discrete_mi(c, ty) for c in disc]
    selected = [int(np.argmax(rel))]
    remaining = [j for j in range(5) if j not in selected]
    while remaining:
        scores = [rel[j] - np.mean([_discrete_mi(disc[j], disc[s]) for s in selected])
                  for j in remaining]
        selected.append(remaining.pop(int(np.argmax(scores))))
    mrmr_ok = mrmr_rank(Xm, yr, k=5) == selected

    elapsed = time.perf_counter() - start
    ok = xor_ok and sep_ok and mrmr_ok and elapsed < 30.0
    report(7, ok, (f"xor pair {sorted(res.selected)}, objectives match exhaustive, "
                   f"mRMR matches greedy oracle, {elapsed:.1f} s"))


# --- 8. model / protocol ----------------------------------------------------

def test_criterion_8_model_protocol():
    rng = np.random.default_rng(66)
    X = np.vstack([rng.normal(0, 0.4, (12, 3)), rng.normal(4, 0.4, (12, 3))])
    y = np.array(["HC"] * 12 + ["PD"] * 12)
    spec = LearnerSpec(kind="forest", n_trees=30, seed=7)
    loo = loo_validate(X, y, spec)
    metrics = classification_metrics(loo.predictions, y)

    # poisoning: an outlier target must not leak into its own fold
    Xp = rng.uniform(0, 1, (12, 1))
    yp = np.full(12, 5.0)
    yp[4] = 500.0
    loo_p = loo_validate(Xp, yp, LearnerSpec(min_leaf=6))
    poison_ok = abs(loo_p.predictions[4] - 5.0) < 1.0

    again = loo_validate(X, y, spec)
    identical = list(loo.predictions) == list(again.predictions)
    ok = metrics.acc == 100.0 and poison_ok and identical
    report(8, ok, (f"blobs LOO acc {metrics.acc:.0f}%, poison fold isolated, "
                   f"fixed-seed rerun identical"))


# --- 9. end-to-end synthetic cohort ----------------------------------------

@pytest.mark.slow
def test_criterion_9_end_to_end(tmp_path):
    start = time.perf_counter()
    manifest = make_regression_cohort(tmp_path / "cohort", n_subjects=40,
                                      vowels=("a",), tasks=("s",),
                                      target="updrs3", seed=7)
    feats = tmp_path / "feats"
    assert main(["extract", "--manifest", str(manifest), "--out", str(feats),
                 "--scope", "a_s"]) == EXIT_OK

    reports = tmp_path / "reports"
    assert main(["regress", "--features", str(feats), "--out", str(reports),
                 "--scope", "a_s", "--target", "updrs3",
                 "--mrmr-k", "40", "--sffs-patience", "1", "--seed", "3"]) == EXIT_OK
    regression = json.loads((reports / "regression_updrs3.json").read_text())
    mae = regression["best"]["mae"]
    observed_range = regression["rows"][0]["observed_range"]

    assert main(["correlate", "--features", str(feats), "--out", str(reports),
                 "--scope", "a_s"]) == EXIT_OK
    panels = json.loads((reports / "correlations.json").read_text())
    upd = next(p for p in panels if p["scale"] == "updrs3")

    elapsed = time.perf_counter() - start
    ok = (abs(upd["rho"]) >= 0.9 and upd["p"] < 0.01
          and mae <= 0.15 * observed_range and elapsed < 300.0)
    report(9, ok, (f"best |rho| {abs(upd['rho']):.3f} (p {upd['p']:.2e}) via {upd['feature']}, "
                   f"LOO MAE {mae:.2f} = {100*mae/observed_range:.1f}% of range, "
                   f"{elapsed:.0f} s"))


# --- 10. registry width -----------------------------------------------------

def test_criterion_10_registry_width():
    width = per_vowel_width()
    report(10, 300 <= width <= 400, f"per-vowel feature count {width}")
