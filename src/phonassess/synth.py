"""Synthetic phonation signals and desk-scale cohorts.

The clinical corpus behind the reported tables is private, so every test
and demo runs on signals generated here: glottal pulse trains with
controlled period/amplitude perturbation, resonance-filtered vowels, and
manifests binding generated recordings to synthetic clinical scores.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .audio import write_wav
from .manifest import SCORE_COLUMNS

DEFAULT_FS = 16_000
PULSE_WIDTH_S = 0.001
FORMANT_BANDWIDTHS = (80.0, 100.0, 150.0)  # Hz, of the three resonators


def pulse_train(
    fs: int,
    duration: float,
    f0: float = 100.0,
    jitter_pct: float = 0.0,
    shimmer_pct: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Impulse-like glottal source: PULSE_WIDTH_S pulses whose period and
    amplitude each cycle deviate uniformly within +-jitter_pct and
    +-shimmer_pct percent."""
    rng = np.random.default_rng(seed)
    n = int(fs * duration)
    x = np.zeros(n)
    w = max(1, int(PULSE_WIDTH_S * fs))
    base = fs / f0
    pos = 0.0
    while pos < n - w - base:
        dev_t = jitter_pct / 100.0 * rng.uniform(-1, 1)
        dev_a = shimmer_pct / 100.0 * rng.uniform(-1, 1)
        i = int(round(pos))
        x[i : i + w] = 1.0 + dev_a
        pos += base * (1.0 + dev_t)
    return x


def duty_train(fs: int, duration: float, f0: float = 100.0, duty: float = 0.3) -> np.ndarray:
    """Rectangular train with a fixed open fraction per cycle."""
    t = np.arange(int(fs * duration)) / fs
    return np.where((t * f0) % 1.0 < duty, 1.0, 0.0)


def resonator_bank(x: np.ndarray, fs: int, freqs, bws) -> np.ndarray:
    """Run x through a cascade of two-pole resonators (unit gain at peak)."""
    y = x.astype(np.float64)
    for f, bw in zip(freqs, bws):
        r = np.exp(-np.pi * bw / fs)
        theta = 2 * np.pi * f / fs
        a = [1.0, -2 * r * np.cos(theta), r * r]
        b = [(1 - r) * np.sqrt(1 - 2 * r * np.cos(2 * theta) + r * r)]
        y = lfilter(b, a, y)
    return y


def add_noise_snr(x: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add white noise scaled so the realized signal/noise power ratio is exact."""
    noise = rng.standard_normal(len(x))
    p_sig = np.mean(x**2)
    p_noise = np.mean(noise**2)
    if p_sig == 0 or p_noise == 0:
        return x.copy()
    noise *= np.sqrt(p_sig / (p_noise * 10 ** (snr_db / 10.0)))
    return x + noise


def harmonic_tone(fs: int, duration: float, f0: float, n_harmonics: int = 8) -> np.ndarray:
    """Sum of equal-amplitude harmonics, normalized to 0.5 peak."""
    t = np.arange(int(fs * duration)) / fs
    x = sum(np.sin(2 * np.pi * f0 * (h + 1) * t) / (h + 1) for h in range(n_harmonics))
    return 0.5 * x / np.max(np.abs(x))


def am_tone(fs: int, duration: float, fc: float, fm: float, depth: float = 0.5) -> np.ndarray:
    t = np.arange(int(fs * duration)) / fs
    return (1.0 + depth * np.sin(2 * np.pi * fm * t)) * 0.4 * np.sin(2 * np.pi * fc * t)


def synth_vowel(
    fs: int = DEFAULT_FS,
    duration: float = 2.0,
    f0: float = 120.0,
    formants=(700.0, 1200.0, 2600.0),
    jitter_pct: float = 0.5,
    shimmer_pct: float = 2.0,
    snr_db: float = 30.0,
    seed: int = 0,
) -> np.ndarray:
    """Vowel-like signal: perturbed pulse source through a resonator cascade
    at ``formants`` with FORMANT_BANDWIDTHS."""
    rng = np.random.default_rng(seed)
    src = pulse_train(fs, duration, f0, jitter_pct, shimmer_pct, seed=seed + 1)
    y = resonator_bank(src, fs, formants, FORMANT_BANDWIDTHS)
    y = add_noise_snr(y, snr_db, rng)
    peak = np.max(np.abs(y))
    return 0.7 * y / peak if peak > 0 else y


# corner-vowel formant targets used by the cohort generator
VOWEL_FORMANTS = {
    "a": (800.0, 1200.0, 2500.0),
    "e": (500.0, 1800.0, 2500.0),
    "i": (300.0, 2300.0, 3000.0),
    "o": (450.0, 900.0, 2400.0),
    "u": (350.0, 800.0, 2300.0),
}


def _write_manifest(path: Path, rows: list[dict], vowels, tasks) -> None:
    header = ["subject_id", "group", "sex", "age", *SCORE_COLUMNS]
    header += [f"path_{v}_{t}" for v in vowels for t in tasks]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in header})


def make_regression_cohort(
    outdir,
    n_subjects: int = 40,
    vowels=("a",),
    tasks=("s",),
    target: str = "updrs3",
    seed: int = 7,
) -> Path:
    """Cohort of 2 s DEFAULT_FS recordings whose target score is a monotone
    function of injected jitter.

    Returns the manifest path. Scores span roughly half the target scale so
    estimation-error arithmetic has a meaningful observed range.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_subjects):
        frac = i / max(1, n_subjects - 1)
        jitter = 0.2 + 2.8 * frac             # 0.2 .. 3.0 %
        score = 5.0 + 50.0 * frac             # monotone in jitter
        sid = f"S{i:03d}"
        row = {"subject_id": sid, "group": "PD", "sex": "F" if i % 2 else "M",
               "age": 60 + i % 20, target: f"{score:.2f}"}
        for v in vowels:
            for t in tasks:
                wav = outdir / f"{sid}_{v}_{t}.wav"
                x = synth_vowel(
                    f0=110.0 + 30.0 * rng.random(), formants=VOWEL_FORMANTS[v],
                    jitter_pct=jitter, shimmer_pct=1.0 + jitter,
                    snr_db=25.0, seed=seed + 97 * i,
                )
                write_wav(wav, x, DEFAULT_FS)
                row[f"path_{v}_{t}"] = wav.name
        rows.append(row)
    manifest = outdir / "manifest.csv"
    _write_manifest(manifest, rows, vowels, tasks)
    return manifest


def make_classification_cohort(
    outdir,
    n_pd: int = 12,
    n_hc: int = 12,
    vowels=("a",),
    tasks=("s",),
    duration: float = 2.0,
    seed: int = 11,
) -> Path:
    """Two well-separated groups of DEFAULT_FS recordings: PD-like rows carry
    heavy perturbation."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_pd + n_hc):
        is_pd = i < n_pd
        sid = f"{'P' if is_pd else 'H'}{i:03d}"
        jitter = rng.uniform(2.5, 4.0) if is_pd else rng.uniform(0.1, 0.5)
        snr = rng.uniform(8, 12) if is_pd else rng.uniform(28, 35)
        row = {"subject_id": sid, "group": "PD" if is_pd else "HC",
               "sex": "F" if i % 2 else "M", "age": 60 + i % 15}
        for v in vowels:
            for t in tasks:
                wav = outdir / f"{sid}_{v}_{t}.wav"
                x = synth_vowel(
                    duration=duration, f0=105.0 + 40.0 * rng.random(),
                    formants=VOWEL_FORMANTS[v],
                    jitter_pct=jitter, shimmer_pct=2 * jitter, snr_db=snr,
                    seed=seed + 131 * i,
                )
                write_wav(wav, x, DEFAULT_FS)
                row[f"path_{v}_{t}"] = wav.name
        rows.append(row)
    manifest = outdir / "manifest.csv"
    _write_manifest(manifest, rows, vowels, tasks)
    return manifest

