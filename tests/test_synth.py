"""The cohort writer's draws: every recording of a small cohort of each mode
equals ``synth_vowel`` with the parameters its maker documents, drawn in the
documented order, after the 16-bit WAV round trip."""
import numpy as np

from phonassess.audio import load_recording, write_wav
from phonassess.synth import (VOWEL_FORMANTS, make_classification_cohort, make_regression_cohort,
                              synth_vowel)

VOWELS = ("a", "e")


def _assert_written(path, x, scratch):
    write_wav(scratch, x, 16_000)
    assert np.array_equal(load_recording(path).samples, load_recording(scratch).samples), path.name


def test_regression_cohort_draws(tmp_path):
    seed = 5
    make_regression_cohort(tmp_path / "c", n_subjects=2, vowels=VOWELS, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(2):
        jitter = 0.2 + 2.8 * (i / (2 - 1))
        for v in VOWELS:  # f0 drawn once per recording
            x = synth_vowel(f0=110.0 + 30.0 * rng.random(), formants=VOWEL_FORMANTS[v],
                            jitter_pct=jitter, shimmer_pct=1.0 + jitter, snr_db=25.0,
                            seed=seed + 97 * i)
            _assert_written(tmp_path / "c" / f"S{i:03d}_{v}_s.wav", x, tmp_path / "want.wav")


def test_classification_cohort_draws(tmp_path):
    seed = 6
    make_classification_cohort(tmp_path / "c", n_pd=1, n_hc=1, vowels=VOWELS, duration=0.5,
                               seed=seed)
    rng = np.random.default_rng(seed)
    for i, sid in enumerate(("P000", "H001")):
        is_pd = i == 0
        # jitter, then SNR, once per subject, before its recordings' f0
        jitter = rng.uniform(2.5, 4.0) if is_pd else rng.uniform(0.1, 0.5)
        snr = rng.uniform(8, 12) if is_pd else rng.uniform(28, 35)
        for v in VOWELS:
            x = synth_vowel(duration=0.5, f0=105.0 + 40.0 * rng.random(),
                            formants=VOWEL_FORMANTS[v], jitter_pct=jitter,
                            shimmer_pct=2 * jitter, snr_db=snr, seed=seed + 131 * i)
            _assert_written(tmp_path / "c" / f"{sid}_{v}_s.wav", x, tmp_path / "want.wav")
