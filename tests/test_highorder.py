import numpy as np
import pytest

from phonassess.audio import FrameSequence, frame_array
from phonassess.errors import InsufficientSignalError
from phonassess.features.highorder import (GRID, BispectrumEstimate, bicepstral_features,
                                           bicepstrum, bispectral_features,
                                           estimate_bispectrum)

from conftest import FS

# the principal triangle f1 + f2 <= GRID, built here independently of the module
TRIANGLE = np.add.outer(np.arange(GRID), np.arange(GRID)) <= GRID


def coupled_triple_frames(coupled=True, seed=0, n_frames=64, noise=0.05):
    """Per-frame random phases; the third tone's phase is the sum when coupled.

    This is the standard quadratic-coupling construction: bicoherence at
    (f1, f2) survives frame averaging only when the biphase is locked.
    """
    rng = np.random.default_rng(seed)
    n = 2 * GRID
    k1, k2 = 10, 15  # bins
    t = np.arange(n)
    segs = []
    for _ in range(n_frames):
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        p3 = p1 + p2 if coupled else rng.uniform(0, 2 * np.pi)
        seg = (np.cos(2 * np.pi * k1 * t / n + p1)
               + np.cos(2 * np.pi * k2 * t / n + p2)
               + 0.8 * np.cos(2 * np.pi * (k1 + k2) * t / n + p3)
               + noise * rng.standard_normal(n))
        segs.append(seg)
    raw = np.vstack(segs)
    return FrameSequence(frames=raw, raw=raw, frame_length=n, hop=n, fs=FS), (k1, k2)


def test_noise_bicoherence_low():
    rng = np.random.default_rng(1)
    frames = frame_array(rng.standard_normal(4 * FS), FS, 2 * GRID, GRID)
    est = estimate_bispectrum(frames)
    assert est.bicoherence[TRIANGLE].mean() <= 0.2


def test_coupled_triple_peak():
    frames, (k1, k2) = coupled_triple_frames(coupled=True)
    est = estimate_bispectrum(frames)
    peak = est.bicoherence[k1, k2]
    med = np.median(est.bicoherence[TRIANGLE])
    assert peak >= 5 * med
    assert peak > 0.8
    # uncoupled control: same spectrum, random third phase
    frames_u, _ = coupled_triple_frames(coupled=False)
    est_u = estimate_bispectrum(frames_u)
    assert est_u.bicoherence[k1, k2] < peak / 2


def test_symmetry_exact():
    frames, _ = coupled_triple_frames(seed=3)
    est = estimate_bispectrum(frames)
    assert np.array_equal(est.grid, est.grid.T)
    assert np.all(est.bicoherence >= 0) and np.all(est.bicoherence <= 1)


def test_too_few_frames():
    frames = frame_array(np.random.default_rng(2).standard_normal(1200), FS, 256, 256)
    with pytest.raises(InsufficientSignalError):
        estimate_bispectrum(frames)


def zeroed_estimate():
    return BispectrumEstimate(
        grid=np.zeros((GRID, GRID), dtype=complex),
        bicoherence=np.zeros((GRID, GRID)),
        resolution=FS / (2 * GRID),
        mean_spectrum=np.zeros(GRID + 1),
    )


def test_zeroed_grid_features():
    feats = bispectral_features(zeroed_estimate())
    assert feats["bii"] == 0.0
    assert feats["hfeb"] == 0.0 and feats["lfeb"] == 0.0


def test_band_indicator():
    est = zeroed_estimate()
    est.bicoherence[: GRID // 4, : GRID // 4] = 0.5  # low band only
    feats = bispectral_features(est)
    assert feats["lfeb"] > 0
    assert feats["hfeb"] == 0.0


def test_recompute_from_grid_oracle():
    frames, _ = coupled_triple_frames(seed=4)
    est = estimate_bispectrum(frames)
    feats = bispectral_features(est)
    # independent recomputation from the stored grids
    tri = TRIANGLE
    assert feats["bii"] == pytest.approx(float(est.bicoherence[tri].mean()), rel=1e-12)
    one_d = np.array([
        est.bicoherence[f1, tri[f1]].mean() if tri[f1].any() else 0.0
        for f1 in range(GRID)
    ])
    fc = GRID // 4
    assert feats["lfeb"] == pytest.approx(float(np.sum(one_d[:fc] ** 2)), rel=1e-9)
    assert feats["hfeb"] == pytest.approx(float(np.sum(one_d[fc:] ** 2)), rel=1e-9)


def test_bicepstral_identical_blocks_zero_distance():
    frames, _ = coupled_triple_frames(seed=5)
    est = estimate_bispectrum(frames)
    feats = bicepstral_features(est, bicepstrum(est), bicepstrum(est))
    assert feats["bcmd"] == 0.0
    assert feats["bcpd"] == 0.0


def test_bicepstral_distance_brute_force():
    frames_a, _ = coupled_triple_frames(seed=6)
    frames_b, _ = coupled_triple_frames(seed=7)
    est_a = estimate_bispectrum(frames_a)
    est_b = estimate_bispectrum(frames_b)
    ca, cb = bicepstrum(est_a), bicepstrum(est_b)
    feats = bicepstral_features(est_b, cb, ca)
    # brute-force double loop over the quefrency grid
    md = 0.0
    pd_ = 0.0
    for i in range(GRID):
        for j in range(GRID):
            if i == 0 and j == 0:
                continue
            md += abs(abs(cb[i, j]) - abs(ca[i, j]))
            d = np.angle(cb[i, j]) - np.angle(ca[i, j])
            pd_ += abs((d + np.pi) % (2 * np.pi) - np.pi)
    md /= GRID * GRID
    pd_ /= GRID * GRID
    assert feats["bcmd"] == pytest.approx(md, rel=1e-9)
    assert feats["bcpd"] == pytest.approx(pd_, rel=1e-9)


def test_high_quefrency_indicator():
    est = zeroed_estimate()
    # flat log-bispectrum -> bicepstrum concentrated at (0,0): no high quefrency
    est.grid[:, :] = 1.0
    est.mean_spectrum[:] = 1.0  # flat spectrum -> zero cepstral energy off DC
    feats = bicepstral_features(est, bicepstrum(est))
    assert feats["hcbcer"] == pytest.approx(0.0, abs=1e-12)


def test_bicepstral_finite_on_real_signal(vowel_rec):
    frames = frame_array(vowel_rec.samples, FS, 2 * GRID, GRID)
    est = estimate_bispectrum(frames)
    cep = bicepstrum(est)
    feats = {**bispectral_features(est), **bicepstral_features(est, cep, cep)}
    for key, value in feats.items():
        assert np.isfinite(value), key
