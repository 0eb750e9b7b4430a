import tracemalloc

import numpy as np
import pytest

from phonassess.errors import InsufficientSignalError
from phonassess.features.nonlinear import (MI_BINS, MI_FLAT, MI_VALLEY_SPAN, MI_VALLEY_TOL,
                                           _mi_bin_indices, complexity_features, embed,
                                           entropy_features, first_acf_zero, fmmi, katz_fd,
                                           lz76_count, normalized_lempel_ziv,
                                           permutation_entropy)
from phonassess.synth import synth_vowel


def brute_force_fmmi(x, max_lag):
    """Independent implementation of the documented delay-selection rule."""
    x = np.asarray(x, dtype=np.float64)
    if max_lag < 3 or np.all(x == x[0]):
        return 1
    mi = []
    idx = _mi_bin_indices(x, MI_BINS)
    for lag in range(1, max_lag + 1):
        # plain double-histogram MI, loop formulation
        joint = np.zeros((MI_BINS, MI_BINS))
        for a, b in zip(idx[:-lag], idx[lag:]):
            joint[a, b] += 1
        p = joint / joint.sum()
        px = p.sum(axis=1)
        py = p.sum(axis=0)
        val = 0.0
        for i in range(MI_BINS):
            for j in range(MI_BINS):
                if p[i, j] > 0:
                    val += p[i, j] * np.log(p[i, j] / (px[i] * py[j]))
        mi.append(val)
    mi = np.array(mi)
    if mi[0] < MI_FLAT:
        return 1
    rng_mi = mi.max() - mi.min()
    if rng_mi > 0:
        near = np.flatnonzero(mi <= mi.min() + MI_VALLEY_TOL * rng_mi)
        if len(near) and near[-1] - near[0] <= MI_VALLEY_SPAN:
            return int(near[0]) + 1
    return first_acf_zero(x, max_lag)


class TestFmmi:
    @pytest.mark.parametrize("period", [64, 100, 160])
    def test_sine_quarter_period(self, period):
        x = np.sin(2 * np.pi * np.arange(4000) / period)
        tau = fmmi(x)
        assert abs(tau - period / 4) <= 2
        assert tau == brute_force_fmmi(x, min(len(x) // 4, 400))

    def test_white_noise(self):
        x = np.random.default_rng(20).standard_normal(4000)
        tau = fmmi(x)
        assert tau == 1
        assert tau == brute_force_fmmi(x, min(len(x) // 4, 400))

    def test_constant(self):
        assert fmmi(np.ones(1000)) == 1


class TestComplexity:
    def test_ramp_fd_is_one(self):
        ramp = np.linspace(0, 2, 2000)
        assert abs(katz_fd(ramp) - 1.0) <= 0.05

    def test_periodic_lle_near_zero(self):
        x = np.sin(2 * np.pi * np.arange(4000) / 160)
        feats = complexity_features(x, 40)
        assert feats["lle"] <= 0.01

    def test_alternating_zl_brute_force(self):
        x = np.tile([0.0, 1.0], 500)
        # brute-force LZ76 exhaustive parse of a period-2 bit string
        bits = (x > np.median(x)).astype(np.uint8)
        c = lz76_count(bits)
        assert c == 3  # 0 | 1 | the rest reproduced from history
        assert normalized_lempel_ziv(x) == pytest.approx(c * np.log2(len(x)) / len(x), rel=1e-12)

    def test_zl_noise_near_one(self):
        x = np.random.default_rng(21).standard_normal(2000)
        assert normalized_lempel_ziv(x) > 0.8

    def test_katz_scale_invariance(self):
        rng = np.random.default_rng(22)
        x = np.cumsum(rng.standard_normal(1500))
        assert katz_fd(x) == pytest.approx(katz_fd(0.25 * x), rel=1e-12)

    def test_trajectory_too_short(self):
        x = np.sin(np.arange(150) / 5.0)
        with pytest.raises(InsufficientSignalError):
            complexity_features(x, 30)

    def test_no_scaling_region_leaves_cd_out(self):
        # a 1.0 every 400 samples: too few positive distances for a slope
        x = np.zeros(8000)
        x[::400] = 1.0
        feats = complexity_features(x, 1)
        assert "cd" not in feats
        assert "he" in feats and "lle" not in feats

    def test_constant_signal_leaves_he_and_lle_out(self):
        x = np.zeros(8000)
        feats = complexity_features(x, 1)
        assert "he" not in feats and "lle" not in feats

    def test_embed_rows_are_delayed_samples(self):
        x = np.arange(10.0)
        traj = embed(x, 3, 2)
        assert traj.shape == (6, 3)
        assert np.array_equal(traj[1], [1.0, 3.0, 5.0])
        with pytest.raises(InsufficientSignalError):
            embed(x, 3, 5)

    def test_deterministic(self):
        x = np.sin(2 * np.pi * np.arange(3000) / 100) + 0.1 * np.random.default_rng(23).standard_normal(3000)
        assert complexity_features(x, 25) == complexity_features(x, 25)


class TestEntropies:
    def test_constant_leaves_template_entropies_out(self):
        # the tolerance r = 0.2 std is 0: ae and se_* get no made-up 0.0
        x = np.zeros(8000)
        feats = entropy_features(x, 1)
        assert feats["pe"] == pytest.approx(0.0, abs=1e-12)
        assert "ae" not in feats
        assert not [key for key in feats if key.startswith("se_")]

    def test_ramp_pe_zero(self):
        assert permutation_entropy(np.linspace(0, 1, 1000)) == pytest.approx(0.0, abs=1e-12)

    def test_pe_bound(self):
        x = np.random.default_rng(24).standard_normal(5000)
        assert 0 <= permutation_entropy(x) <= np.log(6) + 1e-12

    def test_pe_monotone_transform_invariance(self):
        x = np.random.default_rng(25).standard_normal(2000)
        assert permutation_entropy(x) == permutation_entropy(np.exp(x))

    def test_noise_exceeds_sine_every_kernel(self):
        sine = np.sin(2 * np.pi * np.arange(2000) / 160)
        noise = np.random.default_rng(26).standard_normal(2000)
        se_s = entropy_features(sine, 1)
        se_n = entropy_features(noise, 1)
        for k in range(1, 9):
            assert se_n[f"se_k{k}"] > se_s[f"se_k{k}"], k

    def test_amplitude_scale_invariance(self):
        x = np.sin(2 * np.pi * np.arange(1500) / 90) + 0.05 * np.random.default_rng(27).standard_normal(1500)
        a = entropy_features(x, 1)
        b = entropy_features(0.5 * x, 1)
        for key in ["ae", *(f"se_k{k}" for k in range(1, 9))]:
            assert a[key] == pytest.approx(b[key], rel=1e-9), key

    def test_entropies_nonnegative(self):
        x = np.random.default_rng(28).standard_normal(1200)
        feats = entropy_features(x, 1)
        for key in ("she", "re", "pe", "rbe1", "rbe2"):
            assert feats[key] >= 0.0

    def test_too_short(self):
        with pytest.raises(InsufficientSignalError):
            entropy_features(np.ones(100), 1)

    def test_delay_too_long_leaves_ce_out(self):
        # 1000-sample window minus 3 * 350 leaves no (m+1)-dim delay vectors
        x = np.random.default_rng(29).standard_normal(8000)
        feats = entropy_features(x, 350)
        assert "ce" not in feats
        assert "ae" in feats and "se_k1" in feats

    def test_no_scaling_region_leaves_ce_out(self):
        # a 1.0 every 400 samples: the 10th and 60th distance percentiles are equal
        x = np.zeros(8000)
        x[::400] = 1.0
        feats = entropy_features(x, 1)
        assert "ce" not in feats
        assert "ae" in feats and "se_k1" in feats

    def test_constant_block_leaves_ce_out(self):
        x = np.zeros(8000)
        assert "ce" not in entropy_features(x, 1)


WORKING_SET_MIB = 32


def traced_peak_mib(fn, *args) -> float:
    """Peak memory (MiB) traced while ``fn(*args)`` runs, above what was
    traced before it; numpy reports its array buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


def test_pairwise_estimators_hold_a_bounded_working_set():
    """Each pairwise estimator holds only the n x n matrices it still reads.
    On a 2 s vowel (PAIR_CAP delay vectors) and on one 0.5 s block of it
    (an ENTROPY_CAP window) each peak stays within 32 MiB; holding every
    matrix to the end of its function took 55 and 39 MiB."""
    x = synth_vowel(fs=16000, seed=1)
    tau = fmmi(x)
    complexity = traced_peak_mib(complexity_features, x, tau)
    entropy = traced_peak_mib(entropy_features, x[:8000], tau)
    assert complexity <= WORKING_SET_MIB, complexity
    assert entropy <= WORKING_SET_MIB, entropy
