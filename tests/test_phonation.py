import numpy as np
import pytest

from phonassess.audio import FRAME, HOP, frame_array
from phonassess.errors import InsufficientSignalError
from phonassess.features.phonation import (energy_features, glottal_quotient_stds,
                                           jitter_features, ppe, shimmer_features,
                                           teager_kaiser)
from phonassess.pitch import CycleMarks, F0Contour

from conftest import FS


def make_cycles(periods, amps=None, opens=None):
    periods = np.asarray(periods, dtype=np.float64)
    n = len(periods)
    amps = np.ones(n) if amps is None else np.asarray(amps, dtype=np.float64)
    opens = np.full(n, 0.4) if opens is None else np.asarray(opens, dtype=np.float64)
    return CycleMarks(periods=periods, peak_amplitudes=amps,
                      open_fractions=opens,
                      positions=np.arange(n))


def brute_jitter(T):
    """Direct evaluation of the five perturbation formulas."""
    T = np.asarray(T, dtype=np.float64)
    mT = T.mean()
    absj = np.mean([abs(T[i] - T[i - 1]) for i in range(1, len(T))])
    rap = np.mean([abs(T[i] - (T[i - 1] + T[i] + T[i + 1]) / 3) for i in range(1, len(T) - 1)]) / mT
    ppq5 = np.mean([abs(T[i] - np.mean(T[i - 2 : i + 3])) for i in range(2, len(T) - 2)]) / mT
    return {"jitter_local": absj / mT, "jitter_abs": absj, "jitter_rap": rap,
            "jitter_ppq5": ppq5, "jitter_ddp": 3 * rap}


def brute_shimmer(A):
    A = np.asarray(A, dtype=np.float64)
    mA = A.mean()
    absd = np.mean([abs(A[i] - A[i - 1]) for i in range(1, len(A))])
    db = np.mean([abs(20 * np.log10(A[i] / A[i - 1])) for i in range(1, len(A))])
    apq3 = np.mean([abs(A[i] - np.mean(A[i - 1 : i + 2])) for i in range(1, len(A) - 1)]) / mA
    apq5 = np.mean([abs(A[i] - np.mean(A[i - 2 : i + 3])) for i in range(2, len(A) - 2)]) / mA
    apq11 = np.mean([abs(A[i] - np.mean(A[i - 5 : i + 6])) for i in range(5, len(A) - 5)]) / mA
    return {"shimmer_local": absd / mA, "shimmer_db": db, "shimmer_apq3": apq3,
            "shimmer_apq5": apq5, "shimmer_apq11": apq11, "shimmer_dda": 3 * apq3}


class TestJitter:
    def test_constant_periods(self):
        vals = jitter_features(make_cycles([0.01] * 30))
        assert all(abs(v) < 1e-12 for v in vals.values())

    def test_alternating_analytic(self):
        vals = jitter_features(make_cycles([0.0099, 0.0101] * 20))
        assert abs(vals["jitter_local"] - 0.02) < 1e-6

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(4)
        T = 0.010 * (1 + 0.01 * rng.uniform(-1, 1, 60))
        got = jitter_features(make_cycles(T))
        expect = brute_jitter(T)
        for key in expect:
            assert got[key] == pytest.approx(expect[key], rel=1e-10), key

    def test_ddp_identity(self):
        rng = np.random.default_rng(5)
        T = 0.008 * (1 + 0.02 * rng.uniform(-1, 1, 40))
        vals = jitter_features(make_cycles(T))
        assert vals["jitter_ddp"] == pytest.approx(3 * vals["jitter_rap"], abs=0)

    def test_time_scale_invariance(self):
        rng = np.random.default_rng(6)
        T = 0.01 * (1 + 0.015 * rng.uniform(-1, 1, 50))
        a = jitter_features(make_cycles(T))
        b = jitter_features(make_cycles(3.0 * T))
        for key in ("jitter_local", "jitter_rap", "jitter_ppq5", "jitter_ddp"):
            assert abs(a[key] - b[key]) < 1e-12
        assert b["jitter_abs"] == pytest.approx(3.0 * a["jitter_abs"], rel=1e-12)

    def test_insufficient(self):
        with pytest.raises(InsufficientSignalError):
            jitter_features(make_cycles([0.01] * 4))


class TestShimmer:
    def test_constant(self):
        vals = shimmer_features(make_cycles([0.01] * 30, amps=[0.8] * 30))
        assert all(abs(v) < 1e-12 for v in vals.values())

    def test_alternating_analytic(self):
        amps = [0.9, 1.1] * 10
        vals = shimmer_features(make_cycles([0.01] * 20, amps=amps))
        assert abs(vals["shimmer_local"] - 0.2) < 1e-6

    def test_brute_force(self):
        rng = np.random.default_rng(7)
        A = 1 + 0.05 * rng.uniform(-1, 1, 40)
        got = shimmer_features(make_cycles([0.01] * 40, amps=A))
        expect = brute_shimmer(A)
        for key in expect:
            assert got[key] == pytest.approx(expect[key], rel=1e-10), key

    def test_dda_identity(self):
        rng = np.random.default_rng(8)
        A = 1 + 0.1 * rng.uniform(-1, 1, 30)
        vals = shimmer_features(make_cycles([0.01] * 30, amps=A))
        assert vals["shimmer_dda"] == pytest.approx(3 * vals["shimmer_apq3"], abs=0)

    def test_amplitude_scale_invariance(self):
        rng = np.random.default_rng(9)
        A = 1 + 0.08 * rng.uniform(-1, 1, 30)
        a = shimmer_features(make_cycles([0.01] * 30, amps=A))
        b = shimmer_features(make_cycles([0.01] * 30, amps=2.5 * A))
        for key in a:
            assert abs(a[key] - b[key]) < 1e-12, key

    def test_zero_amplitude_error(self):
        A = np.ones(20)
        A[7] = 0.0
        with pytest.raises(InsufficientSignalError):
            shimmer_features(make_cycles([0.01] * 20, amps=A))

    def test_insufficient(self):
        with pytest.raises(InsufficientSignalError):
            shimmer_features(make_cycles([0.01] * 10))


def make_contour(f0_values):
    f0_values = np.asarray(f0_values, dtype=np.float64)
    n = len(f0_values)
    return F0Contour(times=np.arange(n) * 0.01, f0=f0_values)


class TestPPE:
    def test_constant_f0_near_zero(self):
        val = ppe(make_contour(np.full(100, 120.0)))
        assert val <= 0.05

    def test_erratic_exceeds_constant(self):
        rng = np.random.default_rng(10)
        steady = ppe(make_contour(np.full(200, 120.0)))
        # white +-2 semitone pitch jitter
        jittered = 120.0 * 2 ** (rng.uniform(-2, 2, 200) / 12)
        assert ppe(make_contour(jittered)) > steady

    def test_transposition_invariance(self):
        rng = np.random.default_rng(11)
        base = 110.0 * 2 ** (rng.normal(0, 0.8, 300) / 12)
        a = ppe(make_contour(base))
        b = ppe(make_contour(1.5 * base))
        assert abs(a - b) / a < 0.05

    def test_insufficient(self):
        with pytest.raises(InsufficientSignalError):
            ppe(make_contour(np.full(30, 120.0)))


class TestGlottalQuotients:
    def test_constant_duty(self):
        gqo, gqc = glottal_quotient_stds(make_cycles([0.01] * 20, opens=[0.4] * 20))
        assert abs(gqo) < 1e-12 and abs(gqc) < 1e-12

    def test_alternating_duty_analytic(self):
        gqo, gqc = glottal_quotient_stds(make_cycles([0.01] * 20, opens=[0.3, 0.5] * 10))
        assert abs(gqo - 0.1) < 1e-6  # population std of {0.3, 0.5}
        assert abs(gqc - 0.1) < 1e-6

    def test_brute_force(self):
        rng = np.random.default_rng(12)
        opens = np.clip(0.4 + 0.1 * rng.standard_normal(40), 0.05, 0.95)
        gqo, gqc = glottal_quotient_stds(make_cycles([0.01] * 40, opens=opens))
        assert gqo == pytest.approx(float(np.std(opens)), rel=1e-12)
        assert gqc == pytest.approx(float(np.std(1 - opens)), rel=1e-12)

    def test_insufficient(self):
        with pytest.raises(InsufficientSignalError):
            glottal_quotient_stds(make_cycles([0.01] * 2))


class TestEnergyFeatures:
    def test_tkeo_closed_form(self):
        # psi[n] = A^2 sin^2(omega) exactly for a cosine
        omega = 2 * np.pi * 500 / FS
        x = 0.7 * np.cos(omega * np.arange(2 * FS))
        psi = teager_kaiser(x)
        expect = 0.7**2 * np.sin(omega) ** 2
        assert np.max(np.abs(psi - expect)) / expect < 1e-3

    def test_me4hz_unmodulated_low(self):
        x = 0.5 * np.sin(2 * np.pi * 150 * np.arange(2 * FS) / FS)
        _, _, me, _, _ = energy_features(frame_array(x, FRAME, HOP), x)
        assert me < 0.05

    def test_me4hz_modulated_dominates(self):
        t = np.arange(2 * FS) / FS
        carrier = np.sin(2 * np.pi * 150 * t)
        modulated = (1 + 0.5 * np.sin(2 * np.pi * 4.0 * t)) * 0.4 * carrier
        flat = 0.4 * carrier
        me_mod = energy_features(frame_array(modulated, FRAME, HOP), modulated)[2]
        me_flat = energy_features(frame_array(flat, FRAME, HOP), flat)[2]
        assert me_mod >= 10 * max(me_flat, 1e-12)

    def test_lster_bounds_and_energy(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(2 * FS) * (1 + np.sin(2 * np.pi * np.arange(2 * FS) / FS))
        frames = frame_array(x, FRAME, HOP)
        energy, tkeo, me, mpsd, lster = energy_features(frames, x)
        assert 0.0 <= lster <= 1.0
        assert len(energy) == len(frames)
        assert np.all(energy >= 0)
        assert mpsd > 0

    def test_too_short(self):
        x = np.ones(FS // 2)
        with pytest.raises(InsufficientSignalError):
            energy_features(frame_array(x, FRAME, HOP), x)
