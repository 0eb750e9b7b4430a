import numpy as np
import pytest
from scipy.signal import sawtooth

from phonassess.errors import InsufficientSignalError
from phonassess.pitch import F0_MAX, F0_MIN, detect_cycles, estimate_f0, pitch_lag_in_range
from phonassess.synth import pulse_train

from conftest import FS, alternating_pulse_train, duty_train


class TestEstimateF0:
    def test_sawtooth_100hz(self):
        x = 0.8 * sawtooth(2 * np.pi * 100 * np.arange(2 * FS) / FS)
        contour = estimate_f0(x)
        voiced = contour.voiced_f0
        assert abs(np.median(voiced) - 100.0) <= 1.0
        assert np.mean(contour.voicing) >= 0.95

    def test_all_zero_unvoiced(self):
        contour = estimate_f0(np.zeros(FS))
        assert not contour.voicing.any()
        assert np.all(contour.f0 == 0.0)

    def test_sine_220(self):
        x = 0.5 * np.sin(2 * np.pi * 220 * np.arange(2 * FS) / FS)
        contour = estimate_f0(x)
        assert abs(np.median(contour.voiced_f0) - 220.0) <= 2.0

    def test_f0_in_range_invariant(self):
        x = np.random.default_rng(0).standard_normal(FS)
        contour = estimate_f0(x)
        voiced = contour.f0[contour.voicing]
        assert np.all((voiced >= F0_MIN) & (voiced <= F0_MAX))
        assert np.all(contour.f0[~contour.voicing] == 0)

    def test_hop_is_the_first_time_step(self):
        contour = estimate_f0(np.zeros(FS))
        step = contour.times[1] - contour.times[0]  # rounds: the times are (160 k + 320) / FS
        assert np.float64(contour.hop).tobytes() == np.float64(step).tobytes()
        one_frame = estimate_f0(np.zeros(640))  # one 40 ms frame
        assert len(one_frame.times) == 1
        assert one_frame.hop == 0.01

    def test_negative_peaks_give_no_candidate(self):
        """A lag range whose every local maximum is negative holds no period."""
        row = -0.5 + 0.1 * np.cos(2 * np.pi * np.arange(200) / 20)
        row[0] = 1.0
        assert pitch_lag_in_range(row, 10, 150) == (0.0, 0.0)
        assert pitch_lag_in_range(row + 0.6, 10, 150)[0] == pytest.approx(20.0)


class TestDetectCycles:
    def test_periodic_pulse_train(self, pulse_x, pulse_contour):
        cycles = detect_cycles(pulse_x, pulse_contour)
        assert len(cycles) >= 150
        # all periods exactly 10 ms at this rate, within one sample
        assert np.all(np.abs(cycles.periods - 0.010) <= 1.0 / FS)

    def test_alternating_amplitudes(self):
        x = alternating_pulse_train(FS, 2.0, 0.010, 0.010, a1=0.9, a2=1.1)
        cycles = detect_cycles(x, estimate_f0(x))
        amps = cycles.peak_amplitudes
        lo, hi = min(amps[0], amps[1]), max(amps[0], amps[1])
        assert abs(lo - 0.9) / 0.9 < 0.01
        assert abs(hi - 1.1) / 1.1 < 0.01
        # strict alternation
        assert np.allclose(amps[0::2], amps[0]) and np.allclose(amps[1::2], amps[1])

    def test_duty_cycle_open_fraction(self):
        # oracle: the synthesis threshold that generated the waveform
        x = duty_train(FS, 2.0, f0=100.0, duty=0.30)
        cycles = detect_cycles(x, estimate_f0(x))
        assert abs(np.mean(cycles.open_fractions) - 0.30) <= 0.05
        assert np.allclose(cycles.open_fractions + cycles.closed_fractions, 1.0, atol=1e-9)

    def test_insufficient_voicing(self):
        x = np.zeros(FS) + 1e-9
        contour = estimate_f0(x)
        with pytest.raises(InsufficientSignalError):
            detect_cycles(x, contour)

    def test_time_shift_invariance(self, pulse_x, pulse_contour):
        k = 53
        ref = detect_cycles(pulse_x, pulse_contour)
        shifted = np.concatenate([np.zeros(k), pulse_x])[: len(pulse_x)]
        cyc2 = detect_cycles(shifted, estimate_f0(shifted))
        # compare positions of common cycles
        common = min(len(ref), len(cyc2)) - 2
        ref_pos = ref.positions[:common]
        # find offset alignment against shifted marks
        shift_pos = cyc2.positions[: common + 2]
        matched = [p + k for p in ref_pos if np.min(np.abs(shift_pos - (p + k))) <= 1]
        assert len(matched) >= common - 2
        assert np.allclose(np.sort(ref.periods)[5:-5], np.sort(cyc2.periods)[5 : len(ref) - 5], atol=1.5 / FS)

    def test_amplitude_scaling(self, pulse_x, pulse_contour):
        c = 0.35
        scaled = c * pulse_x
        ref = detect_cycles(pulse_x, pulse_contour)
        got = detect_cycles(scaled, estimate_f0(scaled))
        n = min(len(ref), len(got))
        assert np.allclose(got.peak_amplitudes[:n], c * ref.peak_amplitudes[:n], rtol=1e-9)
        assert np.allclose(got.periods[:n], ref.periods[:n], atol=1.0 / FS)

    def test_f0_consistency(self, pulse_x, pulse_contour):
        cycles = detect_cycles(pulse_x, pulse_contour)
        f0_from_cycles = 1.0 / np.median(cycles.periods)
        f0_tracked = np.median(pulse_contour.voiced_f0)
        assert abs(f0_from_cycles - f0_tracked) / f0_tracked < 0.02

