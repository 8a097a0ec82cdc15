"""Tests for the dense state-vector emulator against analytic physics."""

import numpy as np
import pytest

from repro.errors import EmulatorError
from repro.emulators import NoiseModel, StateVectorEmulator
from repro.qpu import ConstantWaveform, DriveSegment, Register, RydbergHamiltonian


def make_ham(n=1, omega=np.pi, delta=0.0, duration=1.0, dt=0.002, spacing=6.0):
    reg = Register.chain(n, spacing=spacing)
    seg = DriveSegment(ConstantWaveform(duration, omega), ConstantWaveform(duration, delta))
    return RydbergHamiltonian(reg, [seg], dt=dt)


class TestSingleQubitPhysics:
    def test_pi_pulse_full_transfer(self):
        """Resonant pulse of area pi sends |0> to |1>."""
        ham = make_ham(n=1, omega=np.pi, duration=1.0)  # area = pi
        probs = StateVectorEmulator().probabilities(ham)
        assert probs[1] == pytest.approx(1.0, abs=1e-4)

    def test_2pi_pulse_returns_to_ground(self):
        ham = make_ham(n=1, omega=2 * np.pi, duration=1.0)
        probs = StateVectorEmulator().probabilities(ham)
        assert probs[0] == pytest.approx(1.0, abs=1e-4)

    def test_half_pi_pulse_equal_superposition(self):
        ham = make_ham(n=1, omega=np.pi / 2, duration=1.0)
        probs = StateVectorEmulator().probabilities(ham)
        assert probs[0] == pytest.approx(0.5, abs=1e-3)

    def test_rabi_oscillation_with_detuning(self):
        """Generalized Rabi: max excited population = Omega^2/(Omega^2+delta^2)."""
        omega, delta = 2.0, 1.5
        gen = np.sqrt(omega**2 + delta**2)
        duration = np.pi / gen  # half generalized period: maximum transfer
        ham = make_ham(n=1, omega=omega, delta=delta, duration=duration)
        probs = StateVectorEmulator().probabilities(ham)
        expected = omega**2 / (omega**2 + delta**2)
        assert probs[1] == pytest.approx(expected, abs=2e-3)

    def test_norm_preserved(self):
        ham = make_ham(n=1, omega=1.7, delta=0.4, duration=2.5)
        psi = StateVectorEmulator().evolve(ham)
        assert np.abs(psi).sum() > 0
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-9)


class TestBlockadePhysics:
    def test_blockade_suppresses_double_excitation(self):
        """Two atoms well inside the blockade radius: |11> stays empty."""
        ham = make_ham(n=2, omega=np.pi, duration=1.0, spacing=5.0)
        # U at 5um = 5.42e6/5^6 = 347 rad/us >> Omega: deep blockade
        probs = StateVectorEmulator().probabilities(ham)
        p11 = probs[0b11]
        assert p11 < 0.01

    def test_far_atoms_excite_independently(self):
        ham = make_ham(n=2, omega=np.pi, duration=1.0, spacing=40.0)
        probs = StateVectorEmulator().probabilities(ham)
        assert probs[0b11] == pytest.approx(1.0, abs=0.01)

    def test_blockade_enhanced_rabi(self):
        """Inside the blockade the pair oscillates at sqrt(2) Omega between
        |00> and the symmetric single-excitation state."""
        omega = np.pi
        duration = 1.0 / np.sqrt(2.0)  # pi pulse at enhanced frequency
        ham = make_ham(n=2, omega=omega, duration=duration, spacing=5.0)
        probs = StateVectorEmulator().probabilities(ham)
        p01_p10 = probs[0b01] + probs[0b10]
        assert p01_p10 == pytest.approx(1.0, abs=0.02)


class TestRun:
    def test_counts_sum_to_shots(self):
        ham = make_ham(n=3, omega=2.0, duration=0.5)
        rng = np.random.default_rng(0)
        result = StateVectorEmulator().run(ham, shots=500, rng=rng)
        assert sum(result.counts.values()) == 500
        assert result.backend == "emu-sv"

    def test_zero_shots(self):
        ham = make_ham(n=2)
        result = StateVectorEmulator().run(ham, shots=0, rng=np.random.default_rng(0))
        assert result.counts == {}

    def test_deterministic_given_seed(self):
        ham = make_ham(n=3, omega=2.0, duration=0.5)
        r1 = StateVectorEmulator().run(ham, shots=100, rng=np.random.default_rng(7))
        r2 = StateVectorEmulator().run(ham, shots=100, rng=np.random.default_rng(7))
        assert r1.counts == r2.counts

    def test_size_limit_enforced(self):
        ham = make_ham(n=4)
        emu = StateVectorEmulator(max_qubits=3)
        with pytest.raises(EmulatorError):
            emu.run(ham, shots=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "noise",
        [None, NoiseModel(detection_epsilon=0.02), NoiseModel(amplitude_rel_std=0.01)],
        ids=["noiseless", "spam-only", "coherent"],
    )
    def test_negative_shots_rejected(self, noise):
        ham = make_ham(n=2, omega=2.0, duration=0.1, dt=0.01)
        with pytest.raises(EmulatorError, match="shots must be >= 0"):
            StateVectorEmulator().run(ham, -3, np.random.default_rng(0), noise=noise)

    def test_spam_noise_flips_bits(self):
        """Ground-state atoms with strong detection epsilon read as excited."""
        ham = make_ham(n=2, omega=0.0, duration=0.1)  # stays in |00>
        noise = NoiseModel(detection_epsilon=0.5)
        result = StateVectorEmulator().run(
            ham, shots=2000, rng=np.random.default_rng(1), noise=noise
        )
        occ = result.expectation_occupation()
        np.testing.assert_allclose(occ, [0.5, 0.5], atol=0.05)

    def test_coherent_noise_spreads_distribution(self):
        ham = make_ham(n=1, omega=np.pi, duration=1.0)
        noise = NoiseModel(amplitude_rel_std=0.2, noise_realizations=8)
        result = StateVectorEmulator().run(
            ham, shots=2000, rng=np.random.default_rng(2), noise=noise
        )
        p1 = result.counts.get("1", 0) / 2000
        assert 0.7 < p1 < 0.999  # degraded from the noiseless ~1.0

    def test_expectation_occupation(self):
        ham = make_ham(n=2, omega=np.pi, duration=1.0, spacing=40.0)
        result = StateVectorEmulator().run(ham, shots=500, rng=np.random.default_rng(3))
        occ = result.expectation_occupation()
        np.testing.assert_allclose(occ, [1.0, 1.0], atol=0.05)
