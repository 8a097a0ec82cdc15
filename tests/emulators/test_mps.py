"""Tests for the MPS emulator, including cross-validation against the
exact state-vector backend."""

import numpy as np
import pytest

from repro.errors import BondDimensionError
from repro.emulators import MPSEmulator, NoiseModel, StateVectorEmulator, make_emulator
from repro.qpu import (
    BlackmanWaveform,
    ConstantWaveform,
    DriveSegment,
    RampWaveform,
    Register,
    RydbergHamiltonian,
)


def make_ham(n, omega=2.0, delta=0.0, duration=1.0, dt=0.005, spacing=6.0):
    reg = Register.chain(n, spacing=spacing)
    seg = DriveSegment(ConstantWaveform(duration, omega), ConstantWaveform(duration, delta))
    return RydbergHamiltonian(reg, [seg], dt=dt)


def sweep_ham(n, duration=0.6, dt=0.01, spacing=5.0):
    """The developer-loop shape: drive on, detuning ramped through zero."""
    reg = Register.chain(n, spacing=spacing)
    seg = DriveSegment(
        ConstantWaveform(duration, 6.0), RampWaveform(duration, -4.0, 4.0), phase=0.4
    )
    return RydbergHamiltonian(reg, [seg], dt=dt)


def mps_to_dense(mps):
    """Contract an MPS (list of (Dl, 2, Dr) tensors) to a dense state,
    site 0 most significant."""
    psi = mps[0]
    for tensor in mps[1:]:
        psi = np.tensordot(psi, tensor, axes=([-1], [0]))
    return psi.reshape(-1)


def strang_nearest_neighbour(ham, order):
    """Dense second-order Trotter reference of the model the MPS
    emulates: per step, the exact single-site half-step on every site,
    the MPS-neighbour bond phases, the half-step again."""
    n = ham.num_qubits
    bonds = ham.interactions[order[:-1], order[1:]]
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    bond_energy = (bits[:, :-1] * bits[:, 1:]) @ bonds
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    occ = np.diag([0.0, 1.0])
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0

    def on_every_site(gate, psi):
        psi = psi.reshape([2] * n)
        for q in range(n):
            psi = np.moveaxis(np.tensordot(gate, psi, axes=([1], [q])), 0, q)
        return psi.reshape(-1)

    for k, dt in enumerate(ham.steps):
        h1 = 0.5 * ham.omega[k] * (
            np.cos(ham.phase[k]) * x - np.sin(ham.phase[k]) * y
        ) - ham.delta[k] * occ
        w, v = np.linalg.eigh(h1)
        half = (v * np.exp(-0.5j * dt * w)) @ v.conj().T
        psi = on_every_site(half, psi)
        psi = psi * np.exp(-1j * dt * bond_energy)
        psi = on_every_site(half, psi)
    return psi


def occupations_from_probs(probs, n):
    bits = ((np.arange(len(probs))[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1)
    return (probs[:, None] * bits).sum(axis=0)


class TestMPSvsExact:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_occupations_match_statevector(self, n):
        """chi=32 MPS on a short chain must agree with the exact backend."""
        ham = make_ham(n, omega=2.0, duration=0.8)
        sv_probs = StateVectorEmulator().probabilities(ham)
        sv_occ = occupations_from_probs(sv_probs, n)

        mps = MPSEmulator(max_bond_dim=32)
        rng = np.random.default_rng(0)
        result = mps.run(ham, shots=4000, rng=rng)
        mps_occ = result.expectation_occupation()
        np.testing.assert_allclose(mps_occ, sv_occ, atol=0.05)

    def test_single_qubit_pi_pulse(self):
        ham = make_ham(1, omega=np.pi, duration=1.0)
        result = MPSEmulator(max_bond_dim=4).run(ham, shots=200, rng=np.random.default_rng(0))
        assert result.counts.get("1", 0) > 195

    def test_blockade_in_mps(self):
        ham = make_ham(2, omega=np.pi, duration=1.0, spacing=5.0)
        result = MPSEmulator(max_bond_dim=8).run(ham, shots=1000, rng=np.random.default_rng(1))
        assert result.counts.get("11", 0) < 20

    def test_adiabatic_sweep_ordered_phase(self):
        """Ramp detuning negative->positive under a Blackman Omega: the
        chain should end mostly in the antiferromagnetic-like ordered
        state (alternating occupations) — crystalline phase physics."""
        n = 6
        reg = Register.chain(n, spacing=6.0)
        duration = 4.0
        seg = DriveSegment(
            BlackmanWaveform(duration, 8.0),
            RampWaveform(duration, -6.0, 10.0),
        )
        ham = RydbergHamiltonian(reg, [seg], dt=0.01)
        result = MPSEmulator(max_bond_dim=32).run(
            ham, shots=500, rng=np.random.default_rng(2)
        )
        top = result.most_frequent()
        assert top in ("101010", "010101", "100101", "101001")


class TestCanonicalTEBD:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("duration", [0.01, 0.05, 0.06])
    def test_untruncated_state_matches_dense_strang(self, n, duration):
        """With chi >= 2^(n/2) nothing is truncated, and the fused
        operators and gauge moves reproduce the dense Trotter state.
        One step, an odd and an even step count end the last sweep with
        the centre at either end of the chain."""
        ham = sweep_ham(n, duration=duration, spacing=5.5)
        emu = MPSEmulator(max_bond_dim=2 ** (n // 2))
        mps, order = emu.evolve(ham)
        np.testing.assert_allclose(
            mps_to_dense(mps), strang_nearest_neighbour(ham, order), rtol=0, atol=1e-10
        )
        assert emu.fidelity_estimate() == 1.0

    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_fidelity_estimate_tracks_true_fidelity(self, n):
        """Truncating at the orthogonality centre makes the discarded
        weight the true local error, so fidelity_estimate() tracks the
        overlap with an untruncated run."""
        ham = sweep_ham(n)
        exact = mps_to_dense(MPSEmulator(max_bond_dim=2 ** (n // 2)).evolve(ham)[0])
        emu = MPSEmulator(max_bond_dim=4)
        truncated = mps_to_dense(emu.evolve(ham)[0])
        fidelity = abs(np.vdot(exact, truncated)) ** 2
        assert fidelity < 0.9999  # chi=4 does truncate here
        assert abs(emu.fidelity_estimate() - fidelity) <= 0.02

    def test_chi_one_stays_a_product_state(self):
        ham = sweep_ham(6)
        emu = MPSEmulator(max_bond_dim=1)
        mps, _ = emu.evolve(ham)
        assert [t.shape for t in mps] == [(1, 2, 1)] * 6
        result = emu.run(ham, shots=20, rng=np.random.default_rng(0))
        assert result.metadata["product_state_mode"] is True
        assert 0.0 < emu.fidelity_estimate() < 1.0

    def test_noisy_run_reports_mean_over_realizations(self, monkeypatch):
        """A coherent-noise run evolves once per realization; its
        discarded weight is the shot-weighted mean over them, not the
        last realization's value."""
        ham = make_ham(8, omega=3.0, duration=1.5, dt=0.01)
        emu = MPSEmulator(max_bond_dim=2)
        per_realization = []
        evolve = emu.evolve

        def recording_evolve(*args):
            out = evolve(*args)
            per_realization.append(-np.log(emu.fidelity_estimate()))
            return out

        monkeypatch.setattr(emu, "evolve", recording_evolve)
        noise = NoiseModel(amplitude_rel_std=0.2, detuning_std=1.0, noise_realizations=4)
        result = emu.run(ham, shots=40, rng=np.random.default_rng(0), noise=noise)
        assert len(per_realization) == 4
        assert np.ptp(per_realization) > 0.0  # the realizations differ
        mean = float(np.mean(per_realization))  # 10 shots each
        assert result.metadata["discarded_weight"] == pytest.approx(mean, rel=1e-12)
        assert emu.fidelity_estimate() == pytest.approx(np.exp(-mean), rel=1e-12)


class TestBondDimension:
    def test_chi_one_is_product_state(self):
        """chi=1 runs arbitrarily large registers (the paper's mock mode)."""
        ham = make_ham(40, omega=1.0, duration=0.3, dt=0.01)
        emu = MPSEmulator(max_bond_dim=1, max_qubits=1024)
        result = emu.run(ham, shots=50, rng=np.random.default_rng(0))
        assert sum(result.counts.values()) == 50
        assert result.metadata["product_state_mode"] is True

    def test_chi_one_loses_accuracy_in_blockade(self):
        """Product states cannot represent blockade correlations: chi=1
        overestimates double excitation vs exact."""
        ham = make_ham(2, omega=np.pi, duration=1.0, spacing=5.5)
        exact_p11 = StateVectorEmulator().probabilities(ham)[0b11]
        rng = np.random.default_rng(3)
        result = MPSEmulator(max_bond_dim=1).run(ham, shots=3000, rng=rng)
        mock_p11 = result.counts.get("11", 0) / 3000
        assert exact_p11 < 0.01
        # The mock mode should visibly deviate from exact physics here.
        assert mock_p11 > exact_p11

    def test_truncation_tracked(self):
        ham = make_ham(8, omega=3.0, duration=1.5, dt=0.01)
        emu = MPSEmulator(max_bond_dim=2)
        emu.run(ham, shots=10, rng=np.random.default_rng(0))
        assert emu.fidelity_estimate() <= 1.0

    def test_invalid_bond_dim(self):
        with pytest.raises(BondDimensionError):
            MPSEmulator(max_bond_dim=0)


class TestSamplingAndCatalog:
    def test_counts_sum_to_shots(self):
        ham = make_ham(5, omega=2.0, duration=0.5)
        result = MPSEmulator().run(ham, shots=321, rng=np.random.default_rng(0))
        assert sum(result.counts.values()) == 321

    def test_deterministic_given_seed(self):
        ham = make_ham(4, omega=2.0, duration=0.5)
        r1 = MPSEmulator().run(ham, shots=100, rng=np.random.default_rng(5))
        r2 = MPSEmulator().run(ham, shots=100, rng=np.random.default_rng(5))
        assert r1.counts == r2.counts

    def test_catalog_builds_backends(self):
        assert make_emulator("emu-sv").name == "emu-sv"
        emu = make_emulator("emu-product")
        assert emu.max_bond_dim == 1
        emu2 = make_emulator("emu-mps", max_bond_dim=32)
        assert emu2.max_bond_dim == 32

    def test_catalog_unknown_name(self):
        from repro.errors import EmulatorError

        with pytest.raises(EmulatorError):
            make_emulator("emu-nope")
