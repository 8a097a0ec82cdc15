"""Tests for the MPS emulator, including cross-validation against the
exact state-vector backend."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BondDimensionError
from repro.emulators import MPSEmulator, NoiseModel, StateVectorEmulator, make_emulator
from repro.emulators.mps import _SEED_TOL, _bond_step
from repro.qpu import (
    BlackmanWaveform,
    CompositeWaveform,
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


def dev_loop_ham(n, spacing=4.9, omega=7.0, delta=6.0, duration=0.6):
    """The dev-loop emu-mps program: drive ramps up, holds, ramps down
    while the detuning sweeps -delta -> +delta."""
    q = duration / 4
    seg = DriveSegment(
        CompositeWaveform(
            RampWaveform(q, 0.0, omega), ConstantWaveform(2 * q, omega), RampWaveform(q, omega, 0.0)
        ),
        CompositeWaveform(
            ConstantWaveform(q, -delta), RampWaveform(2 * q, -delta, delta), ConstantWaveform(q, delta)
        ),
    )
    return RydbergHamiltonian(Register.chain(n, spacing=spacing), [seg])


@functools.cache
def sweep_reference(n):
    """The untruncated (chi = 2^(n/2)) final state of ``sweep_ham(n)``,
    shared by the fidelity tests."""
    state = mps_to_dense(MPSEmulator(max_bond_dim=2 ** (n // 2)).evolve(sweep_ham(n))[0])
    state.flags.writeable = False
    return state


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
        exact = sweep_reference(n)
        emu = MPSEmulator(max_bond_dim=4)
        truncated = mps_to_dense(emu.evolve(ham)[0])
        fidelity = abs(np.vdot(exact, truncated)) ** 2
        assert fidelity < 0.9999  # chi=4 does truncate here
        assert abs(emu.fidelity_estimate() - fidelity) <= 0.02

    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_fidelity_estimate_contract_holds_from_chi_3(self, n):
        """chi=3 is the smallest bond dimension at which
        fidelity_estimate() is within 0.02 of the true fidelity on this
        shape; at chi=2 it overestimates by 0.07-0.12."""
        ham = sweep_ham(n)
        exact = sweep_reference(n)
        emu = MPSEmulator(max_bond_dim=3)
        fidelity = abs(np.vdot(exact, mps_to_dense(emu.evolve(ham)[0]))) ** 2
        assert fidelity < 0.99  # chi=3 truncates heavily here
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


class TestSeededQRSplit:
    """Saturated bonds split by one QR step seeded with the old
    isometry; eigh only where a bond grows or the seed loses weight."""

    def test_dev_loop_shape_makes_no_eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def spy(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for n in (16, 20):
            emu = MPSEmulator(max_bond_dim=16)
            emu.evolve(dev_loop_ham(n))
            assert calls == []
            assert 0.0 < emu._last_discarded_weight < 1e-9
        # chi=6 is not a power of two: bonds grow 4 -> 6 through eigh
        MPSEmulator(max_bond_dim=6).evolve(dev_loop_ham(16))
        assert len(calls) > 0

    @pytest.mark.parametrize(
        "n, eigh_split",
        [
            (10, {2: 0.8413, 3: 0.9796, 5: 0.9999}),
            (12, {2: 0.7943, 3: 0.9722, 5: 0.9998}),
            (14, {2: 0.7499, 3: 0.9648, 5: 0.9998}),
        ],
    )
    def test_accuracy_matches_the_eigh_split(self, n, eigh_split):
        """True fidelities equal those of the optimal all-eigh split,
        which gave the values below, and from chi=3 up the estimate
        stays within 0.02 of the true fidelity."""
        ham = sweep_ham(n)
        exact = sweep_reference(n)
        for chi in (2, 3, 5, 6):
            emu = MPSEmulator(max_bond_dim=chi)
            fidelity = abs(np.vdot(exact, mps_to_dense(emu.evolve(ham)[0]))) ** 2
            if chi in eigh_split:
                assert abs(fidelity - eigh_split[chi]) <= 1e-3
            if chi != 2:
                assert abs(emu.fidelity_estimate() - fidelity) <= 0.02

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        chi=st.sampled_from([1, 2, 3, 4, 6, 8]),
        rightward=st.booleans(),
        strength=st.sampled_from([0.0, 1e-7, 1e-4, 1e-2, 0.3, 1.0]),
    )
    def test_saturated_split_is_within_tolerance_of_optimum(
        self, seed, chi, rightward, strength
    ):
        rng = np.random.default_rng(seed)
        dl, dr = rng.integers(chi // 2 + 1, chi + 1, size=2)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        # a saturated bond: the centre on one side, an isometry on the other
        if rightward:
            a = cplx(dl, 2, chi)
            b = np.linalg.qr(cplx(2 * dr, chi))[0].conj().T.reshape(chi, 2, dr)
        else:
            a = np.linalg.qr(cplx(2 * dl, chi))[0].reshape(dl, 2, chi)
            b = cplx(chi, 2, dr)
        h = cplx(4, 4)
        w, v = np.linalg.eigh(h + h.conj().T)
        op = (v * np.exp(-1j * strength * w)) @ v.conj().T
        theta = (a.reshape(2 * dl, chi) @ b.reshape(chi, 2 * dr)).reshape(dl, 4, dr)
        theta = np.matmul(op, theta).reshape(2 * dl, 2 * dr)
        s2 = np.linalg.svd(theta, compute_uv=False) ** 2
        optimum = s2[chi:].sum() / s2.sum()

        new_a, new_b, lost = _bond_step(a, b, op, chi, rightward, True)
        iso, centre = (new_a, new_b) if rightward else (new_b, new_a)
        iso = iso.reshape(2 * dl, chi) if rightward else iso.reshape(chi, 2 * dr).conj().T
        np.testing.assert_allclose(iso.conj().T @ iso, np.eye(chi), atol=1e-12)
        assert np.linalg.norm(centre) == pytest.approx(1.0, abs=1e-12)
        # the weight reported is the exact weight projected away
        kept = iso.conj().T @ theta if rightward else theta @ iso
        assert lost == pytest.approx(1.0 - np.vdot(kept, kept).real / s2.sum(), abs=1e-12)
        assert optimum - 1e-12 <= lost <= optimum + _SEED_TOL + 1e-12
        if strength == 0.0:
            assert lost <= _SEED_TOL  # the seed spans theta exactly


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
