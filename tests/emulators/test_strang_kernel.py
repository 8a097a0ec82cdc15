"""The state-vector Strang kernel against an independent dense
reference, its step-table memory bound, and misaligned composite
schedules end to end."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulators import NoiseModel, StateVectorEmulator, statevector
from repro.emulators.sampling import popcounts
from repro.emulators.statevector import (
    _GROUP,
    _HADAMARD_MAX,
    _TABLE_BUDGET,
    _cis,
    _drive_amplitudes,
    _evolve_grouped,
    _evolve_hadamard,
    _group_sizes,
    _step_operators,
)
from repro.qpu import (
    CompositeWaveform,
    ConstantWaveform,
    DriveSegment,
    RampWaveform,
    Register,
    RydbergHamiltonian,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _embed(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """``op`` on ``qubit`` (qubit 0 = most significant) as a 2^n matrix."""
    return np.kron(np.kron(np.eye(1 << qubit), op), np.eye(1 << (n - qubit - 1)))


def _dense_reference(ham, scale: float, offset: float) -> np.ndarray:
    """Strang steps D(dt/2) expm(-i dt H_drive) D(dt/2) with the full
    2^n diagonal and drive matrices; the exponential comes from an
    eigendecomposition of the dense drive operator."""
    n = ham.num_qubits
    dim = 1 << n
    number = np.diag([0.0, 1.0])
    occupations = [np.diag(_embed(number, q, n)).real for q in range(n)]
    e_int = np.zeros(dim)
    for i in range(n):
        for j in range(i + 1, n):
            e_int += ham.interactions[i, j] * occupations[i] * occupations[j]
    popcount = np.sum(occupations, axis=0)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    eig: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(ham.num_steps):
        dt = ham.steps[k]
        phi = float(ham.phase[k])
        if phi not in eig:
            drive = sum(
                _embed(np.cos(phi) * _X - np.sin(phi) * _Y, q, n) for q in range(n)
            )
            eig[phi] = np.linalg.eigh(drive)
        w, v = eig[phi]
        half = np.exp(-0.5j * dt * (e_int - (ham.delta[k] + offset) * popcount))
        psi = half * psi
        # H_drive = (Omega/2) * drive
        angle = 0.5 * scale * ham.omega[k] * dt
        psi = v @ (np.exp(-1j * angle * w) * (v.conj().T @ psi))
        psi = half * psi
    return psi


@st.composite
def _schedules(draw):
    n = draw(st.integers(1, 8))
    dt = draw(st.sampled_from([0.01, 0.02, 0.03]))
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        # durations off the dt grid give each segment its own step length
        duration = draw(st.floats(0.02, 0.12))
        if draw(st.booleans()):
            omega = ConstantWaveform(duration, 0.0)  # zero-drive steps
        else:
            omega = RampWaveform(duration, draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 8.0)))
        delta = RampWaveform(duration, draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0)))
        segments.append(DriveSegment(omega, delta, phase=draw(st.floats(-np.pi, np.pi))))
    # uneven gaps and a zigzag make the register asymmetric, so a
    # kernel that left the qubit order reversed would not match
    gaps = draw(st.lists(st.floats(5.0, 10.0), min_size=n - 1, max_size=n - 1))
    xs = np.cumsum([0.0, *gaps])
    ys = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    register = Register.from_coordinates(list(zip(xs, ys, strict=True)))
    ham = RydbergHamiltonian(register, segments, dt=dt)
    reals = draw(st.integers(1, 5))
    scales = np.array(draw(st.lists(st.floats(0.8, 1.2), min_size=reals, max_size=reals)))
    offsets = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=reals, max_size=reals)))
    return ham, scales, offsets


class TestDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(_schedules())
    def test_kernel_matches_dense_strang_steps(self, drawn):
        ham, scales, offsets = drawn
        batched = StateVectorEmulator().evolve_many(ham, scales, offsets)
        for r in range(len(scales)):
            expected = _dense_reference(ham, scales[r], offsets[r])
            np.testing.assert_allclose(batched[r], expected, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(batched, axis=1), 1.0, atol=1e-10)


def _two_pass_operators(amplitudes: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Gather ``⊗^m v`` from its m+1 amplitudes by Hamming distance,
    then scale its columns: the two-pass build of the step operators."""
    m = amplitudes.shape[-1] - 1
    index = np.arange(1 << m)
    distance = np.array([[bin(a ^ b).count("1") for b in index] for a in index])
    ops = amplitudes.take(distance, axis=-1)
    ops *= columns[:, :, None, :]
    return ops


class TestStepOperators:
    @settings(max_examples=60, deadline=None)
    @given(_schedules())
    def test_one_gather_equals_two_pass_build(self, drawn):
        # the step operators of ``evolve_many``, built from the same
        # columns: the single-group fold (n <= 4) and every group size
        ham, scales, offsets = drawn
        n = ham.num_qubits
        fused = ham.fused_diagonals()
        sizes = _group_sizes(n)
        half_angle = np.outer(fused.half_angle, scales)
        weight = fused.popcount_phase[:, None] + np.outer(fused.half_sums, offsets)
        detuning = _cis(weight[:, :, None] * np.arange(sizes[0] + 1))
        for size, amplitudes in _drive_amplitudes(half_angle, sizes).items():
            columns = detuning.take(popcounts(size), axis=-1)
            if len(sizes) == 1:
                columns *= fused.interaction[fused.index, None, :]
            ops = _step_operators(amplitudes, columns)
            assert ops.shape == (ham.num_steps, len(scales), 1 << size, 1 << size)
            assert np.array_equal(ops, _two_pass_operators(amplitudes, columns))


@st.composite
def _hadamard_cases(draw):
    """A 5..``_HADAMARD_MAX``-atom chain or random register, 1-3 drive
    segments with their own phases, R = 1-4 realizations, detuning
    offsets zero or drawn."""
    n = draw(st.integers(_GROUP + 1, _HADAMARD_MAX))
    if draw(st.booleans()):
        register = Register.chain(n, spacing=draw(st.floats(5.0, 8.0)))
    else:
        gaps = draw(st.lists(st.floats(4.5, 9.0), min_size=n - 1, max_size=n - 1))
        ys = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        register = Register.from_coordinates(list(zip(np.cumsum([0.0, *gaps]), ys, strict=True)))
    segments = [
        DriveSegment(
            RampWaveform(duration, draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))),
            RampWaveform(duration, draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))),
            phase=draw(st.floats(-np.pi, np.pi)),
        )
        for duration in draw(st.lists(st.floats(0.02, 0.12), min_size=1, max_size=3))
    ]
    ham = RydbergHamiltonian(register, segments, dt=0.01)
    reals = draw(st.integers(1, 4))
    scales = np.array(draw(st.lists(st.floats(0.8, 1.2), min_size=reals, max_size=reals)))
    if draw(st.booleans()):
        offsets = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=reals, max_size=reals)))
    else:
        offsets = np.zeros(reals)
    return ham, scales, offsets


class TestHadamardStep:
    @settings(max_examples=60, deadline=None)
    @given(_hadamard_cases())
    def test_hadamard_step_equals_grouped_step(self, drawn):
        ham, scales, offsets = drawn
        fused = ham.fused_diagonals()
        half_angle = fused.half_angle[:, None] * scales
        weight = fused.popcount_phase[:, None] + fused.half_sums[:, None] * offsets
        n = ham.num_qubits
        hadamard = _evolve_hadamard(fused, n, half_angle, weight)
        grouped = _evolve_grouped(fused, n, half_angle, weight)
        assert hadamard.shape == grouped.shape == (len(scales), 1 << n)
        np.testing.assert_allclose(hadamard, grouped, rtol=0, atol=1e-12)

    def test_register_sizes_take_their_step(self, monkeypatch):
        # one group folds, 5..bound atoms step in the Hadamard basis,
        # larger registers rotate their groups
        taken = []

        def spy(name):
            kernel = getattr(statevector, name)

            def call(*args):
                taken.append(name)
                return kernel(*args)

            return call

        for name in ("_evolve_folded", "_evolve_hadamard", "_evolve_grouped"):
            monkeypatch.setattr(statevector, name, spy(name))
        seg = DriveSegment(ConstantWaveform(0.02, 6.0), ConstantWaveform(0.02, 1.0))
        for n in (_GROUP, _GROUP + 1, _HADAMARD_MAX, _HADAMARD_MAX + 1):
            StateVectorEmulator().evolve(RydbergHamiltonian(_zigzag(n), [seg]), 1.0, 0.0)
        assert taken == ["_evolve_folded", "_evolve_hadamard", "_evolve_hadamard", "_evolve_grouped"]


class TestStepTableBudget:
    def test_peak_memory_within_budget(self):
        # R=300 realizations x K=1000 steps: the whole drive Kronecker
        # tensor would be R*K*4^4 complex values (~1.2 GB)
        self._check_budget(4)

    def test_hadamard_tables_within_budget(self):
        # the Hadamard-basis tables would be 2*R*K*2^5 values (~0.3 GB)
        self._check_budget(5)

    def _check_budget(self, n):
        reg = Register.chain(n, spacing=6.0)
        seg = DriveSegment(
            ConstantWaveform(1.0, 6.0), RampWaveform(1.0, -4.0, 4.0), phase=0.3
        )
        ham = RydbergHamiltonian(reg, [seg], dt=0.001)
        assert ham.num_steps == 1000
        rng = np.random.default_rng(3)
        reals = 300
        scales = 1.0 + 0.05 * rng.standard_normal(reals)
        offsets = 0.1 * rng.standard_normal(reals)
        emu = StateVectorEmulator()
        ham.diagonal_energies()
        ham.occupation_counts()
        tracemalloc.start()
        try:
            batched = emu.evolve_many(ham, scales, offsets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _TABLE_BUDGET * np.dtype(np.complex128).itemsize
        for r in (0, reals // 2, reals - 1):
            single = emu.evolve(ham, scales[r], offsets[r])
            np.testing.assert_allclose(batched[r], single, atol=1e-10)


def _zigzag(n: int) -> Register:
    """An asymmetric n-atom register (see ``_schedules``)."""
    xs = np.cumsum([0.0] + [5.5 + 0.7 * (i % 3) for i in range(n - 1)])
    ys = [0.9 * ((-1) ** i) * (i % 2) for i in range(n)]
    return Register.from_coordinates(list(zip(xs, ys, strict=True)))


def _uneven_segments() -> list[DriveSegment]:
    """Three segments off the 0.01 us grid (steps of 0.025/3, 0.01 and
    0.035/4 us), with zero drive on the first and last segments."""
    return [
        DriveSegment(ConstantWaveform(0.025, 0.0), RampWaveform(0.025, -3.0, -1.0), phase=0.4),
        DriveSegment(RampWaveform(0.05, 2.0, 7.0), RampWaveform(0.05, -1.0, 4.0), phase=-0.8),
        DriveSegment(ConstantWaveform(0.035, 0.0), ConstantWaveform(0.035, 4.0), phase=1.1),
    ]


def _assert_matches_reference(ham, scales, offsets):
    batched = StateVectorEmulator().evolve_many(ham, scales, offsets)
    for r in range(len(scales)):
        expected = _dense_reference(ham, scales[r], offsets[r])
        np.testing.assert_allclose(batched[r], expected, atol=1e-10)


_SCALES = np.array([1.0, 0.93, 1.08])
_OFFSETS = np.array([0.0, 0.4, -0.7])


class TestKernelEdges:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
    def test_one_step_schedule(self, n):
        # F_0 = D_0^1/2 is the whole diagonal after the only rotation
        seg = DriveSegment(ConstantWaveform(0.01, 6.0), ConstantWaveform(0.01, 2.5), phase=0.7)
        ham = RydbergHamiltonian(_zigzag(n), [seg], dt=0.01)
        assert ham.num_steps == 1
        _assert_matches_reference(ham, _SCALES, _OFFSETS)

    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    def test_zero_drive_first_and_last_steps(self, n):
        ham = RydbergHamiltonian(_zigzag(n), _uneven_segments(), dt=0.01)
        assert ham.omega[0] == 0.0 and ham.omega[-1] == 0.0
        _assert_matches_reference(ham, _SCALES, _OFFSETS)

    @pytest.mark.parametrize("n", [4, 7])
    def test_single_and_multi_group_share_uneven_steps(self, n):
        # n = 4 folds the whole diagonal into one matmul per step; n = 7
        # rotates two groups and multiplies the interaction phase
        ham = RydbergHamiltonian(_zigzag(n), _uneven_segments(), dt=0.01)
        assert len(np.unique(ham.steps)) == 3
        _assert_matches_reference(ham, _SCALES, _OFFSETS)

    def test_fused_diagonals_share_rows_per_step_length_sum(self):
        ham = RydbergHamiltonian(_zigzag(3), _uneven_segments(), dt=0.01)
        fused = ham.fused_diagonals()
        assert ham.fused_diagonals() is fused
        steps = np.append(ham.steps, 0.0)
        np.testing.assert_array_equal(fused.half_sums, 0.5 * (steps[:-1] + steps[1:]))
        # 3 in-segment sums, 2 segment boundaries and the final half step
        assert len(fused.interaction) == len(np.unique(fused.half_sums)) == 6
        np.testing.assert_allclose(
            fused.interaction[fused.index],
            np.exp(-1j * fused.half_sums[:, None] * ham.diagonal_energies()),
        )

    def test_drive_phase_turns_fold_into_popcount_phase(self):
        # phases 0.4 -> -0.8 -> 1.1: the turn is -1.2 at the first
        # boundary, +1.9 at the second and -1.1 after the last step
        ham = RydbergHamiltonian(_zigzag(3), _uneven_segments(), dt=0.01)
        fused = ham.fused_diagonals()
        weighted = np.append(ham.steps * ham.delta, 0.0)
        turns = fused.popcount_phase - 0.5 * (weighted[:-1] + weighted[1:])
        boundaries = np.flatnonzero(np.abs(turns) > 1e-12)
        assert boundaries.tolist() == [1, 6, ham.num_steps - 1]
        np.testing.assert_allclose(turns[boundaries], [-1.2, 1.9, -1.1], atol=1e-12)
        np.testing.assert_array_equal(fused.half_angle, 0.5 * ham.omega * ham.steps)


def _misaligned_ham() -> RydbergHamiltonian:
    # quarters of 0.075 us on a 0.01 us grid: 7.5 steps each
    quarter = 0.075
    omega = CompositeWaveform(
        RampWaveform(quarter, 0.0, 5.0),
        ConstantWaveform(2 * quarter, 5.0),
        RampWaveform(quarter, 5.0, 0.0),
    )
    delta = CompositeWaveform(
        ConstantWaveform(quarter, -3.0),
        RampWaveform(2 * quarter, -3.0, 3.0),
        ConstantWaveform(quarter, 3.0),
    )
    return RydbergHamiltonian(Register.chain(3, spacing=6.0), [DriveSegment(omega, delta)], dt=0.01)


class TestMisalignedComposite:
    def test_one_sample_per_step(self):
        ham = _misaligned_ham()
        assert ham.num_steps == 30
        assert len(ham.omega) == len(ham.delta) == 30

    def test_noiseless_evolve_matches_dense_reference(self):
        ham = _misaligned_ham()
        psi = StateVectorEmulator().evolve(ham)
        np.testing.assert_allclose(psi, _dense_reference(ham, 1.0, 0.0), atol=1e-10)

    def test_noisy_run(self):
        ham = _misaligned_ham()
        noise = NoiseModel(amplitude_rel_std=0.03, detuning_std=0.1, noise_realizations=4)
        result = StateVectorEmulator().run(ham, 400, np.random.default_rng(5), noise=noise)
        assert sum(result.counts.values()) == 400
        assert all(len(key) == 3 for key in result.counts)
