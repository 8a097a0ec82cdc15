"""Tests for waveforms, drive segments, and the Rydberg Hamiltonian builder."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import PulseError
from repro.qpu import (
    BlackmanWaveform,
    CompositeWaveform,
    ConstantWaveform,
    DriveSegment,
    InterpolatedWaveform,
    RampWaveform,
    Register,
    RydbergHamiltonian,
    Waveform,
    interaction_matrix,
)
from repro.qpu.hamiltonian import DEFAULT_C6, rydberg_blockade_radius


class TestWaveforms:
    def test_constant_samples_and_integral(self):
        wf = ConstantWaveform(2.0, 3.0)
        np.testing.assert_allclose(wf.samples(0.5), [3.0, 3.0, 3.0, 3.0])
        assert wf.integral() == pytest.approx(6.0)
        assert wf.max_abs() == 3.0

    def test_ramp(self):
        wf = RampWaveform(1.0, 0.0, 10.0)
        samples = wf.samples(0.25)
        assert samples[0] < samples[-1]
        assert wf.integral() == pytest.approx(5.0)
        assert wf.max_abs() == 10.0

    def test_blackman_area(self):
        wf = BlackmanWaveform(1.0, np.pi)
        assert wf.integral() == pytest.approx(np.pi)
        # discrete area matches too
        dt = 0.001
        assert wf.samples(dt).sum() * dt == pytest.approx(np.pi, rel=1e-3)

    def test_blackman_smooth_edges(self):
        samples = BlackmanWaveform(1.0, np.pi).samples(0.01)
        assert samples[0] < samples[len(samples) // 2] / 10

    def test_interpolated(self):
        wf = InterpolatedWaveform(2.0, [0.0, 4.0, 0.0])
        samples = wf.samples(0.01)
        assert samples.max() == pytest.approx(4.0, rel=0.05)

    def test_interpolated_validation(self):
        with pytest.raises(PulseError):
            InterpolatedWaveform(1.0, [1.0])
        with pytest.raises(PulseError):
            InterpolatedWaveform(1.0, [0.0, 1.0], times=[0.5, 0.1])
        with pytest.raises(PulseError):
            InterpolatedWaveform(1.0, [0.0, 1.0], times=[0.0, 2.0])

    def test_composite(self):
        wf = CompositeWaveform(ConstantWaveform(1.0, 2.0), RampWaveform(1.0, 2.0, 0.0))
        assert wf.duration == 2.0
        assert wf.integral() == pytest.approx(3.0)

    @pytest.mark.parametrize("dt", [0.01, 0.02, 0.002, 0.03])
    def test_composite_misaligned_parts_fill_the_grid(self, dt):
        quarter = 0.075  # not a whole number of steps at any of the dts
        wf = CompositeWaveform(
            RampWaveform(quarter, 0.0, 5.0),
            ConstantWaveform(2 * quarter, 5.0),
            RampWaveform(quarter, 5.0, 0.0),
        )
        assert len(wf.samples(dt)) == max(1, round(wf.duration / dt))

    def test_extrema_cover_every_part(self):
        wf = CompositeWaveform(
            ConstantWaveform(0.003, -1000.0),
            RampWaveform(0.5, -2.0, 7.0),
            InterpolatedWaveform(0.497, [1.0, 9.0, 3.0]),
        )
        assert wf.extrema() == (-1000.0, 9.0)
        assert wf.max_abs() == 1000.0

    def test_composite_needs_parts(self):
        with pytest.raises(PulseError):
            CompositeWaveform()

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(PulseError):
            ConstantWaveform(0.0, 1.0)

    @pytest.mark.parametrize(
        "wf",
        [
            ConstantWaveform(1.5, 2.5),
            RampWaveform(1.0, 0.0, 5.0),
            BlackmanWaveform(1.0, np.pi),
            InterpolatedWaveform(2.0, [0.0, 1.0, 0.5]),
            CompositeWaveform(ConstantWaveform(1.0, 1.0), RampWaveform(0.5, 1.0, 0.0)),
        ],
    )
    def test_dict_roundtrip(self, wf):
        again = Waveform.from_dict(wf.to_dict())
        dt = wf.duration / 100
        np.testing.assert_allclose(again.samples(dt), wf.samples(dt))

    def test_from_dict_unknown_kind(self):
        with pytest.raises(PulseError):
            Waveform.from_dict({"kind": "mystery"})


class TestDriveSegment:
    def test_duration_mismatch_rejected(self):
        with pytest.raises(PulseError):
            DriveSegment(ConstantWaveform(1.0, 1.0), ConstantWaveform(2.0, 0.0))

    def test_roundtrip(self):
        seg = DriveSegment(ConstantWaveform(1.0, 2.0), RampWaveform(1.0, -5.0, 5.0), phase=0.3)
        again = DriveSegment.from_dict(seg.to_dict())
        assert again.phase == 0.3
        assert again.duration == 1.0


class TestHamiltonianSampling:
    def test_short_waveform_sampling_rejected(self):
        class Short(ConstantWaveform):
            def samples(self, dt):
                return super().samples(dt)[:-1]

        seg = DriveSegment(Short(0.3, 5.0), ConstantWaveform(0.3, 0.0))
        with pytest.raises(PulseError):
            RydbergHamiltonian(Register.chain(2, spacing=6.0), [seg], dt=0.01)


class TestInteractionMatrix:
    def test_r6_scaling(self):
        reg = Register.from_coordinates([(0, 0), (6, 0), (12, 0)])
        u = interaction_matrix(reg, c6=DEFAULT_C6)
        assert u[0, 1] == pytest.approx(DEFAULT_C6 / 6**6)
        assert u[0, 2] == pytest.approx(DEFAULT_C6 / 12**6)
        assert u[0, 1] / u[0, 2] == pytest.approx(64.0)

    def test_symmetric_zero_diagonal(self):
        reg = Register.ring(5)
        u = interaction_matrix(reg)
        np.testing.assert_allclose(u, u.T)
        assert np.all(np.diag(u) == 0)

    def test_blockade_radius(self):
        r = rydberg_blockade_radius(2 * np.pi)
        assert DEFAULT_C6 / r**6 == pytest.approx(2 * np.pi)


class TestRydbergHamiltonian:
    def make(self, n=3, omega=2.0, delta=0.0, duration=1.0, dt=0.1):
        reg = Register.chain(n, spacing=6.0)
        seg = DriveSegment(
            ConstantWaveform(duration, omega), ConstantWaveform(duration, delta)
        )
        return RydbergHamiltonian(reg, [seg], dt=dt)

    def test_grid_shapes(self):
        ham = self.make(duration=1.0, dt=0.1)
        assert ham.num_steps == 10
        assert ham.total_duration == pytest.approx(1.0)
        assert ham.omega.shape == (10,)

    def test_empty_schedule_rejected(self):
        with pytest.raises(PulseError):
            RydbergHamiltonian(Register.chain(2), [])

    def test_diagonal_energies_two_qubit(self):
        ham = self.make(n=2)
        e = ham.diagonal_energies()
        # states 00, 01, 10 have no interaction; 11 has U_01
        u01 = ham.interactions[0, 1]
        np.testing.assert_allclose(e, [0.0, 0.0, 0.0, u01])

    def test_occupation_table(self):
        ham = self.make(n=2)
        table = ham.occupation_table()
        np.testing.assert_allclose(table, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_bond_couplings_chain(self):
        ham = self.make(n=4)
        bonds = ham.bond_couplings()
        pairs = [(i, j) for i, j, _ in bonds]
        assert (0, 1) in pairs and (1, 2) in pairs and (2, 3) in pairs

    def test_multi_segment_concatenation(self):
        reg = Register.chain(2)
        segs = [
            DriveSegment(ConstantWaveform(1.0, 1.0), ConstantWaveform(1.0, 0.0)),
            DriveSegment(ConstantWaveform(0.5, 2.0), ConstantWaveform(0.5, -1.0)),
        ]
        ham = RydbergHamiltonian(reg, segs, dt=0.1)
        assert ham.total_duration == pytest.approx(1.5)
        assert ham.omega[0] == pytest.approx(1.0)
        assert ham.omega[-1] == pytest.approx(2.0)
        assert ham.delta[-1] == pytest.approx(-1.0)


@st.composite
def _registers(draw):
    """1-10 atoms: a chain, a 2-D layout or random positions at least
    1 um apart (so the strongest coupling stays finite)."""
    kind = draw(st.sampled_from(["chain", "ring", "square", "triangular", "random"]))
    spacing = draw(st.floats(4.0, 10.0))
    if kind == "chain":
        return Register.chain(draw(st.integers(1, 10)), spacing=spacing)
    if kind == "ring":
        return Register.ring(draw(st.integers(3, 10)), spacing=spacing)
    if kind in ("square", "triangular"):
        rows = draw(st.integers(1, 3))
        cols = draw(st.integers(1, 10 // rows))
        build = Register.square_lattice if kind == "square" else Register.triangular_lattice
        return build(rows, cols, spacing=spacing)
    n = draw(st.integers(1, 10))
    coord = st.floats(-20.0, 20.0)
    register = Register.from_coordinates(
        draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    )
    assume(register.min_distance() >= 1.0)
    return register


class TestDenseStatics:
    """The doubling builds of the dense backend's per-program tables
    against the (2^n, n) occupation-table formulas they replace."""

    @staticmethod
    def make(register, dt=0.01):
        seg = DriveSegment(RampWaveform(0.1, 1.0, 6.0), RampWaveform(0.1, -4.0, 4.0), phase=0.2)
        return RydbergHamiltonian(register, [seg], dt=dt)

    @settings(max_examples=80, deadline=None)
    @given(_registers())
    def test_diagonal_energies_match_einsum_reference(self, register):
        ham = self.make(register)
        bits = ham.occupation_table()
        reference = 0.5 * np.einsum("si,ij,sj->s", bits, ham.interactions, bits)
        energies = ham.diagonal_energies()
        assert energies.dtype == np.float64 and energies.shape == reference.shape
        # every pair energy is positive: no cancellation, so relative
        # agreement holds entry by entry (zero-or-one-atom states exactly)
        np.testing.assert_allclose(energies, reference, rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(_registers(), st.sampled_from([0.01, 0.013, 0.03]))
    def test_interaction_rows_match_phases_of_reference_energies(self, register, dt):
        ham = self.make(register, dt=dt)
        bits = ham.occupation_table()
        reference = 0.5 * np.einsum("si,ij,sj->s", bits, ham.interactions, bits)
        fused = ham.fused_diagonals()
        distinct = np.unique(fused.half_sums)
        assert fused.interaction.shape == (len(distinct), 1 << register.num_atoms)
        angle = distinct[:, None] * reference
        # a phase of angle a is good to ~eps |a| whichever way it is
        # built, and close pairs make the angles large
        error = np.abs(fused.interaction - np.exp(-1j * angle))
        assert np.all(error <= 1e-13 * (1.0 + angle))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_occupation_counts_are_the_shared_read_only_popcount(self, n):
        ham = self.make(Register.chain(n))
        counts = ham.occupation_counts()
        expected = ham.occupation_table().sum(axis=1).astype(np.intp)
        assert counts.dtype == expected.dtype
        np.testing.assert_array_equal(counts, expected)
        assert not counts.flags.writeable
        assert self.make(Register.chain(n, spacing=7.0)).occupation_counts() is counts
