"""Tests for the shared IR and both SDK front ends."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import IRError, RegisterError, SDKError, TranslationError
from repro.qpu import BlackmanWaveform, ConstantWaveform, DeviceSpecs, Register
from repro.sdk import (
    AnalogCircuit,
    AnalogProgram,
    DecodedParts,
    Pulse,
    Sequence,
    default_registry,
    lower_to_hamiltonian,
    to_ir,
)


def pulser_program(shots=100, n=2):
    reg = Register.chain(n, spacing=6.0)
    seq = Sequence(reg, name="test-seq")
    seq.declare_channel("ch0")
    seq.add(Pulse.constant_detuning(ConstantWaveform(1.0, np.pi), 0.0), "ch0")
    seq.measure()
    return seq.build(shots=shots)


class TestAnalogProgram:
    def test_basic_properties(self):
        program = pulser_program()
        assert program.num_qubits == 2
        assert program.duration_us == pytest.approx(1.0)
        assert program.sdk == "pulser-like"

    def test_needs_segments(self):
        with pytest.raises(IRError):
            AnalogProgram(register=Register.chain(2), segments=(), shots=10)

    def test_needs_positive_shots(self):
        reg = Register.chain(2)
        seq = pulser_program()
        with pytest.raises(IRError):
            AnalogProgram(register=reg, segments=seq.segments, shots=0)

    def test_dict_roundtrip(self):
        program = pulser_program()
        again = AnalogProgram.from_dict(program.to_dict())
        assert again == program
        assert again.content_hash() == program.content_hash()

    def test_wire_memo_stays_out_of_eq_replace_and_to_dict(self):
        program = pulser_program()
        fresh = program.to_dict()
        wire = program.wire()
        assert program.wire() is wire
        assert wire == fresh and program.to_dict() is not wire
        assert set(program.to_dict()) == {"register", "segments", "shots", "name", "sdk", "metadata"}
        assert program == pulser_program()
        for other in (replace(program, shots=7), program.with_shots(7)):
            assert other.wire()["shots"] == 7
            assert program.wire()["shots"] == program.shots

    def test_with_shots_preserves_content(self):
        program = pulser_program(shots=100)
        more = program.with_shots(500)
        assert more.shots == 500
        assert more.content_hash() == program.content_hash()

    def test_content_hash_ignores_shots_and_name(self):
        a = pulser_program(shots=100)
        b = pulser_program(shots=999)
        assert a.content_hash() == b.content_hash()

    def test_content_hash_sensitive_to_register(self):
        a = pulser_program(n=2)
        b = pulser_program(n=3)
        assert a.content_hash() != b.content_hash()

    def test_malformed_dict(self):
        with pytest.raises(IRError):
            AnalogProgram.from_dict({"shots": 10})


class TestDecodedParts:
    """Programs decoded through one table share each register or segment
    of the same wire content; anything else decodes afresh."""

    def test_repeated_content_shares_its_parts(self):
        parts = DecodedParts()
        first = AnalogProgram.from_dict(pulser_program().to_dict(), parts)
        again = AnalogProgram.from_dict(pulser_program(shots=7).to_dict(), parts)
        assert again.register is first.register
        assert again.segments[0] is first.segments[0]
        assert again is not first and again.shots == 7
        assert again.content_hash() == first.content_hash() == pulser_program().content_hash()
        elsewhere = AnalogProgram.from_dict(pulser_program().to_dict())
        assert elsewhere.register is not first.register

    def test_contents_equal_in_python_but_not_on_the_wire_stay_apart(self):
        parts = DecodedParts()
        wire = pulser_program().to_dict()
        signed = {**wire, "segments": [{**wire["segments"][0], "phase": -0.0}]}
        zero, negative = AnalogProgram.from_dict(wire, parts), AnalogProgram.from_dict(signed, parts)
        assert negative.segments[0] is not zero.segments[0]
        assert negative.content_hash() != zero.content_hash()
        ints = {**wire, "register": {**wire["register"], "labels": [1, 2]}}
        floats = {**wire, "register": {**wire["register"], "labels": [1.0, 2.0]}}
        assert AnalogProgram.from_dict(ints, parts).register.labels == [1, 2]
        assert AnalogProgram.from_dict(floats, parts).register.labels == [1.0, 2.0]

    def test_a_failed_part_is_refused_every_time(self):
        parts = DecodedParts()
        wire = pulser_program().to_dict()
        bad = {**wire, "register": {"positions": [[0.0, 0.0, 0.0]], "labels": ["a"]}}
        for _ in range(2):
            with pytest.raises(RegisterError):
                AnalogProgram.from_dict(bad, parts)
        assert len(parts) == 0

    def test_unpicklable_data_decodes_afresh(self):
        class Value(float):  # local classes do not pickle
            pass

        parts = DecodedParts()
        wire = pulser_program().to_dict()
        odd = {**wire, "segments": [{**wire["segments"][0], "phase": Value(0.0)}]}
        first, again = AnalogProgram.from_dict(odd, parts), AnalogProgram.from_dict(odd, parts)
        assert first.segments[0] is not again.segments[0]
        assert first.content_hash() == again.content_hash() == pulser_program().content_hash()

    def test_the_table_is_bounded(self, monkeypatch):
        from repro.sdk import ir

        monkeypatch.setattr(ir, "PARTS_LIMIT", 3)
        parts = DecodedParts()
        for n in range(2, 8):
            AnalogProgram.from_dict(pulser_program(n=n).to_dict(), parts)
            assert len(parts) <= 3


class TestPulserLike:
    def test_channel_required(self):
        seq = Sequence(Register.chain(2))
        with pytest.raises(SDKError):
            seq.add(Pulse.constant_detuning(ConstantWaveform(1.0, 1.0), 0.0), "nope")

    def test_unsupported_channel_kind(self):
        seq = Sequence(Register.chain(2))
        with pytest.raises(SDKError):
            seq.declare_channel("ch", kind="raman_local")

    def test_duplicate_channel(self):
        seq = Sequence(Register.chain(2))
        seq.declare_channel("ch")
        with pytest.raises(SDKError):
            seq.declare_channel("ch")

    def test_measure_before_build_required(self):
        seq = Sequence(Register.chain(2))
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(1.0, 1.0), 0.0), "ch")
        with pytest.raises(SDKError):
            seq.build()

    def test_no_pulses_after_measure(self):
        seq = Sequence(Register.chain(2))
        seq.declare_channel("ch")
        pulse = Pulse.constant_detuning(ConstantWaveform(1.0, 1.0), 0.0)
        seq.add(pulse, "ch")
        seq.measure()
        with pytest.raises(SDKError):
            seq.add(pulse, "ch")

    def test_empty_measure_rejected(self):
        seq = Sequence(Register.chain(2))
        with pytest.raises(SDKError):
            seq.measure()

    def test_device_prevalidation(self):
        from repro.errors import ValidationError

        specs = DeviceSpecs(max_rabi=1.0)
        seq = Sequence(Register.chain(2), device=specs)
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(1.0, 5.0), 0.0), "ch")
        seq.measure()
        with pytest.raises(ValidationError):
            seq.build()

    def test_constant_amplitude_constructor(self):
        from repro.qpu import RampWaveform

        pulse = Pulse.constant_amplitude(2.0, RampWaveform(1.0, -5.0, 5.0))
        seg = pulse.to_segment()
        assert seg.omega.max_abs() == 2.0


class TestQiskitLike:
    def test_rx_global_lowering(self):
        reg = Register.chain(2, spacing=6.0)
        circ = AnalogCircuit(reg).rx_global(np.pi, duration=0.5).measure_all()
        program = circ.transpile(shots=50)
        assert program.sdk == "qiskit-like"
        seg = program.segments[0]
        # area = omega * duration = pi
        assert seg.omega.integral() == pytest.approx(np.pi)

    def test_wait_instruction(self):
        reg = Register.chain(2)
        program = AnalogCircuit(reg).rx_global(1.0).wait(2.0, delta=-3.0).measure_all().transpile()
        assert program.segments[1].omega.max_abs() == 0.0
        assert program.segments[1].delta.integral() == pytest.approx(-6.0)

    def test_adiabatic_sweep(self):
        reg = Register.chain(4)
        program = (
            AnalogCircuit(reg)
            .adiabatic_sweep(area=8.0, delta_start=-6.0, delta_stop=10.0, duration=4.0)
            .measure_all()
            .transpile()
        )
        assert isinstance(program.segments[0].omega, BlackmanWaveform)
        assert program.duration_us == pytest.approx(4.0)

    def test_measure_required(self):
        circ = AnalogCircuit(Register.chain(2)).rx_global(1.0)
        with pytest.raises(SDKError):
            circ.transpile()

    def test_no_instructions_after_measure(self):
        circ = AnalogCircuit(Register.chain(2)).rx_global(1.0).measure_all()
        with pytest.raises(SDKError):
            circ.rx_global(1.0)

    def test_param_validation(self):
        circ = AnalogCircuit(Register.chain(2))
        with pytest.raises(SDKError):
            circ.rx_global(-1.0)
        with pytest.raises(SDKError):
            circ.wait(0.0)


class TestCrossSDKEquivalence:
    def test_same_physics_same_hash(self):
        """The SAME pulse schedule written in both SDKs hashes identically —
        the IR really is SDK-neutral."""
        reg = Register.chain(2, spacing=6.0)
        # pulser-like: constant pi pulse over 0.5us
        seq = Sequence(reg)
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2 * np.pi), 0.0), "ch")
        seq.measure()
        a = seq.build()
        # qiskit-like: rx_global(area=pi) lowering to the same constant pulse
        b = AnalogCircuit(reg).rx_global(np.pi, duration=0.5).measure_all().transpile()
        assert a.content_hash() == b.content_hash()

    def test_same_results_through_emulator(self):
        from repro.emulators import StateVectorEmulator

        reg = Register.chain(2, spacing=20.0)
        seq = Sequence(reg)
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2 * np.pi), 0.0), "ch")
        seq.measure()
        prog_a = seq.build()
        prog_b = AnalogCircuit(reg).rx_global(np.pi, duration=0.5).measure_all().transpile()
        pa = StateVectorEmulator().probabilities(lower_to_hamiltonian(prog_a))
        pb = StateVectorEmulator().probabilities(lower_to_hamiltonian(prog_b))
        np.testing.assert_allclose(pa, pb, atol=1e-12)


class TestTranslateAndRegistry:
    def test_to_ir_passthrough(self):
        program = pulser_program()
        assert to_ir(program) is program

    def test_to_ir_from_dict(self):
        program = pulser_program()
        again = to_ir(program.to_dict())
        assert again == program

    def test_to_ir_rejects_unknown(self):
        with pytest.raises(TranslationError):
            to_ir(42)

    def test_registry_translates_both_sdks(self):
        registry = default_registry()
        assert registry.names() == ["pulser-like", "qiskit-like"]
        circ = AnalogCircuit(Register.chain(2)).rx_global(1.0).measure_all()
        program = registry.translate(circ, shots=10)
        assert program.shots == 10
        assert registry.supports(circ)

    def test_registry_duplicate_rejected(self):
        registry = default_registry()
        with pytest.raises(SDKError):
            registry.register("pulser-like", Sequence, lambda s, n: s.build(n))

    def test_registry_unknown_object(self):
        registry = default_registry()
        with pytest.raises(SDKError):
            registry.translate(3.14)

    def test_lower_to_hamiltonian(self):
        ham = lower_to_hamiltonian(pulser_program(), dt=0.1)
        assert ham.num_qubits == 2
        assert ham.total_duration == pytest.approx(1.0)
