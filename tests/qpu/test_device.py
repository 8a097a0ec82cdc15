"""Tests for specs, calibration drift, shot clock, device execution, QA."""

import numpy as np
import pytest

from repro.errors import DeviceError, ValidationError
from repro.simkernel import Simulator, RngRegistry
from repro.qpu import (
    CalibrationState,
    CompositeWaveform,
    ConstantWaveform,
    DeviceSpecs,
    DriftModel,
    DriftProcess,
    DriveSegment,
    QAJob,
    QPUDevice,
    Register,
    ShotClock,
)


def simple_program(n=2, omega=np.pi, duration=1.0, spacing=6.0):
    reg = Register.chain(n, spacing=spacing)
    segs = [DriveSegment(ConstantWaveform(duration, omega), ConstantWaveform(duration, 0.0))]
    return reg, segs


class TestDeviceSpecs:
    def test_valid_program_passes(self):
        specs = DeviceSpecs()
        reg, segs = simple_program()
        specs.check(reg, segs, shots=100)  # must not raise

    def test_register_too_large(self):
        specs = DeviceSpecs(max_qubits=3)
        reg, segs = simple_program(n=4)
        violations = specs.validate_register(reg)
        assert any("atoms" in v for v in violations)

    def test_atoms_too_close(self):
        specs = DeviceSpecs(min_atom_distance=5.0)
        reg, _ = simple_program(spacing=3.0)
        assert specs.validate_register(reg)

    def test_register_too_wide(self):
        specs = DeviceSpecs(max_radius=10.0)
        reg = Register.chain(10, spacing=6.0)
        assert any("field of view" in v for v in specs.validate_register(reg))

    def test_rabi_limit(self):
        specs = DeviceSpecs(max_rabi=2.0)
        _, segs = simple_program(omega=5.0)
        assert any("Rabi" in v for v in specs.validate_schedule(segs))

    def test_short_composite_part_out_of_detuning_range(self):
        # the -1000 rad/us part is under half a step of a 100-step grid
        # but a fine Hamiltonian grid still drives the atoms with it
        specs = DeviceSpecs()
        delta = CompositeWaveform(ConstantWaveform(0.003, -1000.0), ConstantWaveform(0.997, 0.0))
        segs = [DriveSegment(ConstantWaveform(1.0, 1.0), delta)]
        assert any("detuning" in v for v in specs.validate_schedule(segs))
        with pytest.raises(ValidationError):
            specs.check(Register.chain(2, spacing=6.0), segs, shots=10)

    def test_duration_limit(self):
        specs = DeviceSpecs(max_sequence_duration=0.5)
        _, segs = simple_program(duration=1.0)
        assert any("duration" in v for v in specs.validate_schedule(segs))

    def test_shots_limits(self):
        specs = DeviceSpecs(max_shots_per_task=100)
        assert specs.validate_shots(0)
        assert specs.validate_shots(101)
        assert not specs.validate_shots(100)

    def test_check_collects_all_violations(self):
        specs = DeviceSpecs(max_qubits=1, max_rabi=0.1, max_shots_per_task=10)
        reg, segs = simple_program(n=3, omega=5.0)
        with pytest.raises(ValidationError) as err:
            specs.check(reg, segs, shots=100)
        assert len(err.value.violations) == 3

    def test_dict_roundtrip(self):
        specs = DeviceSpecs(name="x", max_qubits=7)
        again = DeviceSpecs.from_dict(specs.to_dict())
        assert again == specs

    def test_bumped_increments_revision(self):
        specs = DeviceSpecs()
        newer = specs.bumped(max_qubits=50)
        assert newer.revision == specs.revision + 1
        assert newer.max_qubits == 50


class TestCalibration:
    def test_nominal_fidelity_is_high(self):
        assert CalibrationState().fidelity_proxy() > 0.95

    def test_degradation_lowers_fidelity(self):
        state = CalibrationState()
        state.detection_epsilon = 0.10
        assert state.fidelity_proxy() < CalibrationState().fidelity_proxy()

    def test_recalibrate_restores_nominal(self):
        state = CalibrationState()
        state.detection_epsilon = 0.2
        state.t2_us = 5.0
        state.recalibrate(now=123.0)
        assert state.detection_epsilon == pytest.approx(0.01)
        assert state.t2_us == pytest.approx(50.0)
        assert state.last_calibrated_at == 123.0

    def test_noise_model_derivation(self):
        noise = CalibrationState().to_noise_model()
        assert noise.detection_epsilon == pytest.approx(0.01)
        assert not noise.is_trivial

    def test_drift_degrades_over_time(self):
        state = CalibrationState()
        model = DriftModel(jump_rate_per_hour=0.0)
        rng = np.random.default_rng(0)
        start_fid = state.fidelity_proxy()
        for _ in range(600):  # 10 hours of minutes
            model.step(state, 60.0, rng)
        assert state.fidelity_proxy() < start_fid

    def test_jump_event_degrades_sharply(self):
        state = CalibrationState()
        model = DriftModel()
        rng = np.random.default_rng(1)
        before = state.fidelity_proxy()
        model.apply_jump(state, rng)
        # one jump may hit any parameter; apply several to guarantee movement
        for _ in range(5):
            model.apply_jump(state, rng)
        assert state.fidelity_proxy() <= before

    def test_drift_process_runs_in_simulation(self):
        sim = Simulator()
        state = CalibrationState()
        seen = []
        DriftProcess(
            sim, state, DriftModel(jump_rate_per_hour=0.0),
            RngRegistry(0).get("drift"), interval=60.0,
            on_step=lambda s: seen.append(s.fidelity_proxy()),
        )
        sim.run(until=600.0)
        assert len(seen) == 10


class TestShotClock:
    def test_one_hz_rate(self):
        clock = ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0)
        assert clock.execution_time(100) == pytest.approx(100.0)

    def test_hundred_hz_roadmap(self):
        clock = ShotClock(shot_rate_hz=1.0).with_rate(100.0)
        t1 = ShotClock(shot_rate_hz=1.0).execution_time(500)
        t2 = clock.execution_time(500)
        assert t2 < t1 / 50

    def test_unbatched_penalty(self):
        clock = ShotClock(batch_size=100, batch_overhead_s=0.5)
        batched = clock.execution_time(200, batched=True)
        unbatched = clock.execution_time(200, batched=False)
        assert unbatched > batched

    def test_sequence_duration_contributes(self):
        clock = ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0)
        base = clock.execution_time(100, sequence_duration_us=0.0)
        longer = clock.execution_time(100, sequence_duration_us=5.0)
        assert longer == pytest.approx(base + 100 * 5e-6)

    def test_zero_shots_only_setup(self):
        clock = ShotClock(setup_overhead_s=2.0)
        assert clock.execution_time(0) == 2.0

    def test_invalid_params(self):
        with pytest.raises(DeviceError):
            ShotClock(shot_rate_hz=0.0)
        with pytest.raises(DeviceError):
            ShotClock(batch_size=0)


class TestQPUDevice:
    def test_run_now_returns_physics(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        reg, segs = simple_program(n=1, omega=np.pi)
        result = device.run_now(reg, segs, shots=500)
        # pi pulse: mostly |1>, minus SPAM noise
        p1 = result.counts.get("1", 0) / 500
        assert p1 > 0.9

    def test_validation_enforced(self):
        device = QPUDevice(specs=DeviceSpecs(max_qubits=1))
        reg, segs = simple_program(n=2)
        with pytest.raises(ValidationError):
            device.run_now(reg, segs, shots=10)

    def test_telemetry_counters(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        reg, segs = simple_program(n=1)
        device.run_now(reg, segs, shots=100)
        snap = device.telemetry(now=10.0)
        assert snap.shots_served_total == 100
        assert snap.tasks_completed_total == 1
        assert snap.busy_seconds_total > 0

    def test_result_carries_calibration_metadata(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        reg, segs = simple_program(n=1)
        result = device.run_now(reg, segs, shots=10)
        assert "calibration" in result.metadata
        assert result.metadata["device"] == device.specs.name

    def test_maintenance_blocks_execution(self):
        device = QPUDevice()
        device.start_maintenance()
        reg, segs = simple_program(n=1)
        with pytest.raises(DeviceError):
            device.run_now(reg, segs, shots=10)
        assert device.status == "maintenance"
        device.finish_maintenance(now=50.0)
        assert device.status == "online"
        assert device.calibration.last_calibrated_at == 50.0

    def test_degraded_status_from_bad_calibration(self):
        device = QPUDevice()
        device.calibration.detection_epsilon = 0.2
        device.calibration.detection_epsilon_prime = 0.3
        assert device.status == "degraded"

    def test_execute_process_takes_simulated_time(self):
        sim = Simulator()
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=2.0, batch_overhead_s=0.0),
            rng=np.random.default_rng(0),
        )
        reg, segs = simple_program(n=1)
        results = []

        def runner():
            result = yield from device.execute_process(sim, reg, segs, shots=10, task_id="t1")
            results.append((sim.now, result))

        sim.spawn(runner())
        sim.run()
        end_time, result = results[0]
        assert end_time == pytest.approx(2.0 + 10 * (1.0 + segs[0].duration * 1e-6))
        assert sum(result.counts.values()) == 10

    def test_busy_trace_emitted(self):
        sim = Simulator()
        device = QPUDevice(rng=np.random.default_rng(0))
        reg, segs = simple_program(n=1)

        def runner():
            yield from device.execute_process(sim, reg, segs, shots=5, task_id="t2")

        sim.spawn(runner())
        sim.run()
        pairs = device.trace.pairs("busy_start", "busy_end", key="task_id", component="qpu")
        assert len(pairs) == 1

    def test_large_register_uses_mps_engine(self):
        device = QPUDevice(rng=np.random.default_rng(0), sv_cutoff_qubits=4)
        reg, segs = simple_program(n=6, omega=1.0, duration=0.2)
        result = device.run_now(reg, segs, shots=20)
        assert result.backend == "emu-mps"


class TestQAJob:
    def test_healthy_device_passes(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        result = QAJob(shots=300).run(device, now=0.0)
        assert result.passed
        assert result.score > 0.85

    def test_degraded_device_fails(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        device.calibration.detection_epsilon = 0.25
        device.calibration.detection_epsilon_prime = 0.35
        device.calibration.rabi_calibration_error = 0.25
        result = QAJob(shots=300).run(device, now=0.0)
        assert result.score < 0.85
        assert not result.passed

    def test_details_populated(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        result = QAJob(shots=100).run(device, now=5.0)
        assert set(result.details) >= {"p01", "p10", "p11", "shots"}
        assert result.time == 5.0


class TestHotPathCaches:
    def test_hamiltonian_cached_per_program_content(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        reg, segs = simple_program()
        first = device._hamiltonian(reg, segs)
        assert device._hamiltonian(reg, segs) is first
        # equal content under new objects is the same key
        reg2, segs2 = simple_program()
        assert device._hamiltonian(reg2, segs2) is first
        # different content is a different key
        reg3, segs3 = simple_program(spacing=7.0)
        assert device._hamiltonian(reg3, segs3) is not first

    def test_hamiltonian_cache_bounded(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        programs = [simple_program(spacing=6.0 + 0.1 * i) for i in range(70)]
        for reg, segs in programs:
            device._hamiltonian(reg, segs)
        assert len(device._ham_cache) <= 64

    def test_noise_model_follows_calibration_version(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        first = device._noise_model()
        assert device._noise_model() is first
        device.calibration.detuning_offset = 0.5  # version bump
        fresh = device._noise_model()
        assert fresh is not first
        assert fresh.detuning_std > first.detuning_std

    def test_specs_to_dict_cache_is_isolated(self):
        specs = DeviceSpecs(extra={"zone": "a", "tags": ["x"]})
        first = specs.to_dict()
        first["name"] = "clobbered"
        first["extra"]["tags"].append("y")
        second = specs.to_dict()
        assert second["name"] == specs.name
        assert second["extra"] == {"zone": "a", "tags": ["x"]}
        assert DeviceSpecs.from_dict(second) == specs
