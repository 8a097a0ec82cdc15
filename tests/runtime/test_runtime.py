"""Tests for the runtime environment: backend selection, validation,
direct/daemon execution, portability, hybrid loops."""

import numpy as np
import pytest

from repro.config import DictConfig
from repro.errors import ResourceNotFound, ValidationError
from repro.daemon import MiddlewareDaemon
from repro.qpu import ConstantWaveform, DeviceSpecs, QPUDevice, Register, ShotClock
from repro.qrmi import LocalEmulatorResource, OnPremQPUResource
from repro.runtime import (
    EnvironmentFingerprint,
    HybridProgram,
    OptimizerLoop,
    PortabilityReport,
    RunResult,
    RuntimeEnvironment,
    compare_targets,
    select_resource,
    total_variation_distance,
    validate_program,
)
from repro.sdk import Pulse, Sequence
from repro.simkernel import Simulator
from repro.spec import JobSpec


def make_program(shots=50, n=2, omega=np.pi):
    seq = Sequence(Register.chain(n, spacing=20.0), name="rt-test")
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(1.0, omega), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


def direct_env(**emulator_overrides):
    config = DictConfig(
        {
            "QRMI_RESOURCES": "local-emu",
            "QRMI_LOCAL_EMU_TYPE": "local-emulator",
            "QRMI_LOCAL_EMU_EMULATOR": "emu-sv",
        }
    )
    return RuntimeEnvironment.from_config(config)


class TestBackendSelect:
    AVAILABLE = {
        "onprem": "onprem-qpu",
        "local": "local-emulator",
        "cloud-emu": "cloud-emulator",
    }

    def test_explicit_wins(self):
        assert select_resource(self.AVAILABLE, requested="onprem") == "onprem"

    def test_explicit_unknown_raises(self):
        with pytest.raises(ResourceNotFound):
            select_resource(self.AVAILABLE, requested="ghost")

    def test_env_default_second(self):
        assert select_resource(self.AVAILABLE, env_default="cloud-emu") == "cloud-emu"

    def test_preference_defaults_to_emulator(self):
        assert select_resource(self.AVAILABLE) == "local"

    def test_multi_site_placement_resolves_every_leg(self):
        class FakeFederation:
            def available_resources(self):
                return {"site-0/onprem": "onprem-qpu", "site-1/onprem": "onprem-qpu"}

            def has_resource(self, name):
                return name in self.available_resources()

        placement = select_resource(
            self.AVAILABLE,
            requested=("site-0/onprem", "local"),
            federation=FakeFederation(),
        )
        assert placement == ("site-0/onprem", "local")

    def test_multi_site_placement_fails_on_unknown_leg(self):
        with pytest.raises(ResourceNotFound):
            select_resource(self.AVAILABLE, requested=("local", "nowhere/qpu"))

    def test_multi_site_placement_rejects_empty(self):
        with pytest.raises(ResourceNotFound):
            select_resource(self.AVAILABLE, requested=())

    def test_no_resources(self):
        with pytest.raises(ResourceNotFound):
            select_resource({})


class TestValidation:
    def test_valid_program(self):
        assert validate_program(make_program(), DeviceSpecs()) == []

    def test_violations_reported(self):
        specs = DeviceSpecs(max_qubits=1, max_shots_per_task=10)
        violations = validate_program(make_program(shots=100, n=3), specs)
        assert len(violations) == 2

    def test_compare_targets(self):
        dev = DeviceSpecs()
        prod = dev.bumped(max_qubits=50, max_rabi=6.0)
        diff = compare_targets(dev, prod)
        assert diff["max_qubits"] == (100, 50)
        assert diff["max_rabi"] == (12.57, 6.0)
        assert "max_radius" not in diff


class TestDirectMode:
    def test_run_returns_uniform_result(self):
        env = direct_env()
        result = env.run(make_program(shots=100))
        assert isinstance(result, RunResult)
        assert result.resource == "local-emu"
        assert result.backend == "emu-sv"
        assert sum(result.counts.values()) == 100

    def test_shots_override(self):
        env = direct_env()
        result = env.run(make_program(shots=10), shots=77)
        assert result.shots == 77

    def test_point_of_execution_validation(self):
        env = direct_env()
        big = make_program(n=20)  # over emu-sv max_qubits
        with pytest.raises(ValidationError):
            env.run(big)

    def test_accepts_raw_sdk_objects(self):
        from repro.sdk import AnalogCircuit

        env = direct_env()
        circuit = AnalogCircuit(Register.chain(2, spacing=20.0)).rx_global(np.pi).measure_all()
        result = env.run(circuit, shots=50)
        assert sum(result.counts.values()) == 50

    def test_env_default_resource_from_config(self):
        config = DictConfig(
            {
                "QRMI_RESOURCES": "a,b",
                "QRMI_A_TYPE": "local-emulator",
                "QRMI_A_EMULATOR": "emu-sv",
                "QRMI_B_TYPE": "local-emulator",
                "QRMI_B_EMULATOR": "emu-mps",
                "QRMI_DEFAULT_RESOURCE": "b",
            }
        )
        env = RuntimeEnvironment.from_config(config)
        assert env.resolve() == "b"


def build_daemon_env(priority="production"):
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    daemon = MiddlewareDaemon(
        sim,
        {
            "onprem": OnPremQPUResource("onprem", device),
            "emu": LocalEmulatorResource("emu", emulator="emu-sv"),
        },
    )
    env = RuntimeEnvironment.with_daemon(daemon, user="alice", priority_class=priority)
    return sim, env, daemon


class TestDaemonMode:
    def test_run_process_through_queue(self):
        sim, env, daemon = build_daemon_env()
        results = []

        def runner():
            result = yield from env.run_process(make_program(shots=20), qpu="onprem")
            results.append(result)

        sim.spawn(runner())
        sim.run()
        assert len(results) == 1
        assert sum(results[0].counts.values()) == 20
        assert results[0].resource == "onprem"

    def test_emulator_resource_completes_instantly(self):
        sim, env, daemon = build_daemon_env()
        results = []

        def runner():
            result = yield from env.run_process(make_program(shots=15), qpu="emu")
            results.append(result)

        sim.spawn(runner())
        final_time = sim.run()
        assert results[0].backend == "emu-sv"
        # emulator tasks consume no QPU shot-clock time, and the result
        # arrives with the pushed completion: no poll tick on top
        assert final_time == 0.0

    def test_wait_time_measured(self):
        sim, env, daemon = build_daemon_env()
        waits = []

        def runner(delay):
            yield from ()  # make generator
            result = yield from env.run_process(make_program(shots=50), qpu="onprem")
            waits.append(result.queue_wait_s)

        sim.spawn(runner(0))
        sim.spawn(runner(0))
        sim.run()
        assert min(waits) == pytest.approx(0.0, abs=0.2)
        assert max(waits) > 4.0  # second task waited for the first (50 shots @10Hz)

    def test_run_process_returns_at_the_task_finish(self):
        """The runtime wakes on the pushed terminal transition: it
        returns at the task's ``finished_at``, not at the next poll."""
        sim, env, daemon = build_daemon_env()
        returned = []

        def runner():
            yield from env.run_process(make_program(shots=23), qpu="onprem")
            returned.append(sim.now)

        sim.spawn(runner())
        sim.run()
        (task,) = daemon.queue.all_tasks()
        assert task.finished_at == pytest.approx(2.3, abs=0.01)
        assert returned == [task.finished_at]

    def test_spec_fields_travel_to_the_daemon_task(self):
        sim, env, daemon = build_daemon_env()
        spec = JobSpec(
            program=make_program(shots=10),
            tenant="acme",
            algorithm="easy-backfill",
            metadata={"run": "r1"},
        )

        def runner():
            yield from env.run_process(spec, qpu="emu")

        sim.spawn(runner())
        sim.run()
        (task,) = daemon.queue.all_tasks()
        assert task.user == "alice"
        assert task.priority.label == "production"
        assert task.metadata == {"run": "r1", "tenant": "acme", "algorithm": "easy-backfill"}

    def test_run_refuses_a_daemon_resource_before_submitting(self):
        from repro.errors import TaskError

        _, env, daemon = build_daemon_env()
        with pytest.raises(TaskError, match="run_process"):
            env.run(make_program(shots=10), qpu="emu")
        assert daemon.queue.all_tasks() == []

    def test_available_resources_via_rest(self):
        _, env, _ = build_daemon_env()
        available = env.available_resources()
        assert available == {"onprem": "onprem-qpu", "emu": "local-emulator"}


class TestPortability:
    def test_report_accumulates_and_checks_hash(self):
        env = direct_env()
        program = make_program(shots=300)
        report = PortabilityReport(program.content_hash())
        result = env.run(program)
        report.add(
            EnvironmentFingerprint("laptop", "local-emu", "local-emulator", result.backend),
            result,
        )
        assert report.program_unchanged()
        assert report.stages == ["laptop"]

    def test_mismatched_program_rejected(self):
        from repro.errors import ReproError

        env = direct_env()
        a = make_program(shots=100)
        b = make_program(shots=100, omega=2.0)  # different physics
        report = PortabilityReport(a.content_hash())
        result_b = env.run(b)
        with pytest.raises(ReproError, match="DIFFERENT program"):
            report.add(
                EnvironmentFingerprint("laptop", "local-emu", "local-emulator", "emu-sv"),
                result_b,
            )

    def test_tv_distance_between_stages(self):
        env = direct_env()
        program = make_program(shots=2000)
        report = PortabilityReport(program.content_hash())
        for stage in ("laptop", "hpc"):
            result = env.run(program)
            report.add(
                EnvironmentFingerprint(stage, "local-emu", "local-emulator", "emu-sv"),
                result,
            )
        assert report.max_tv_distance() < 0.1  # same backend, sampling noise only

    def test_tv_distance_function(self):
        assert total_variation_distance({"0": 50, "1": 50}, {"0": 50, "1": 50}) == 0.0
        assert total_variation_distance({"0": 100}, {"1": 100}) == 1.0


class TestHybridProgram:
    def test_optimizer_loop_minimizes_quadratic(self):
        loop = OptimizerLoop(initial=np.array([3.0]), step=1.0)
        for _ in range(60):
            if loop.converged:
                break
            x = loop.propose()
            loop.observe(float((x[0] - 1.0) ** 2))
        assert abs(loop.best_params[0] - 1.0) < 0.2

    def test_hybrid_run_improves_objective(self):
        env = direct_env()

        def build(params):
            # single qubit: rotate by params[0]; objective = P(0)
            seq = Sequence(Register.chain(1), name="opt")
            seq.declare_channel("ch")
            omega = float(np.clip(abs(params[0]), 0.1, 6.0))
            seq.add(Pulse.constant_detuning(ConstantWaveform(1.0, omega), 0.0), "ch")
            seq.measure()
            return seq

        def objective(result):
            return result.counts.get("0", 0) / result.shots

        program = HybridProgram(
            build_program=build,
            objective=objective,
            optimizer=OptimizerLoop(initial=np.array([1.0]), step=0.8),
            shots=400,
            max_iterations=15,
        )
        summary = program.run(env)
        # optimum is omega=pi (P(0)=0); must get close
        assert summary["best_value"] < 0.15
        assert summary["iterations"] > 3

    def test_as_payload_runs_in_cluster_job(self):
        from repro.cluster import JobSpec, Node, Partition, SlurmController

        sim, env, daemon = build_daemon_env()

        def build(params):
            return make_program(shots=20)

        program = HybridProgram(
            build_program=build,
            objective=lambda r: r.counts.get("00", 0) / r.shots,
            optimizer=OptimizerLoop(initial=np.array([1.0]), step=0.5, min_step=0.4),
            shots=20,
            max_iterations=3,
            classical_seconds_per_iter=2.0,
        )
        nodes = [Node("n0", cpus=4)]
        ctl = SlurmController(sim, nodes, [Partition("batch", nodes)])
        job_id = ctl.submit(
            JobSpec(name="hybrid", payload=program.as_payload(env, qpu="onprem"))
        )
        sim.run()
        job = ctl.jobs[job_id]
        assert job.state.value == "completed"
        assert job.result["iterations"] == 3
