"""Integration tests for the middleware daemon: scheduling modes,
REST API, admin surface, low-level controls."""

import numpy as np
import pytest

from repro.daemon import (
    MiddlewareDaemon,
    PriorityClass,
    SharingMode,
    TaskState,
    build_router,
)
from repro.daemon.queue import ShotCapPolicy
from repro.qpu import ConstantWaveform, QPUDevice, Register, ShotClock
from repro.qrmi import LocalEmulatorResource, OnPremQPUResource
from repro.runtime import DaemonClient
from repro.sdk import Pulse, Sequence
from repro.simkernel import Simulator, Timeout
from repro.spec import JobSpec


def make_program(shots=50, n=2):
    seq = Sequence(Register.chain(n, spacing=6.0), name="daemon-test")
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


def build_daemon(mode=SharingMode.SHOT_CAP, shot_rate=1.0, shot_cap=None, **kwargs):
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=shot_rate, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    resources = {
        "onprem": OnPremQPUResource("onprem", device),
        "emu": LocalEmulatorResource("emu", emulator="emu-sv"),
    }
    daemon = MiddlewareDaemon(
        sim, resources, mode=mode,
        shot_cap=shot_cap if shot_cap is not None else ShotCapPolicy(),
        **kwargs,
    )
    return sim, daemon, device


class TestSessionsAndSubmission:
    def test_session_token_flow(self):
        sim, daemon, _ = build_daemon()
        session = daemon.create_session("alice", "production")
        assert session.priority_class is PriorityClass.PRODUCTION
        resolved = daemon.resolve_session(session.token)
        assert resolved.user == "alice"

    def test_priority_from_slurm_partition(self):
        _, daemon, _ = build_daemon()
        session = daemon.create_session("bob", slurm_partition="test-partition")
        assert session.priority_class is PriorityClass.TEST

    def test_submit_and_complete(self):
        sim, daemon, _ = build_daemon()
        session = daemon.create_session("alice", "production")
        task = daemon.submit_task(session.token, make_program(shots=20), "onprem")
        sim.run()
        assert task.state is TaskState.COMPLETED
        result = daemon.task_result(session.token, task.task_id)
        assert sum(result.counts.values()) == 20

    def test_submit_unknown_resource(self):
        from repro.errors import DaemonError

        _, daemon, _ = build_daemon()
        session = daemon.create_session("alice")
        with pytest.raises(DaemonError):
            daemon.submit_task(session.token, make_program(), "ghost")

    def test_validation_against_target(self):
        from repro.errors import ValidationError

        _, daemon, _ = build_daemon()
        session = daemon.create_session("alice")
        too_big = make_program(n=120)  # exceeds onprem max_qubits=100
        with pytest.raises(ValidationError):
            daemon.submit_task(session.token, too_big, "onprem")

    def test_cross_session_access_denied(self):
        from repro.errors import SessionError

        sim, daemon, _ = build_daemon()
        alice = daemon.create_session("alice", "production")
        eve = daemon.create_session("eve", "production")
        task = daemon.submit_task(alice.token, make_program(shots=5), "onprem")
        sim.run()
        with pytest.raises(SessionError):
            daemon.task_result(eve.token, task.task_id)

    def test_shot_cap_applied_to_dev(self):
        sim, daemon, _ = build_daemon()
        session = daemon.create_session("dev-user", "development")
        task = daemon.submit_task(session.token, make_program(shots=1000), "onprem")
        assert task.program.shots == 100  # dev cap
        assert task.batched is False


class TestSchedulingModes:
    def test_priority_order_execution(self):
        """With a busy QPU, a production task jumps ahead of queued dev tasks."""
        sim, daemon, _ = build_daemon()
        dev = daemon.create_session("dev", "development")
        prod = daemon.create_session("prod", "production")
        # first dev task occupies the QPU (50 shots at 1Hz = 50s)
        t1 = daemon.submit_task(dev.token, make_program(shots=50), "onprem")
        t2 = daemon.submit_task(dev.token, make_program(shots=50), "onprem")
        sim.run(until=5.0)
        t3 = daemon.submit_task(prod.token, make_program(shots=50), "onprem")
        sim.run()
        assert t3.started_at < t2.started_at  # production overtook dev

    def test_preempt_mode_interrupts_running_dev_task(self):
        sim, daemon, _ = build_daemon(mode=SharingMode.PREEMPT, shot_cap=ShotCapPolicy(dev_max_shots=10_000))
        dev = daemon.create_session("dev", "development")
        prod = daemon.create_session("prod", "production")
        t_dev = daemon.submit_task(dev.token, make_program(shots=500), "onprem")
        sim.run(until=10.0)
        assert t_dev.state is TaskState.RUNNING
        t_prod = daemon.submit_task(prod.token, make_program(shots=20), "onprem")
        sim.run()
        assert t_prod.started_at == pytest.approx(10.0, abs=0.1)
        assert t_dev.preempt_count == 1
        assert t_dev.state is TaskState.COMPLETED  # requeued then finished

    def test_shot_cap_mode_keeps_production_wait_low(self):
        """The paper's claim C1: production wait stays low because
        non-production tasks are short (capped shots)."""
        sim, daemon, _ = build_daemon(mode=SharingMode.SHOT_CAP)
        dev = daemon.create_session("dev", "development")
        prod = daemon.create_session("prod", "production")
        for _ in range(3):
            daemon.submit_task(dev.token, make_program(shots=5000), "onprem")
        sim.run(until=5.0)
        t_prod = daemon.submit_task(prod.token, make_program(shots=50), "onprem")
        sim.run()
        # dev tasks were capped to 100 shots = 100s each; production waited
        # at most one task's worth, not 5000s.
        assert t_prod.wait_time() < 200.0

    def test_local_emulator_tasks_execute(self):
        sim, daemon, _ = build_daemon()
        session = daemon.create_session("alice", "test")
        task = daemon.submit_task(session.token, make_program(shots=30), "emu")
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.result.backend == "emu-sv"


class TestRestAPI:
    def make_client(self, daemon):
        return DaemonClient(build_router(daemon))

    def test_full_user_flow_over_rest(self):
        sim, daemon, _ = build_daemon()
        client = self.make_client(daemon)
        body = client.open_session("alice", priority_class="production")
        assert body["priority_class"] == "production"
        task_id = client.submit(JobSpec(program=make_program(shots=10), resource="onprem"))
        sim.run()
        status = client.status(task_id)
        assert status["state"] == "completed"
        result = client.result(task_id)
        assert sum(result["counts"].values()) == 10
        meta = client.job_metadata(task_id)
        assert meta["backend"] in ("emu-sv", "emu-mps")
        assert "calibration" in meta

    def test_discovery_endpoints(self):
        _, daemon, _ = build_daemon()
        client = self.make_client(daemon)
        resources = client.resources()
        assert {r["name"] for r in resources} == {"onprem", "emu"}
        target = client.target("onprem")
        assert target["name"] == "fresnel-sim"
        assert client.sdks() == ["pulser-like", "qiskit-like"]

    def test_metrics_endpoint(self):
        sim, daemon, _ = build_daemon()
        client = self.make_client(daemon)
        client.open_session("alice", priority_class="production")
        client.submit(JobSpec(program=make_program(shots=5), resource="onprem"))
        sim.run()
        text = client.metrics_text()
        assert "daemon_tasks_total" in text
        assert "daemon_queue_depth" in text

    def test_invalid_program_422(self):
        from repro.errors import ValidationError

        _, daemon, _ = build_daemon()
        client = self.make_client(daemon)
        client.open_session("alice")
        with pytest.raises(ValidationError) as err:
            client.submit(JobSpec(program=make_program(n=120), resource="onprem"))
        assert err.value.violations

    def test_missing_token_401(self):
        _, daemon, _ = build_daemon()
        router = build_router(daemon)
        from repro.daemon import Request

        # the token is checked before the body is decoded
        response = router.dispatch(
            Request("POST", "/jobs", body={"program": {}, "resource": "onprem"})
        )
        assert response.status == 401

    def test_bad_body_400(self):
        _, daemon, _ = build_daemon()
        router = build_router(daemon)
        from repro.daemon import Request

        response = router.dispatch(Request("POST", "/sessions", body={}))
        assert response.status == 400


class TestAdminAPI:
    def admin_client(self, daemon):
        return DaemonClient(build_router(daemon), token=daemon.admin_token)

    def test_user_cannot_reach_admin(self):
        _, daemon, _ = build_daemon()
        client = DaemonClient(build_router(daemon))
        client.open_session("alice")
        from repro.errors import DaemonError

        with pytest.raises(DaemonError, match="403"):
            client._call("GET", "/admin/queue")

    def test_queue_stats(self):
        sim, daemon, _ = build_daemon()
        user = DaemonClient(build_router(daemon))
        user.open_session("alice", priority_class="production")
        user.submit(JobSpec(program=make_program(shots=5), resource="onprem"))
        sim.run()
        stats = self.admin_client(daemon)._call("GET", "/admin/queue").body
        assert stats["completed"] == 1

    def test_maintenance_cycle(self):
        sim, daemon, device = build_daemon()
        admin = self.admin_client(daemon)
        body = admin._call("POST", "/admin/devices/onprem/maintenance").body
        assert body["status"] == "maintenance"
        device.calibration.detection_epsilon = 0.15
        body = admin._call("DELETE", "/admin/devices/onprem/maintenance").body
        assert body["status"] == "online"
        assert device.calibration.detection_epsilon == pytest.approx(0.01)

    def test_qa_endpoint(self):
        _, daemon, _ = build_daemon()
        body = self.admin_client(daemon)._call("POST", "/admin/devices/onprem/qa").body
        assert body["passed"] is True

    def test_telemetry_endpoint(self):
        _, daemon, _ = build_daemon()
        body = self.admin_client(daemon)._call("GET", "/admin/devices/onprem/telemetry").body
        assert body["status"] == "online"
        assert "qpu_fidelity_proxy" in body

    def test_lowlevel_read_write_guarded(self):
        _, daemon, device = build_daemon()
        admin = self.admin_client(daemon)
        body = admin._call("GET", "/admin/devices/onprem/lowlevel").body
        assert "detuning_offset" in body["parameters"]
        admin._call(
            "PUT", "/admin/devices/onprem/lowlevel/detuning_offset", body={"value": 0.5}
        )
        assert device.calibration.detuning_offset == 0.5
        # out-of-bounds write rejected
        from repro.errors import DaemonError

        with pytest.raises(DaemonError):
            admin._call(
                "PUT",
                "/admin/devices/onprem/lowlevel/detuning_offset",
                body={"value": 99.0},
            )
        # non-whitelisted parameter rejected
        with pytest.raises(DaemonError):
            admin._call(
                "PUT", "/admin/devices/onprem/lowlevel/t1_us", body={"value": 5.0}
            )

    def test_session_admin(self):
        _, daemon, _ = build_daemon()
        user = DaemonClient(build_router(daemon))
        user.open_session("alice")
        admin = self.admin_client(daemon)
        sessions = admin._call("GET", "/admin/sessions").body["sessions"]
        assert sessions[0]["user"] == "alice"
        admin._call("DELETE", f"/admin/sessions/{sessions[0]['session_id']}")
        assert daemon.sessions.get(sessions[0]["session_id"]).closed


class TestObservabilityIntegration:
    def test_scraper_populates_tsdb(self):
        sim, daemon, _ = build_daemon(scrape_interval=10.0)
        sim.run(until=35.0)
        times, _ = daemon.tsdb.query("qpu_fidelity_proxy", labels={"device": "onprem"})
        assert len(times) == 3

    def test_alerts_on_degraded_device(self):
        sim, daemon, device = build_daemon(scrape_interval=10.0)
        device.calibration.detection_epsilon = 0.25
        device.calibration.detection_epsilon_prime = 0.35
        device.calibration.rabi_calibration_error = 0.3
        sim.run(until=120.0)
        firing = daemon.evaluate_alerts()
        assert any("degraded" in a["name"] for a in firing)

    def test_editing_a_result_body_leaves_the_job_metadata(self):
        sim, daemon, _ = build_daemon()
        client = DaemonClient(build_router(daemon))
        client.open_session("alice", priority_class="production")
        task_id = client.submit(JobSpec(program=make_program(shots=10), resource="onprem"))
        sim.run()
        client.result(task_id)["metadata"]["edited"] = True
        assert "edited" not in client.job_metadata(task_id)["diagnostics"]
        assert "edited" not in client.result(task_id)["metadata"]

    def test_jobmeta_recorded_on_completion(self):
        sim, daemon, _ = build_daemon()
        session = daemon.create_session("alice", "production")
        task = daemon.submit_task(session.token, make_program(shots=10), "onprem")
        sim.run()
        record = daemon.jobmeta.get(task.task_id)
        assert record.user == "alice"
        assert record.priority_class == "production"


class _EagerGaugeDaemon(MiddlewareDaemon):
    """The reference: the queue-depth gauge also refreshed after every
    submit and every finished task, not only at exposition."""

    def _refresh_queue_gauge(self):
        for cls, depth in self.queue.depth_by_class().items():
            self._m_queue.set(float(depth), labels={"class": cls})

    def submit_task(self, *args, **kwargs):
        task = super().submit_task(*args, **kwargs)
        self._refresh_queue_gauge()
        return task

    def _record_task_metadata(self, task):
        super()._record_task_metadata(task)
        self._refresh_queue_gauge()


def _exposition_trace(daemon_cls):
    """Every /metrics text of a preempt-mode run with submits, one
    preemption and completions: one after each submit and one every
    2.5 simulated seconds until the queue drains."""
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    daemon = daemon_cls(
        sim, {"onprem": OnPremQPUResource("onprem", device)}, mode=SharingMode.PREEMPT,
        shot_cap=ShotCapPolicy(dev_max_shots=10_000),
    )
    texts = []

    def observe():
        while True:
            texts.append(daemon.metrics_text())
            yield Timeout(2.5)

    sim.spawn(observe(), name="scraper")
    dev = daemon.create_session("dev", "development")
    test = daemon.create_session("test", "test")
    prod = daemon.create_session("prod", "production")
    tasks = []
    for when, session, shots in ((0.0, dev, 30), (0.0, test, 5), (4.0, dev, 8), (10.0, prod, 6)):
        sim.run(until=when)
        tasks.append(daemon.submit_task(session.token, make_program(shots=shots), "onprem"))
        texts.append(daemon.metrics_text())
    sim.run(until=80.0)
    return texts, tasks, daemon


class TestQueueDepthGauge:
    def test_exposition_equals_eager_refresh(self):
        texts, tasks, daemon = _exposition_trace(MiddlewareDaemon)
        reference, _, _ = _exposition_trace(_EagerGaugeDaemon)
        assert daemon.scheduler.tasks_preempted >= 1
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        assert texts == reference
        depths = {line for text in texts for line in text.splitlines() if line.startswith("daemon_queue_depth{")}
        # the gauge moved: queued work showed, and the drained queue too
        assert any(not line.endswith(" 0.0") for line in depths)
        assert texts[-1].count("daemon_queue_depth{") == 3
