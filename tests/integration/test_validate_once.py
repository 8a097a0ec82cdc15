"""Validate once, build once: per-content device checks and Hamiltonians.

A :class:`DeviceSpecs` object remembers the program contents that passed
its register and schedule checks, the device builds one Hamiltonian per
content, and a REST submit decodes the IR once.  These tests pin the
counts, and that every public entry point still refuses an invalid
program (the memory never admits what the current specs forbid).
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.daemon import MiddlewareDaemon, Request, SharingMode, build_router
from repro.daemon.queue import ShotCapPolicy, TaskState
from repro.errors import ValidationError
from repro.qpu import (
    ConstantWaveform,
    DeviceSpecs,
    DriveSegment,
    QPUDevice,
    Register,
    RydbergHamiltonian,
    ShotClock,
)
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogProgram
from repro.session import Session
from repro.simkernel import Simulator, Timeout
from repro.spec import JobSpec

#: above DeviceSpecs().max_rabi (12.57 rad/us): a bad schedule
BAD_OMEGA = 50.0


def make_program(omega=1.0, spacing=6.0, shots=20, name="validate-once"):
    segment = DriveSegment(ConstantWaveform(0.5, omega), ConstantWaveform(0.5, 0.0))
    return AnalogProgram(
        Register.chain(2, spacing=spacing), (segment,), shots=shots, name=name
    )


def build(mode=SharingMode.SHOT_CAP, specs=None):
    sim = Simulator()
    device = QPUDevice(
        specs=specs,
        clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    daemon = MiddlewareDaemon(
        sim,
        {"onprem": OnPremQPUResource("onprem", device)},
        mode=mode,
        shot_cap=ShotCapPolicy(),
        scrape_interval=120.0,
    )
    return sim, daemon, device


@pytest.fixture
def tally(monkeypatch):
    """Counts real checks per specs object, Hamiltonian builds and IR
    decodes for the duration of one test."""
    counts = SimpleNamespace(check=Counter(), builds=0, decodes=0)
    check = DeviceSpecs.check
    init = RydbergHamiltonian.__init__
    decode = AnalogProgram.from_dict.__func__

    def counted_check(self, *args, **kwargs):
        counts.check[id(self)] += 1
        return check(self, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts.builds += 1
        init(self, *args, **kwargs)

    def counted_decode(cls, data, *args):
        counts.decodes += 1
        return decode(cls, data, *args)

    monkeypatch.setattr(DeviceSpecs, "check", counted_check)
    monkeypatch.setattr(RydbergHamiltonian, "__init__", counted_init)
    monkeypatch.setattr(AnalogProgram, "from_dict", classmethod(counted_decode))
    return counts


def open_session(router, user="alice", priority_class="development"):
    response = router.dispatch(
        Request(
            "POST", "/sessions", body={"user": user, "priority_class": priority_class}
        )
    )
    assert response.status == 201
    return response.body["token"]


def post(router, token, path, body):
    return router.dispatch(
        Request("POST", path, body=body, headers={"Authorization": f"Bearer {token}"})
    )


class TestBadScheduleRefusedAtEveryEntryPoint:
    """Each entry point is tried twice: a failed check is never
    remembered, so the second submit is checked (and refused) again."""

    def test_session_on_the_daemon_backend(self, tally):
        sim, daemon, device = build()
        session = Session(daemon=daemon, user="alice")
        spec = JobSpec(program=make_program(omega=BAD_OMEGA), resource="onprem")
        for _ in range(2):
            with pytest.raises(ValidationError, match="violation"):
                session.submit(spec)
        assert tally.check[id(device.specs)] == 2
        assert daemon.queue.queued_count() == 0

    def test_rest_jobs_route(self, tally):
        """``POST /jobs`` with the daemon's fallback resource and with
        an explicit one: each refusal is a real check."""
        sim, daemon, device = build()
        router = build_router(daemon)
        token = open_session(router)
        bad = make_program(omega=BAD_OMEGA)
        for _ in range(2):
            for spec in (JobSpec(program=bad), JobSpec(program=bad, resource="onprem")):
                jobs = post(router, token, "/jobs", spec.to_dict())
                assert jobs.status == 422
                assert any("Rabi" in v for v in jobs.body["violations"])
        assert tally.check[id(device.specs)] == 4
        assert daemon.queue.all_tasks() == []

    def test_device_run_now_and_execute_process(self, tally):
        sim = Simulator()
        device = QPUDevice(rng=np.random.default_rng(0))
        bad = make_program(omega=BAD_OMEGA)
        segments = list(bad.segments)
        for _ in range(2):
            with pytest.raises(ValidationError):
                device.run_now(bad.register, segments, shots=10)
            with pytest.raises(ValidationError):
                next(device.execute_process(sim, bad.register, segments, shots=10))
        assert tally.check[id(device.specs)] == 4
        assert tally.builds == 0


class TestMemoryEdges:
    def test_specs_swapped_after_admission_fails_the_task(self, tally):
        sim, daemon, device = build()
        session = daemon.create_session("alice", "development")
        task = daemon.submit_task(session.token, make_program(omega=5.0), "onprem")
        admitted_under = device.specs
        # drift before the task runs: the new specs object forbids it
        device.specs = device.specs.bumped(max_rabi=2.0)
        sim.run(until=100.0)
        assert task.state is TaskState.FAILED
        assert task.error.startswith("ValidationError")
        assert tally.check[id(admitted_under)] == 1
        assert tally.check[id(device.specs)] == 1

    def test_remembered_content_with_too_many_shots_is_refused(self, tally):
        sim, daemon, device = build(specs=DeviceSpecs(max_shots_per_task=100))
        session = daemon.create_session("prod", "production")  # no shot cap
        program = make_program()
        daemon.submit_task(session.token, program, "onprem", shots=50)
        with pytest.raises(ValidationError) as refused:
            daemon.submit_task(session.token, program, "onprem", shots=500)
        assert refused.value.violations == ["shots 500 exceeds per-task limit 100"]
        with pytest.raises(ValidationError):
            device.specs.admit(program.register, program.segments, 500)
        # both refusals came from the remembered content
        assert tally.check[id(device.specs)] == 1

    def test_failed_content_is_refused_again(self, tally):
        specs = DeviceSpecs()
        bad = make_program(omega=BAD_OMEGA)
        for _ in range(3):
            with pytest.raises(ValidationError) as refused:
                specs.admit(bad.register, bad.segments, 10)
            assert "Rabi amplitude" in refused.value.violations[0]
        assert tally.check[id(specs)] == 3

    def test_memory_stays_out_of_the_document(self):
        specs = DeviceSpecs()
        program = make_program()
        specs.admit(program.register, program.segments, 10)
        assert specs.to_dict() == DeviceSpecs().to_dict()
        assert specs == DeviceSpecs()
        assert specs.bumped().__dict__.get("_admitted") is None

    def test_memory_is_bounded(self, tally, monkeypatch):
        from repro.qpu import specs as specs_module

        monkeypatch.setattr(specs_module, "ADMITTED_LIMIT", 4)
        specs = DeviceSpecs()
        programs = [make_program(spacing=6.0 + i) for i in range(6)]
        for program in programs:
            specs.admit(program.register, program.segments, 10)
        assert len(specs._admitted) <= 4
        assert tally.check[id(specs)] == 6


class TestCountsUnderPreemption:
    """16 REST sessions on one preempting daemon: contents are checked
    and built once each, and every submit decodes its IR once."""

    K = 3
    JOBS = 48
    CLASSES = ("production",) * 3 + ("test",) * 5 + ("development",) * 8

    def test_check_build_and_decode_counts(self, tally):
        sim, daemon, device = build(mode=SharingMode.PREEMPT)
        catalog = [make_program(spacing=6.0 + i, name=f"p{i}") for i in range(self.K)]
        sessions = [Session(daemon=daemon, user=f"user-{u:02d}") for u in range(16)]
        handles = []

        def arrivals():
            for i in range(self.JOBS):
                spec = JobSpec(
                    program=catalog[i % self.K],
                    shots=20 + i % 5,
                    resource="onprem",
                    priority_class=self.CLASSES[i % 16],
                )
                handles.append(sessions[i % 16].submit(spec))
                yield Timeout(15.0)

        sim.spawn(arrivals())
        sim.run(until=20_000.0)
        assert len(handles) == self.JOBS
        states = {daemon.queue.get(h.job_id).state for h in handles}
        assert states == {TaskState.COMPLETED}
        assert daemon.scheduler.tasks_preempted >= 1
        assert set(tally.check) == {id(device.specs)}
        assert tally.check[id(device.specs)] <= self.K
        assert tally.builds <= self.K
        assert tally.decodes == self.JOBS


class TestOnePassRequestPath:
    """A REST submit hashes its decoded program once, validates its spec
    once, and reads its result with one request."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        """Counts ``program_hash`` calls per register object."""
        from repro.qpu import device as device_module
        from repro.qpu import hamiltonian
        from repro.qpu import specs as specs_module
        from repro.sdk import ir as ir_module

        counts = Counter()
        real = hamiltonian.program_hash

        def counted(register, segments):
            counts[id(register)] += 1
            return real(register, segments)

        for module in (hamiltonian, ir_module, specs_module, device_module):
            monkeypatch.setattr(module, "program_hash", counted)
        return counts

    def _preempted_pair(self, sim, daemon, submit):
        """A development job preempted once by a production job; returns
        (dev task id, prod task id) after both complete."""
        dev = submit("development", make_program(name="dev"))
        sim.run(until=5.0)
        prod = submit("production", make_program(spacing=7.0, name="prod"))
        sim.run()
        assert daemon.queue.get(dev).preempt_count == 1
        return dev, prod

    def test_decoded_program_is_hashed_once_through_a_preemption(self, hashed):
        sim, daemon, device = build(mode=SharingMode.PREEMPT)
        router = build_router(daemon)
        tokens = {}

        def submit(priority, program):
            token = tokens.setdefault(priority, open_session(router, priority, priority))
            response = post(router, token, "/jobs", JobSpec(program=program, shots=20).to_dict())
            assert response.status == 202
            return response.body["task_id"]

        dev, prod = self._preempted_pair(sim, daemon, submit)
        for task_id, priority in ((dev, "development"), (prod, "production")):
            task = daemon.queue.get(task_id)
            assert task.state is TaskState.COMPLETED
            body = router.dispatch(
                Request(
                    "GET", f"/tasks/{task_id}/result",
                    headers={"Authorization": f"Bearer {tokens[priority]}"},
                )
            ).body
            assert body["program_hash"] == task.program.content_hash()
            assert hashed[id(task.program.register)] == 1
        # the dev program ran twice: admitted at submit and on each run
        assert daemon.scheduler.tasks_preempted == 1
        assert sum(hashed.values()) == 2

    def test_session_submit_validates_its_spec_once(self, monkeypatch):
        calls = []
        validate = JobSpec.validate

        def counted(self, *args, **kwargs):
            calls.append(self)
            return validate(self, *args, **kwargs)

        monkeypatch.setattr(JobSpec, "validate", counted)
        sim, daemon, device = build()
        session = Session(daemon=daemon, user="alice")
        handle = session.submit(JobSpec(program=make_program(), resource="onprem"))
        assert len(calls) == 1
        task = daemon.queue.get(handle.job_id)
        # the daemon filled the tenant from the session's user
        assert task.metadata["tenant"] == "alice"
        sim.run()
        assert handle.result().program_hash == make_program().content_hash()

    def test_one_read_queue_wait_equals_the_status_derived_wait(self):
        sim, daemon, device = build(mode=SharingMode.PREEMPT)
        session = Session(daemon=daemon, user="alice")
        handles = {}

        def submit(priority, program):
            spec = JobSpec(program=program, shots=20, resource="onprem", priority_class=priority)
            handles[priority] = session.submit(spec)
            return handles[priority].job_id

        self._preempted_pair(sim, daemon, submit)
        handle = handles["development"]
        requests = []
        dispatch = session._client().router.dispatch

        def counted(request):
            requests.append((request.method, request.path))
            return dispatch(request)

        session._client().router.dispatch = counted
        result = handle.result()
        assert requests == [("GET", f"/tasks/{handle.job_id}/result")]
        status = handle.status()
        assert status["preempt_count"] == 1
        assert result.queue_wait_s == status["started_at"] - status["enqueued_at"]
        # queued at 0, preempted at 5, restarted when the 20 s prod job ended
        assert result.queue_wait_s == pytest.approx(25.0)
