"""Tests for the per-workload phase-profile store."""

import pytest

from repro.errors import ObservabilityError
from repro.federation.events import JobEvent, LifecycleBus
from repro.observability import PhaseProfile, ProfileStore, program_signature


def ev(time, kind, job_id="", site="", task_id="", **payload):
    return JobEvent(
        time=time, kind=kind, job_id=job_id, site=site, task_id=task_id,
        payload=payload,
    )


def drive_job(
    bus,
    job_id,
    tenant="acme",
    program="vqe",
    qubits=4,
    submit=0.0,
    placed=1.0,
    queued=1.0,
    running=5.0,
    done=25.0,
    resizes=0,
    site="site-0",
):
    task_id = f"{job_id}-t1"
    bus.publish(ev(submit, "job_submitted", job_id,
                   tenant=tenant, program=program, qubits=qubits))
    bus.publish(ev(placed, "job_placed", job_id, site=site, task_id=task_id))
    bus.publish(ev(queued, "queued", task_id, site=site, task_id=task_id))
    bus.publish(ev(running, "running", task_id, site=site, task_id=task_id))
    for i in range(resizes):
        bus.publish(ev(running + i, "resize", job_id, site=site, action="grow"))
    bus.publish(ev(done, "completed", task_id, site=site, task_id=task_id))
    bus.publish(ev(done, "job_completed", job_id))


class TestPhaseProfile:
    def test_first_observation_seeds_then_ewma(self):
        profile = PhaseProfile("acme", "vqe/q4")
        profile.observe("queue_wait_s", 10.0, alpha=0.5)
        assert profile.phases["queue_wait_s"] == 10.0
        profile.observe("queue_wait_s", 20.0, alpha=0.5)
        assert profile.phases["queue_wait_s"] == pytest.approx(15.0)
        assert profile.counts["queue_wait_s"] == 2

    def test_unknown_phase_rejected(self):
        with pytest.raises(ObservabilityError):
            PhaseProfile("acme", "vqe/q4").observe("nonsense", 1.0, alpha=0.3)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ObservabilityError):
            ProfileStore(alpha=0.0)
        with pytest.raises(ObservabilityError):
            ProfileStore(alpha=1.5)


class TestProgramSignature:
    def test_object_with_name_and_register(self):
        class P:
            name = "vqe"
            register = [1, 2, 3, 4]

        assert program_signature(P()) == "vqe/q4"

    def test_ir_dict(self):
        assert program_signature({"name": "sqd", "register": [0] * 16}) == "sqd/q16"

    def test_nameless_program(self):
        assert program_signature({"register": [0, 1]}) == "program/q2"


class TestBusDerivation:
    def test_full_lifecycle_fills_every_phase(self):
        bus = LifecycleBus()
        store = ProfileStore(alpha=1.0)
        store.attach_bus(bus)
        drive_job(bus, "j1", submit=0.0, placed=2.0, queued=2.0,
                  running=7.0, done=30.0, resizes=3)
        profile = store.get("acme", "vqe/q4")
        assert profile.phases["classical_pre_s"] == pytest.approx(2.0)
        assert profile.phases["queue_wait_s"] == pytest.approx(5.0)
        assert profile.phases["execute_s"] == pytest.approx(23.0)
        assert profile.phases["job_s"] == pytest.approx(30.0)
        assert profile.phases["resize_churn"] == pytest.approx(3.0)
        assert profile.samples == 1

    def test_three_program_classes_get_distinct_signatures(self):
        """The ISSUE acceptance shape: a mixed VQE/SQD/QAA trace lands
        in three separate profiles even under one tenant."""
        bus = LifecycleBus()
        store = ProfileStore()
        store.attach_bus(bus)
        drive_job(bus, "j1", program="vqe", qubits=4, done=20.0)
        drive_job(bus, "j2", program="sqd", qubits=16, done=45.0)
        drive_job(bus, "j3", program="qaa", qubits=8, done=70.0)
        drive_job(bus, "j4", program="vqe", qubits=4, done=90.0)
        assert store.signatures() == ["qaa/q8", "sqd/q16", "vqe/q4"]
        assert len(store.snapshot()) == 3
        assert store.summary()["jobs_profiled"] == 4
        assert store.get("acme", "vqe/q4").samples == 2

    def test_tenants_partition_profiles(self):
        bus = LifecycleBus()
        store = ProfileStore()
        store.attach_bus(bus)
        drive_job(bus, "j1", tenant="acme")
        drive_job(bus, "j2", tenant="globex")
        assert store.keys() == [("acme", "vqe/q4"), ("globex", "vqe/q4")]

    def test_unenriched_submit_events_are_ignored(self):
        """Pre-PR publishers carried no tenant payload; the store must
        not invent profiles for them."""
        bus = LifecycleBus()
        store = ProfileStore()
        store.attach_bus(bus)
        bus.publish(ev(0.0, "job_submitted", "j1"))
        bus.publish(ev(5.0, "job_completed", "j1"))
        assert store.snapshot() == {}
        assert store.summary()["live_jobs"] == 0

    def test_failed_job_still_profiles_end_to_end(self):
        bus = LifecycleBus()
        store = ProfileStore()
        store.attach_bus(bus)
        bus.publish(ev(0.0, "job_submitted", "j1",
                       tenant="acme", program="vqe", qubits=4))
        bus.publish(ev(9.0, "job_failed", "j1"))
        profile = store.get("acme", "vqe/q4")
        assert profile.phases["job_s"] == pytest.approx(9.0)
        assert "execute_s" not in profile.phases
        assert store.summary()["live_jobs"] == 0

    def test_queued_before_placed_still_measures_queue_wait(self):
        """Real bus ordering: the site publishes the "queued" transition
        from inside submit(), *before* the broker's job_placed binding
        exists.  The queue-wait phase must survive that ordering."""
        bus = LifecycleBus()
        store = ProfileStore(alpha=1.0)
        store.attach_bus(bus)
        bus.publish(ev(0.0, "job_submitted", "j1",
                       tenant="acme", program="vqe", qubits=4))
        bus.publish(ev(1.0, "queued", "j1-t1", site="site-0", task_id="j1-t1"))
        bus.publish(ev(1.0, "job_placed", "j1", site="site-0", task_id="j1-t1"))
        bus.publish(ev(6.0, "running", "j1-t1", site="site-0", task_id="j1-t1"))
        profile = store.get("acme", "vqe/q4")
        assert profile.phases["queue_wait_s"] == pytest.approx(5.0)

    def test_unknown_task_events_are_ignored(self):
        bus = LifecycleBus()
        store = ProfileStore()
        store.attach_bus(bus)
        bus.publish(ev(1.0, "running", "t9", site="site-0", task_id="t9"))
        assert store.snapshot() == {}


class TestQueueListener:
    """Daemon side: the queue's transitions, published by the daemon's
    one publisher, reach a store on the bus's stage tracker."""

    class FakeTask:
        def __init__(self, task_id, user="alice", tenant=None, name="vqe"):
            from repro.daemon.queue import PriorityClass

            self.task_id = task_id
            self.user = user
            self.metadata = {} if tenant is None else {"tenant": tenant}
            self.program = {"name": name, "register": [0] * 4}
            self.priority = PriorityClass.DEVELOPMENT
            self.started_at = None
            self.finished_at = None

    @staticmethod
    def replay(store, task, steps):
        from repro.daemon.queue import TaskState
        from repro.federation.events import publish_task_transition

        bus = LifecycleBus()
        bus.stages.add_sink(store.on_closed, site="local")
        for now, state in steps:
            publish_task_transition(bus, now, "local", task, TaskState(state))

    def test_transitions_feed_phases(self):
        store = ProfileStore(alpha=1.0)
        task = self.FakeTask("t1", tenant="acme")
        self.replay(store, task, [(0.0, "queued"), (4.0, "running"), (10.0, "completed")])
        profile = store.get("acme", "vqe/q4")
        assert profile.phases["queue_wait_s"] == pytest.approx(4.0)
        assert profile.phases["execute_s"] == pytest.approx(6.0)
        assert profile.phases["job_s"] == pytest.approx(10.0)
        assert profile.samples == 1

    def test_tenant_falls_back_to_user(self):
        store = ProfileStore()
        task = self.FakeTask("t1", user="bob")
        self.replay(store, task, [(0.0, "queued"), (1.0, "running"), (2.0, "completed")])
        assert store.keys() == [("bob", "vqe/q4")]

    def test_get_unknown_profile_raises(self):
        with pytest.raises(ObservabilityError):
            ProfileStore().get("nobody", "vqe/q4")
