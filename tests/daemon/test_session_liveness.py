"""A daemon session that owns a live task is never idle.

Every intake in front of a daemon (the Session facade, the cloud
gateway, a federated site) submits a task and later comes back for its
result.  A task that runs longer than the idle timeout must not expire
the session that owns it; idle time counts from the later of the last
request and the last transition of the session's tasks.
"""

import numpy as np
import pytest

from repro.daemon import MiddlewareDaemon
from repro.daemon.cloud import CloudGateway
from repro.daemon.queue import PriorityClass, TaskState
from repro.federation import FederatedSite, FederationBroker, SiteRegistry
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.simkernel import Simulator
from repro.spec import JobSpec

IDLE_TIMEOUT = 100.0
SHOTS = 50  # at 0.1 shot/s: a 500 s task, five idle timeouts long


def make_program():
    return (
        AnalogCircuit(Register.chain(2, spacing=6.0), name="long-task")
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=SHOTS)
    )


def make_daemon(sim, seed=0):
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=0.1, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(seed),
    )
    return MiddlewareDaemon(
        sim,
        {"onprem": OnPremQPUResource("onprem", device)},
        scrape_interval=120.0,
        session_idle_timeout=IDLE_TIMEOUT,
    )


class TestLongTaskKeepsItsSession:
    def test_session_result_after_a_task_longer_than_the_timeout(self):
        sim = Simulator()
        session = Session(daemon=make_daemon(sim))
        handle = session.submit(JobSpec(program=make_program(), shots=SHOTS))
        sim.run()
        assert sim.now == pytest.approx(10 * SHOTS)
        assert handle.result().shots == SHOTS

    def test_cloud_status_after_a_task_longer_than_the_timeout(self):
        sim = Simulator()
        gateway = CloudGateway(make_daemon(sim))
        key = gateway.provision_tenant("lab")
        task_id = gateway.submit(key, JobSpec(program=make_program(), resource="onprem", shots=SHOTS))
        sim.run()
        assert gateway.status(key, task_id)["state"] == "completed"
        assert sum(gateway.result(key, task_id).counts.values()) == SHOTS

    def test_federated_result_fetch_after_a_task_longer_than_the_timeout(self):
        sim = Simulator()
        registry = SiteRegistry(heartbeat_expiry=60.0)
        for i in range(2):
            registry.register(FederatedSite(f"site-{i}", make_daemon(sim, i)), now=0.0)
        registry.start_heartbeats(sim, interval=15.0)
        broker = FederationBroker(sim, registry)
        broker.spawn_housekeeping(interval=15.0)
        job_id = broker.submit_spec(JobSpec(program=make_program(), shots=SHOTS))
        sim.run(until=2000.0)
        status = broker.status(job_id)
        assert status["state"] == "completed", status["error"]
        assert status["attempts"] == 1


class TestSessionManagerIdleClock:
    def build(self):
        sim = Simulator()
        daemon = make_daemon(sim)
        session = daemon.create_session("alice", PriorityClass.PRODUCTION)
        task = daemon.submit_task(session.token, make_program(), "onprem")
        return sim, daemon, session, task

    def test_live_task_blocks_resolve_and_expire_idle(self):
        sim, daemon, session, task = self.build()
        sim.run(until=400.0)
        assert task.state is TaskState.RUNNING
        assert daemon.sessions.expire_idle(sim.now) == []
        assert daemon.resolve_session(session.token) is session

    def test_idle_time_counts_from_the_last_task_transition(self):
        sim, daemon, session, task = self.build()
        sim.run()
        assert task.state is TaskState.COMPLETED
        finished = task.finished_at
        assert finished == pytest.approx(500.0)
        assert session.last_active_at == finished
        # last request at t=0, so only the completion keeps it alive here
        assert daemon.sessions.expire_idle(finished + IDLE_TIMEOUT / 2) == []
        assert daemon.sessions.expire_idle(finished + 2 * IDLE_TIMEOUT) == [
            session.session_id
        ]
