"""``GET /healthz`` and ``GET /profiles``: daemon self-health and the
per-workload phase-profile surface."""

import numpy as np

from repro.daemon import MiddlewareDaemon, Request, build_router
from repro.daemon.queue import ShotCapPolicy
from repro.qpu import ConstantWaveform, QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import Pulse, Sequence
from repro.simkernel import Simulator
from repro.spec import JobSpec


def make_program(name="vqe", n_qubits=2, shots=20):
    seq = Sequence(Register.chain(n_qubits, spacing=6.0), name=name)
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


def build_daemon():
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    daemon = MiddlewareDaemon(
        sim, {"onprem": OnPremQPUResource("onprem", device)},
        shot_cap=ShotCapPolicy(),
    )
    return sim, daemon


def open_session(router, user="alice"):
    response = router.dispatch(Request("POST", "/sessions", body={"user": user}))
    assert response.status == 201
    return response.body["token"]


def submit(router, token, program):
    response = router.dispatch(
        Request(
            "POST", "/jobs",
            body=JobSpec(program=program).to_dict(),
            headers={"Authorization": f"Bearer {token}"},
        )
    )
    assert response.status == 202
    return response.body["task_id"]


class TestHealthz:
    def test_fresh_daemon_is_ready_within_grace(self):
        """Before the first scrape interval has even elapsed, the lack
        of a scrape is not lag — /healthz must not cry wolf at t=0."""
        _, daemon = build_daemon()
        router = build_router(daemon)
        response = router.dispatch(Request("GET", "/healthz"))
        assert response.status == 200
        body = response.body
        assert body["live"] is True
        assert body["ready"] is True
        assert body["status"] == "ok"
        assert body["scrape_lag_s"] is None
        assert body["queue_depth"] == 0

    def test_running_daemon_reports_fresh_scrapes(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        sim.run(until=100.0)
        body = router.dispatch(Request("GET", "/healthz")).body
        assert body["ready"] is True
        assert body["scrape_lag_s"] is not None
        assert body["scrape_lag_s"] <= 2 * daemon.scraper.interval
        assert body["scrape_targets"] >= 1
        assert body["firing_alerts"] == 0

    def test_queue_depth_counts_pending_tasks(self):
        _, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        submit(router, token, make_program())
        submit(router, token, make_program())
        body = router.dispatch(Request("GET", "/healthz")).body
        assert body["queue_depth"] >= 1  # one may already be dispatched

    def test_healthz_requires_no_token(self):
        _, daemon = build_daemon()
        router = build_router(daemon)
        assert router.dispatch(Request("GET", "/healthz")).status == 200

    def test_metadata_is_readable_for_every_completed_task(self):
        """Job metadata is read from the completed task, so no record can
        go missing: every completed task serves its metadata, and the
        daemon has no metadata error counter for /healthz to show."""
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        ids = [submit(router, token, make_program(shots=10 + i)) for i in range(3)]
        sim.run(until=200.0)
        for i, task_id in enumerate(ids):
            response = router.dispatch(
                Request("GET", f"/tasks/{task_id}/metadata", headers={"Authorization": f"Bearer {token}"})
            )
            assert response.status == 200
            assert (response.body["task_id"], response.body["shots"]) == (task_id, 10 + i)
        assert len(daemon.jobmeta) == 3
        assert "daemon_jobmeta_errors_total" not in daemon.metrics_text()
        assert "jobmeta_errors" not in router.dispatch(Request("GET", "/healthz")).body


class TestProfilesRoute:
    def test_mixed_trace_yields_distinct_program_classes(self):
        """The ISSUE acceptance: after a mixed workload, the store holds
        distinct phase signatures for >= 3 program classes, queryable
        over REST."""
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        submit(router, token, make_program(name="vqe", n_qubits=2))
        submit(router, token, make_program(name="sqd", n_qubits=4))
        submit(router, token, make_program(name="qaa", n_qubits=3))
        submit(router, token, make_program(name="vqe", n_qubits=2))
        sim.run()

        response = router.dispatch(Request("GET", "/profiles"))
        assert response.status == 200
        profiles = response.body["profiles"]
        signatures = {entry["signature"] for entry in profiles.values()}
        assert {"vqe/q2", "sqd/q4", "qaa/q3"} <= signatures
        vqe = profiles["alice|vqe/q2"]
        assert vqe["samples"] == 2
        assert vqe["phases"]["execute_s"] > 0.0
        assert vqe["phases"]["job_s"] >= vqe["phases"]["execute_s"]

    def test_profiles_partition_by_session_user(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        submit(router, open_session(router, "alice"), make_program())
        submit(router, open_session(router, "bob"), make_program())
        sim.run()
        profiles = router.dispatch(Request("GET", "/profiles")).body["profiles"]
        assert "alice|vqe/q2" in profiles
        assert "bob|vqe/q2" in profiles

    def test_empty_store_serves_empty_object(self):
        _, daemon = build_daemon()
        router = build_router(daemon)
        response = router.dispatch(Request("GET", "/profiles"))
        assert response.status == 200
        assert response.body["profiles"] == {}


class TestActiveSessionsGauge:
    """``daemon_active_sessions`` is read from the session table at
    exposition, so it follows closes and expiries, not just creates."""

    @staticmethod
    def gauge(router):
        text = router.dispatch(Request("GET", "/metrics")).body["text"]
        (line,) = [ln for ln in text.splitlines() if ln.startswith("daemon_active_sessions ")]
        return float(line.split()[-1])

    def test_gauge_follows_close_admin_close_and_expiry(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        ids = []
        for user in ("alice", "bob", "carol"):
            body = router.dispatch(Request("POST", "/sessions", body={"user": user})).body
            ids.append(body["session_id"])
        assert self.gauge(router) == 3.0
        daemon.sessions.close(ids[0])
        assert self.gauge(router) == 2.0
        response = router.dispatch(
            Request(
                "DELETE", f"/admin/sessions/{ids[1]}",
                headers={"Authorization": f"Bearer {daemon.admin_token}"},
            )
        )
        assert response.status == 200
        assert self.gauge(router) == 1.0
        sim.run(until=daemon.sessions.idle_timeout + 1.0)
        assert daemon.admin_ops.expire_idle_sessions()["expired"] == [ids[2]]
        assert self.gauge(router) == 0.0 == len(daemon.sessions.active())


class BrokenView:
    """A stage view whose fold always raises."""

    def fold(self, entries):
        raise RuntimeError("view bug")


class TestObservabilityFailuresInHealthz:
    def test_bus_drops_and_unobserved_process_deaths_are_reported(self, bus_drops, process_failures):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        body = router.dispatch(Request("GET", "/healthz")).body
        assert body["bus_dropped"] == 0 and body["process_failures"] == 0

        daemon.events.stages.attach(BrokenView())

        def dies():
            yield from ()
            raise RuntimeError("nobody waits for me")

        sim.spawn(dies())
        submit(router, open_session(router), make_program())
        sim.run(until=100.0)
        body = router.dispatch(Request("GET", "/healthz")).body
        # the task's queue-wait, execute and job records reach the view
        # in the one drain /healthz runs: one drop
        assert body["bus_dropped"] == 1
        assert body["process_failures"] == 1
        bus_drops(daemon.events, 1)
        process_failures(sim, 1)

    def test_a_broken_view_shows_in_the_first_healthz(self, bus_drops):
        """Mid-run, the task's closed queue wait sits in the stage log
        and no view has been read: the drain ``GET /healthz`` runs
        before it reports is the one that meets the broken view.  The
        profile store after it still folds every record."""
        sim, daemon = build_daemon()
        router = build_router(daemon)
        daemon.events.stages.attach(BrokenView())
        submit(router, open_session(router), make_program())
        sim.run(until=10.0)  # 20 shots at 1 Hz: still executing
        assert router.dispatch(Request("GET", "/healthz")).body["bus_dropped"] == 1
        sim.run(until=100.0)
        (profile,) = router.dispatch(Request("GET", "/profiles")).body["profiles"].values()
        assert profile["samples"] == 1
        # the job's execute and job records closed in one more drain
        assert router.dispatch(Request("GET", "/healthz")).body["bus_dropped"] == 2
        bus_drops(daemon.events, 2)
