"""Failover, spillover, and registry-health behaviour of the broker."""

import pytest

from repro.errors import FederationError, PlacementError, QueueError
from repro.federation import JobState, LeastQueuePolicy, RoundRobinPolicy, SiteHealth
from repro.spec import JobSpec

from fedutil import build_federation, make_program


class TestRegistryHealth:
    def test_membership(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        assert registry.names() == ["site-0", "site-1"]
        with pytest.raises(FederationError):
            registry.register(sites["site-0"], now=0.0)
        registry.deregister("site-1")
        assert len(registry) == 1

    def test_heartbeat_expiry_marks_unhealthy(self):
        sim, registry, broker, sites = build_federation(heartbeat_expiry=60.0)
        assert registry.health_of("site-0", now=0.0) is SiteHealth.ONLINE
        # no sim progress, just ask about a far future: beats went stale
        assert registry.health_of("site-0", now=500.0) is SiteHealth.UNHEALTHY
        # while the sim runs, heartbeats keep every site fresh
        sim.run(until=400.0)
        assert registry.health_of("site-0", sim.now) is SiteHealth.ONLINE

    def test_dead_site_stops_heartbeating(self):
        sim, registry, broker, sites = build_federation(heartbeat_expiry=60.0)
        sim.run(until=100.0)
        sites["site-1"].kill()
        sim.run(until=200.0)
        assert registry.health_of("site-1", sim.now) is SiteHealth.UNHEALTHY
        assert registry.health_of("site-0", sim.now) is SiteHealth.ONLINE
        healthy = {s.name for s in registry.healthy_snapshots(sim.now)}
        assert healthy == {"site-0", "site-2"}

    def test_snapshot_contents(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        snap = registry.snapshot("site-0", now=0.0)
        assert snap.catalog == {"onprem": "onprem-qpu"}
        assert snap.queue_depth == 0
        assert 0.0 < snap.fidelity_proxy <= 1.0
        assert snap.max_qubits > 0
        assert "onprem" in snap.calibration
        assert "fidelity_proxy" in snap.calibration["onprem"]


class TestFailover:
    def test_killed_site_jobs_reroute_without_duplicate_task_ids(self):
        """(c) kill a site mid-run: every job completes exactly once,
        re-placed task ids never repeat, federated ids stay stable."""
        sim, registry, broker, sites = build_federation(
            n_sites=3, policy=RoundRobinPolicy(), shot_rates=(1.0, 1.0, 1.0),
            max_queue_depth=10,
        )
        program = make_program(shots=40)  # 40 s per burst at 1 Hz
        ids = [broker.submit_spec(JobSpec(program=program, shots=40)) for _ in range(9)]
        assert len(set(ids)) == 9
        sim.call_in(10.0, sites["site-1"].kill)
        sim.run(until=3600.0)

        completed = [broker.job(i) for i in ids]
        assert all(j.state is JobState.COMPLETED for j in completed), (
            "zero jobs may be lost to the outage"
        )
        for j in completed:
            # the surviving placement is never on the dead site
            assert j.current.site != "site-1"
            # no (site, task) pair repeats across the job's attempts
            pairs = [(p.site, p.task_id) for p in j.placements]
            assert len(pairs) == len(set(pairs))
        # at least one job actually exercised the failover path
        assert any(j.attempts > 1 for j in completed)
        # the metrics saw the reroutes
        assert broker.metrics.reroutes.value(labels={"site": "site-1"}) >= 1

    def test_results_fetchable_after_failover(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, shot_rates=(1.0, 1.0), max_queue_depth=10
        )
        program = make_program(shots=30)
        ids = [broker.submit_spec(JobSpec(program=program, shots=30)) for _ in range(4)]
        sim.call_in(5.0, sites["site-0"].kill)
        sim.run(until=3600.0)
        for job_id in ids:
            result = broker.result(job_id)
            assert sum(result.counts.values()) == 30

    def test_attempts_are_bounded(self):
        sim, registry, broker, sites = build_federation(
            n_sites=1, max_attempts=2, shot_rates=(1.0,), max_queue_depth=10
        )
        program = make_program(shots=600)
        job_id = broker.submit_spec(JobSpec(program=program, shots=600))
        sites["site-0"].kill()
        broker.reconcile()  # site dead, nowhere to go
        job = broker.job(job_id)
        assert job.state is JobState.FAILED
        assert job.attempts <= 2
        with pytest.raises(PlacementError):
            broker.result(job_id)

    def test_unknown_job_rejected(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        with pytest.raises(PlacementError):
            broker.status("fed-job-999")


class TestSpillover:
    def test_saturated_federation_still_absorbs(self):
        """When every site is saturated, jobs queue rather than fail."""
        sim, registry, broker, sites = build_federation(
            n_sites=2, policy=LeastQueuePolicy(), shot_rates=(2.0, 2.0),
            max_queue_depth=1,
        )
        program = make_program(shots=20)
        ids = [broker.submit_spec(JobSpec(program=program, shots=20)) for _ in range(8)]
        sim.run(until=3600.0)
        assert all(broker.job(i).state is JobState.COMPLETED for i in ids)

    def test_submit_while_everything_down_fails_cleanly(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        for site in sites.values():
            site.kill()
        job_id = broker.submit_spec(JobSpec(program=make_program(), shots=10))
        assert broker.status(job_id)["state"] == "failed"


class TestFederatedObservability:
    def test_exposition_and_collector(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        ids = [broker.submit_spec(JobSpec(program=make_program(), shots=10)) for _ in range(3)]
        sim.run(until=120.0)
        text = broker.metrics.text()
        assert "federation_placements_total" in text
        assert 'outcome="completed"' in text
        collect = broker.metrics.collector()
        sample = collect(sim.now)
        assert sample["federation_sites_healthy"] == 2.0
        assert "federation_health_site-0" in sample

    def test_flows_into_existing_tsdb_path(self):
        """Scraper.add_target carries federation numbers into a TSDB."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        scraper = sites["site-0"].daemon.scraper
        scraper.add_target("federation", broker.metrics.collector())
        broker.submit_spec(JobSpec(program=make_program(), shots=10))
        sim.run(until=300.0)
        tsdb = sites["site-0"].daemon.tsdb
        assert "federation_sites_healthy" in tsdb.measurements()
        t, v = tsdb.latest("federation_sites_healthy")
        assert v == 2.0


class TestReviewRegressions:
    def test_mixed_capacity_site_places_on_the_resource_that_fits(self):
        """A site admitted via its biggest resource must not hand the job
        to a smaller one (emulator-first preference would pick it)."""
        from repro.daemon import MiddlewareDaemon
        from repro.federation import FederatedSite, FederationBroker, SiteRegistry
        from repro.qpu import QPUDevice
        from repro.qrmi import CloudEmulatorResource, OnPremQPUResource
        from repro.simkernel import RngRegistry, Simulator

        sim = Simulator()
        rng = RngRegistry(3)
        daemon = MiddlewareDaemon(
            sim,
            {
                "small-emu": CloudEmulatorResource("small-emu", max_qubits=2),
                "onprem": OnPremQPUResource("onprem", QPUDevice(rng=rng.get("d"))),
            },
            scrape_interval=120.0,
        )
        registry = SiteRegistry()
        registry.register(FederatedSite("hybrid-site", daemon))
        registry.start_heartbeats(sim, interval=15.0)
        broker = FederationBroker(sim, registry)
        broker.spawn_housekeeping(interval=15.0)
        job_id = broker.submit_spec(JobSpec(program=make_program(n_atoms=4, shots=10), shots=10))
        sim.run(until=600.0)
        job = broker.job(job_id)
        assert job.state is JobState.COMPLETED
        assert job.attempts == 1, "must not burn attempts on a too-small resource"
        # the 4-qubit program ran on the QPU, not the 2-qubit emulator
        assert job.current.task_id in {
            t.task_id
            for t in daemon.queue.all_tasks()
            if t.resource == "onprem"
        }

    def test_site_registered_after_heartbeats_started_still_beats(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        from repro.daemon import MiddlewareDaemon
        from repro.federation import FederatedSite
        from repro.qpu import QPUDevice
        from repro.qrmi import OnPremQPUResource
        from repro.simkernel import RngRegistry

        rng = RngRegistry(5)
        daemon = MiddlewareDaemon(
            sim,
            {"onprem": OnPremQPUResource("onprem", QPUDevice(rng=rng.get("late")))},
            scrape_interval=120.0,
        )
        sim.run(until=100.0)
        registry.register(FederatedSite("late-joiner", daemon), now=sim.now)
        sim.run(until=400.0)  # well past heartbeat_expiry of the join time
        assert registry.health_of("late-joiner", sim.now) is SiteHealth.ONLINE

    def test_reconcile_survives_poisoned_status_query(self):
        """A site that answers but refuses our session must trigger
        failover, not crash the sweep.  Task state arrives pushed, so
        the one remaining query is the result fetch, made at the push."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=10), shots=10))
        bad_site = broker.job(job_id).current.site

        def explode(owner, task_id):
            raise RuntimeError("session no longer owns this task")

        sites[bad_site].task_result = explode
        sim.run(until=5.0)  # the task finishes and pushes "completed"
        first = broker.job(job_id).placements[0]
        assert first.site == bad_site and first.abandoned
        assert "query failed" in first.abandon_reason
        assert broker.job(job_id).current.site != bad_site
        broker.reconcile()  # must not raise
        sim.run(until=300.0)
        assert broker.job(job_id).state is JobState.COMPLETED


class TestSweepFailuresAreVisible:
    def test_dead_housekeeping_sweep_is_reported(self, monkeypatch, process_failures):
        """A sweep that raises ends the housekeeping process; stats()
        must say so instead of reconcile silently never running again."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        # the housekeeping sweep dies of the raise, and the wait below
        # raises at spawn, before run_until_process drives it
        process_failures(sim, 2)
        assert broker.stats()["housekeeping_error"] is None
        original = broker.reconcile
        calls = []

        def flaky():
            calls.append(sim.now)
            if len(calls) == 1:
                raise RuntimeError("sweep blew up")
            original()

        monkeypatch.setattr(broker, "reconcile", flaky)
        # 2 sites x 2 slots: four units dispatch at intake, two wait in
        # the pool for a sweep
        job_id = broker.submit_spec(
            JobSpec(program=make_program(shots=10), shots=10, iterations=6)
        )
        sim.run(until=600.0)  # does not raise
        assert calls == [15.0]  # the first raise ended the sweep
        # the dispatched units landed at their push; no sweep dispatches the rest
        job = broker.job(job_id)
        assert job.state is JobState.PLACED
        assert job.completed_units == 4
        with pytest.raises(FederationError, match="spawn_housekeeping"):
            sim.run_until_process(sim.spawn(broker.wait(job_id)))
        assert broker.stats()["housekeeping_error"] == repr(
            RuntimeError("sweep blew up")
        )
        assert broker.stats()["process_failures"] == 2

    def test_cancel_swallows_only_repro_errors(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        with pytest.raises(QueueError):
            sites["site-0"].cancel("no-such-task")
        # a forgotten task or a departed site: best-effort, swallowed
        broker._cancel_task("site-0", "no-such-task")
        broker._cancel_task("no-such-site", "no-such-task")

        def broken(task_id):
            raise TypeError("cancel() got a bad argument")

        sites["site-0"].cancel = broken
        with pytest.raises(TypeError):
            broker._cancel_task("site-0", "mw-task-1")
