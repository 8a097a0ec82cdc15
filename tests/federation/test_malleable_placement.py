"""Cross-site malleable placements: ledger, resize loop, policies."""

from dataclasses import replace

import pytest

from fedutil import build_federation, make_program
from repro.errors import PlacementError, SchedulerError
from repro.federation import (
    CalibrationAwarePolicy,
    FederatedClient,
    JobState,
    LeastQueuePolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    StickyPolicy,
)
from repro.scheduling import ShareLedger
from repro.session import Session
from repro.spec import JobSpec


def throttle(site, rate_hz):
    device = site.daemon.resources["onprem"].device
    device.clock = replace(device.clock, shot_rate_hz=rate_hz)


class TestShareLedger:
    def test_allocation_follows_weights(self):
        ledger = ShareLedger(10)
        ledger.add_site("a", 3.0)
        ledger.add_site("b", 1.0)
        ledger.add_site("c", 1.0)
        alloc = ledger.allocation()
        assert sum(alloc.values()) == 10
        assert alloc["a"] == 6 and alloc["b"] == 2 and alloc["c"] == 2

    def test_checkpoint_is_durable_across_retire(self):
        ledger = ShareLedger(4)
        ledger.add_site("a")
        ledger.add_site("b")
        unit = ledger.claim("a")
        ledger.checkpoint(unit)
        ledger.retire("a")
        # the completed unit stays completed; nothing returns to pending
        assert ledger.completed_units == 1
        assert ledger.pending_units == 3
        assert ledger.completions_by_site() == {"a": 1}

    def test_abandon_returns_unit_intact_and_counts_attempt(self):
        ledger = ShareLedger(2, max_attempts=2)
        ledger.add_site("a")
        unit = ledger.claim("a")
        assert ledger.abandon(unit) == 1
        assert ledger.pending_units == 2
        again = ledger.claim("a")
        assert again == unit  # lowest pending unit comes back first
        assert ledger.abandon(again) == 2
        assert ledger.exhausted(unit)

    def test_retire_reclaims_in_flight(self):
        ledger = ShareLedger(6)
        ledger.add_site("a", 1.0)
        ledger.add_site("b", 1.0)
        u1, u2 = ledger.claim("a"), ledger.claim("a")
        assert {u1, u2} == set(ledger.in_flight_at("a"))
        reclaimed = ledger.retire("a")
        assert set(reclaimed) == {u1, u2}
        assert ledger.active_sites() == ["b"]
        # all six units now belong to b
        assert ledger.allocation() == {"b": 6}

    def test_zero_weight_share_claims_nothing(self):
        ledger = ShareLedger(4)
        ledger.add_site("a", 1.0)
        ledger.add_site("b", 0.0)
        assert ledger.claim("b") is None
        assert ledger.allocation()["a"] == 4

    def test_frozen_ledger_pins_units_and_rejects_rebalance(self):
        ledger = ShareLedger(6)
        ledger.add_site("a")
        ledger.add_site("b")
        ledger.freeze()
        with pytest.raises(SchedulerError):
            ledger.set_weight("a", 5.0)
        # round-robin pre-assignment: three each
        assert ledger.allocation() == {"a": 3, "b": 3}
        # a site only ever receives its own pinned units
        mine = [ledger.claim("a") for _ in range(3)]
        assert ledger.claim("a") is None
        assert len([u for u in mine if u is not None]) == 3

    def test_frozen_retire_reassigns_orphans(self):
        ledger = ShareLedger(6)
        ledger.add_site("a")
        ledger.add_site("b")
        ledger.freeze()
        ledger.retire("a")
        assert ledger.allocation() == {"b": 6}

    def test_revive_requires_retired(self):
        ledger = ShareLedger(2)
        ledger.add_site("a")
        with pytest.raises(SchedulerError):
            ledger.revive("a")
        ledger.retire("a")
        ledger.revive("a", 2.0)
        assert ledger.weight("a") == 2.0
        assert ledger.active_sites() == ["a"]


class TestResizeLoop:
    def test_completes_across_sites_with_merged_result(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=40), iterations=9, shots=40))
        sim.run(until=3600.0)
        status = client.status(job_id)
        assert status["state"] == "completed"
        assert status["completed_units"] == 9
        assert len(status["completions_by_site"]) >= 2, "work must spread"
        result = client.result(job_id)
        assert result.shots == 9 * 40
        assert sum(result.counts.values()) == result.shots
        assert result.metadata["federation_units"] == 9

    def test_run_process_runs_a_multi_unit_spec(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20
        )
        session = Session(federation=broker, user="mall")
        out = {}

        def job():
            out["result"] = yield from session.submit(
                JobSpec(program=make_program(shots=40), iterations=6)
            ).wait()

        sim.spawn(job(), name="multi-unit-run-process")
        sim.run(until=3600.0)
        assert out["result"].shots == 6 * 40
        assert out["result"].metadata["federation_units"] == 6

    def test_session_reads_multi_unit_and_fixed_handles_alike(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20
        )
        session = Session(federation=broker, user="mall")
        reads = []
        broker_status = broker.status
        broker.status = lambda job_id: reads.append(job_id) or broker_status(job_id)
        fixed = session.submit(JobSpec(program=make_program(shots=40)))
        multi = session.submit(JobSpec(program=make_program(shots=40), iterations=9))
        sim.run(until=3600.0)
        for handle, shots in ((fixed, 40), (multi, 9 * 40)):
            assert handle.status()["state"] == "completed"
            assert handle.result().shots == shots
        # both kinds are read through the one broker status call
        assert fixed.job_id in reads and multi.job_id in reads

    def test_job_id_stable_and_unhealthy_site_retired(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20, shot_rates=[1.0, 1.0, 1.0]
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=60), iterations=18, shots=60))
        sim.call_in(100.0, sites["site-2"].kill)
        sim.run(until=4 * 3600.0)
        job = broker.job(job_id)
        assert job.job_id == job_id  # never re-issued
        assert job.state is JobState.COMPLETED
        assert job.completed_units == 18
        retire = job.resize.events_of("retire")
        assert [e.site for e in retire] == ["site-2"]
        # nothing new landed on the dead site after the retire event
        late = [
            d
            for d in job.placements
            if d.site == "site-2" and d.placed_at > retire[0].time
        ]
        assert late == []

    def test_latency_degradation_shrinks_share(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20, shot_rates=[1.0, 1.0, 1.0]
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=60), iterations=24, shots=60))
        sim.call_in(120.0, lambda: throttle(sites["site-2"], 0.05))
        sim.run(until=12 * 3600.0)
        job = broker.job(job_id)
        assert job.state is JobState.COMPLETED
        shrinks = [
            e for e in job.resize.events_of("shrink") if e.site == "site-2"
        ]
        assert shrinks, "the throttled site must lose weight"
        assert all(e.weight_after < e.weight_before for e in shrinks)
        by_site = job.resize.ledger.completions_by_site()
        assert by_site["site-2"] < by_site["site-0"]
        assert by_site["site-2"] < by_site["site-1"]

    def test_queue_watermark_zeroes_share(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=4
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=40), iterations=8, shots=40))
        # bury site-1 under brokered fixed-size load via pinning
        for _ in range(4):
            broker.submit_spec(JobSpec(program=make_program(shots=400), shots=400, pin="site-1/onprem"))
        broker.reconcile()
        job = broker.job(job_id)
        weights = job.resize.weights()
        assert weights["site-1"] == 0.0
        events = job.resize.events_of("shrink")
        assert any(
            e.site == "site-1" and "watermark" in e.reason for e in events
        )
        sim.run(until=4 * 3600.0)
        assert broker.status(job_id)["state"] == "completed"

    def test_share_grows_back_when_queue_drains(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=4
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=40), iterations=30, shots=40))
        for _ in range(4):
            broker.submit_spec(JobSpec(program=make_program(shots=200), shots=200, pin="site-1/onprem"))
        broker.reconcile()
        job = broker.job(job_id)
        assert job.resize.weights()["site-1"] == 0.0
        sim.run(until=8 * 3600.0)
        grows = [
            e
            for e in job.resize.events_of("grow")
            if e.site == "site-1" and e.time > 0.0
        ]
        assert grows, "the drained site must regain share"
        assert job.state is JobState.COMPLETED

    def test_rigid_mode_keeps_static_split_but_still_fails_over(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20, shot_rates=[1.0, 1.0, 1.0]
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(
            JobSpec(program=make_program(shots=60), iterations=12, shots=60, malleable=False)
        )
        sim.call_in(120.0, lambda: throttle(sites["site-2"], 0.1))
        sim.run(until=12 * 3600.0)
        job = broker.job(job_id)
        assert job.state is JobState.COMPLETED
        # static thirds: the slow site still ran its full pre-assigned slice
        assert job.resize.ledger.completions_by_site()["site-2"] == 4
        assert job.resize.events_of("shrink") == []

        # ... but a *dead* site's slice is reassigned even in rigid mode
        sim2, registry2, broker2, sites2 = build_federation(
            n_sites=3, max_queue_depth=20
        )
        client2 = FederatedClient(broker2, user="mall")
        job2_id = client2.submit_spec(
            JobSpec(program=make_program(shots=60), iterations=12, shots=60, malleable=False)
        )
        sim2.call_in(60.0, sites2["site-1"].kill)
        sim2.run(until=12 * 3600.0)
        job2 = broker2.job(job2_id)
        assert job2.state is JobState.COMPLETED
        assert job2.completed_units == 12

    def test_rigid_job_reseeds_after_total_shareholder_wipeout(self):
        """All original shareholders die, then a fresh site joins: the
        frozen ledger adopts it and re-pins the orphaned units instead
        of livelocking in PLACED forever."""
        import numpy as np

        from repro.daemon import MiddlewareDaemon
        from repro.federation import FederatedSite
        from repro.qpu import QPUDevice, ShotClock
        from repro.qrmi import OnPremQPUResource
        from repro.simkernel import RngRegistry

        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=20, shot_rates=[1.0, 1.0]
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(
            JobSpec(program=make_program(shots=60), iterations=12, shots=60, malleable=False)
        )
        sim.call_in(5.0, sites["site-0"].kill)
        sim.call_in(5.0, sites["site-1"].kill)

        def late_join():
            rng = RngRegistry(99)
            device = QPUDevice(
                clock=ShotClock(
                    shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0
                ),
                rng=rng.get("late"),
            )
            daemon = MiddlewareDaemon(
                sim,
                {"onprem": OnPremQPUResource("onprem", device)},
                scrape_interval=120.0,
            )
            registry.register(
                FederatedSite("site-9", daemon, max_queue_depth=20), now=sim.now
            )

        sim.call_in(8.0, late_join)
        sim.run(until=8 * 3600.0)
        job = broker.job(job_id)
        assert job.state is JobState.COMPLETED
        by_site = job.resize.ledger.completions_by_site()
        assert by_site.get("site-9", 0) >= 10  # the wipeout's orphans
        reseeds = [
            e for e in job.resize.events if e.reason == "rigid re-seed"
        ]
        assert [e.site for e in reseeds] == ["site-9"]

    def test_sites_restriction_and_resource_pins(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=6, shots=40, sites=("site-0/onprem", "site-1"))
        )
        sim.run(until=3600.0)
        status = client.status(job_id)
        assert status["state"] == "completed"
        assert set(status["completions_by_site"]) <= {"site-0", "site-1"}

    def test_exhausted_unit_mid_sweep_fails_cleanly(self):
        """Several in-flight units turning terminal in one reconcile
        sweep must fail the job once, not crash the housekeeping
        process on an already-dropped dispatch."""
        sim, registry, broker, sites = build_federation(
            n_sites=1, max_queue_depth=20, shot_rates=[1.0], max_attempts=1
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=60), iterations=4, shots=60))
        sim.call_in(30.0, sites["site-0"].kill)
        sim.run(until=600.0)  # housekeeping reconciles past the kill
        job = broker.job(job_id)
        assert job.state is JobState.FAILED
        assert "exhausted" in job.error
        assert job.live == {}

    def test_stranded_job_fails_instead_of_polling_forever(self):
        """Candidate set empty + nothing in flight -> loud failure,
        mirroring the fixed-size broker (not an eternal 'placed')."""
        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=20, shot_rates=[1.0, 1.0]
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(
            JobSpec(program=make_program(shots=60), iterations=8, shots=60, sites=("site-0",))
        )
        sim.call_in(5.0, sites["site-0"].kill)
        sim.run(until=600.0)
        status = client.status(job_id)
        assert status["state"] == "failed"
        assert "no healthy site" in status["error"] or "exhausted" in status["error"]

    def test_no_candidates_at_submit_fails_job_not_intake(self):
        """Mirrors the fixed-size contract: a stable id comes back and
        the job is FAILED with a diagnosis — no phantom half-job, no
        raise after registration."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        for site in sites.values():
            site.kill()
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=40), iterations=4, shots=40))
        status = client.status(job_id)
        assert status["state"] == "failed"
        assert "no healthy site" in status["error"]
        assert broker.stats()["by_state"]["failed"] == 1

    def test_duplicate_site_legs_rejected(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        client = FederatedClient(broker, user="mall")
        with pytest.raises(PlacementError, match="duplicate site"):
            client.submit_spec(
                JobSpec(
                    program=make_program(shots=40),
                    iterations=4,
                    shots=40,
                    sites=("site-0/onprem", "site-0"),
                ),
            )

    def test_result_before_completion_raises(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=20
        )
        client = FederatedClient(broker, user="mall")
        job_id = client.submit_spec(JobSpec(program=make_program(shots=40), iterations=4, shots=40))
        with pytest.raises(PlacementError):
            client.result(job_id)

    def test_metrics_record_resize_events_and_units(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20
        )
        client = FederatedClient(broker, user="mall")
        client.submit_spec(JobSpec(program=make_program(shots=40), iterations=9, shots=40))
        sim.run(until=3600.0)
        text = broker.metrics.text()
        assert "federation_malleable_units_total" in text
        assert 'federation_share_events_total{kind="grow"' in text
        assert "federation_share_weight" in text


class TestRuntimeMultiSitePlacement:
    def test_run_process_with_tuple_qpu_runs_a_multi_unit_job(self):
        from repro.runtime import RuntimeEnvironment

        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20
        )
        env = RuntimeEnvironment(resources={}, session=Session(federation=broker, user="fed-user"))
        placement = env.resolve(("site-0/onprem", "site-1/onprem"))
        assert placement == ("site-0/onprem", "site-1/onprem")

        out = {}

        def job():
            result = yield from env.run_process(
                make_program(shots=30),
                qpu=("site-0/onprem", "site-1/onprem"),
                iterations=6,
            )
            out["result"] = result

        sim.spawn(job(), name="multi-site-job")
        sim.run(until=3600.0)
        result = out["result"]
        assert result.shots == 6 * 30
        assert set(result.metadata["federation_sites"]) <= {"site-0", "site-1"}
        assert result.metadata["federation_units"] == 6

    def test_run_rejects_tuple_qpu_synchronously(self):
        from repro.errors import TaskError
        from repro.runtime import RuntimeEnvironment

        sim, registry, broker, sites = build_federation(n_sites=2)
        env = RuntimeEnvironment(resources={}, session=Session(federation=broker, user="fed-user"))
        with pytest.raises(TaskError):
            env.run(make_program(), qpu=("site-0/onprem", "site-1/onprem"))

    def test_multi_site_placement_rejects_local_leg(self):
        """A leg naming a local resource resolves but cannot hold a
        federation share — reject instead of silently running all
        units on the other legs."""
        from repro.errors import TaskError
        from repro.qrmi import LocalEmulatorResource
        from repro.runtime import RuntimeEnvironment

        sim, registry, broker, sites = build_federation(n_sites=2)
        env = RuntimeEnvironment(
            resources={"emu": LocalEmulatorResource("emu", emulator="emu-sv")},
            session=Session(federation=broker, user="fed-user"),
        )
        gen = env.run_process(
            make_program(shots=30), qpu=("site-0/onprem", "emu"), iterations=4
        )
        with pytest.raises(TaskError, match="not a federated"):
            next(gen)


class TestRankResize:
    def _snapshots(self, broker, sim):
        return broker.registry.healthy_snapshots(sim.now)

    def test_every_policy_declares_a_ranking(self):
        class Incomplete(RoutingPolicy):
            name = "incomplete"

        sim, registry, broker, sites = build_federation(n_sites=2)
        snaps = self._snapshots(broker, sim)
        job = type("J", (), {"n_qubits": 2, "affinity_key": None})()
        with pytest.raises(NotImplementedError):
            Incomplete().rank_resize(job, snaps, 0.0)
        for policy in (
            RoundRobinPolicy(),
            LeastQueuePolicy(),
            CalibrationAwarePolicy(),
            StickyPolicy(),
        ):
            ranked = policy.rank_resize(job, snaps, 0.0)
            assert sorted(s.name for s in ranked) == sorted(
                s.name for s in snaps
            )

    def test_least_queue_ranks_shallowest_first(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=20
        )
        broker.submit_spec(JobSpec(program=make_program(shots=200), shots=200, pin="site-0/onprem"))
        snaps = self._snapshots(broker, sim)
        job = type("J", (), {"n_qubits": 2, "affinity_key": None})()
        ranked = LeastQueuePolicy().rank_resize(job, snaps, sim.now)
        assert ranked[-1].name == "site-0"

    def test_sticky_ranks_bound_site_first(self):
        sim, registry, broker, sites = build_federation(n_sites=3)
        policy = StickyPolicy()
        snaps = self._snapshots(broker, sim)
        job = type("J", (), {"n_qubits": 2, "affinity_key": "vqe-7"})()
        policy._bindings["vqe-7"] = "site-2"
        ranked = policy.rank_resize(job, snaps, sim.now)
        assert ranked[0].name == "site-2"

    def test_round_robin_rotation_is_cursor_stable(self):
        sim, registry, broker, sites = build_federation(n_sites=3)
        policy = RoundRobinPolicy()
        snaps = self._snapshots(broker, sim)
        job = type("J", (), {"n_qubits": 2, "affinity_key": None})()
        first = [s.name for s in policy.rank_resize(job, snaps, 0.0)]
        second = [s.name for s in policy.rank_resize(job, snaps, 0.0)]
        assert first == second  # ranking alone never advances the cursor
        policy.choose(job, snaps, 0.0)
        rotated = [s.name for s in policy.rank_resize(job, snaps, 0.0)]
        assert rotated == first[1:] + first[:1]
