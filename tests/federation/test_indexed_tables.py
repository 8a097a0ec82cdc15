"""The indexed job tables must be indistinguishable from a full scan.

The broker and the malleable manager keep per-state job tables plus
maintained counters (reroutes, resize events) so ``reconcile``,
``jobs(state=...)``, and ``stats()`` cost O(live) / O(1) instead of
O(every job ever submitted).  These tests pin the equivalence:

* a hypothesis-driven random walk over submit / site-kill / time
  advance / hold-release / evict sequences, asserting after every step
  that the tables and counters match a brute-force scan over all jobs,
* the same walk checking that the task index holds exactly the live
  dispatches of both tables, and that every open budget reservation
  is held by a live dispatch (no orphaned encumbrance),
* a spy on ``_refresh`` proving the reconcile sweep never touches
  COMPLETED/FAILED jobs again, and reads of a multi-unit id changing
  nothing,
* the registry's cached name list and snapshot cache (satellite fixes),
* the snapshot's static part (catalog, capacity, fidelity, calibration)
  rebuilt only on a signature change, under a (depth, health) overlay.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import BudgetAction, FederationAccounting
from repro.errors import PlacementError
from repro.federation import JobState
from repro.federation.registry import SiteHealth
from repro.qpu import CalibrationState
from repro.spec import JobSpec

from fedutil import build_federation, make_program

PROGRAM = make_program(n_atoms=2, shots=5)


def assert_tables_match_scan(broker, evicted_fixed=(), evicted_malleable=()):
    """Every indexed view == the brute-force recomputation.  The
    reroute and resize counters are cumulative, so their scans also
    count the records ``evict_terminal`` already dropped."""
    jobs = broker.jobs()
    for state in JobState:
        assert broker.jobs(state=state) == [
            j for j in jobs if j.state is state
        ]
    manager = broker.malleable
    mjobs = manager.table.all()
    for state in JobState:
        assert manager.table.in_state(state) == [
            j for j in mjobs if j.state is state
        ]
    expected_by_state = {s.value: 0 for s in JobState}
    for job in jobs + mjobs:
        expected_by_state[job.state.value] += 1
    stats = broker.stats()
    assert stats["by_state"] == expected_by_state
    assert stats["jobs"] == len(jobs) + len(mjobs)
    assert stats["malleable_jobs"] == len(mjobs)
    assert stats["reroutes"] == sum(
        max(0, j.attempts - 1) for j in jobs + list(evicted_fixed)
    )
    assert stats["resize_events"] == sum(
        len(j.resize.events) for j in mjobs + list(evicted_malleable)
    )


def assert_dispatches_match_scan(broker, accounting):
    """The task index and the open budget reservations are exactly the
    live dispatches found by scanning both tables."""
    live = [
        (job, unit, dispatch)
        for job in broker.jobs() + broker.malleable.table.all()
        for unit, dispatch in job.live.items()
    ]
    assert broker._tasks == {
        (d.site, d.task_id): (job.job_id, unit) for job, unit, d in live
    }
    assert all(job.state is JobState.PLACED for job, _, _ in live)
    assert set(accounting.budgets._reservations) == {
        f"{job.job_id}/u{unit}" for job, unit, _ in live
    }


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 3)),
        st.tuples(st.just("submit_held"), st.integers(0, 3)),
        st.tuples(st.just("submit_pinned_bad"), st.integers(0, 3)),
        st.tuples(
            st.just("submit_multi"),
            st.integers(0, 3),
            st.integers(1, 4),
            st.booleans(),
        ),
        st.tuples(st.just("kill"), st.integers(0, 2)),
        st.tuples(st.just("grant"), st.just(0)),
        st.tuples(st.just("advance"), st.sampled_from([5.0, 20.0, 61.0])),
        st.tuples(st.just("reconcile")),
        st.tuples(st.just("evict"), st.sampled_from([0.0, 30.0])),
    ),
    min_size=3,
    max_size=14,
)


class TestIndexedTablesEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(ops=OPS)
    def test_tables_and_counters_match_brute_force(self, ops):
        accounting = FederationAccounting()
        # tenant "held" starts exhausted with HOLD semantics so the
        # walk exercises the HELD table and the release path; "grant"
        # ops top it up mid-sequence
        accounting.set_budget("held", 0.0, action=BudgetAction.HOLD)
        sim, registry, broker, sites = build_federation(
            n_sites=3, max_queue_depth=6, seed=3
        )
        broker.accounting = accounting
        owners = ("alice", "bob", "carol", "held")
        site_names = sorted(sites)
        gone_fixed, gone_malleable = [], []
        for op in ops:
            kind = op[0]
            if kind == "submit":
                broker.submit_spec(JobSpec(program=PROGRAM, shots=5, tenant=owners[op[1]]))
            elif kind == "submit_held":
                broker.submit_spec(JobSpec(program=PROGRAM, shots=5, tenant="held"))
            elif kind == "submit_pinned_bad":
                # pinned at a resource no site exports: fails at intake,
                # populating the FAILED archive
                broker.submit_spec(
                    JobSpec(program=PROGRAM, shots=5, tenant=owners[op[1]], pin="site-0/no-such-resource")
                )
            elif kind == "submit_multi":
                broker.submit_spec(
                    JobSpec(program=PROGRAM, iterations=op[2], shots=5, tenant=owners[op[1]], malleable=op[3])
                )
            elif kind == "kill":
                sites[site_names[op[1]]].kill()
            elif kind == "grant":
                accounting.budgets.grant("held", 50.0)
            elif kind == "advance":
                sim.run(until=sim.now + op[1])
            elif kind == "reconcile":
                broker.reconcile()
            elif kind == "evict":
                before = (broker.jobs(), broker.malleable.table.all())
                n = broker.evict_terminal(ttl=op[1])
                after = (broker.jobs(), broker.malleable.table.all())
                expired_total = 0
                for old, new, gone in zip(before, after, (gone_fixed, gone_malleable), strict=True):
                    # exactly the terminal records old enough left
                    expired = [
                        j
                        for j in old
                        if j.state in (JobState.COMPLETED, JobState.FAILED)
                        and sim.now - j.finished_at >= op[1]
                    ]
                    ids = {j.job_id for j in expired}
                    assert new == [j for j in old if j.job_id not in ids]
                    gone += expired
                    expired_total += len(expired)
                assert n == expired_total
                assert broker.stats()["evicted"] == len(gone_fixed) + len(gone_malleable)
            assert_tables_match_scan(broker, gone_fixed, gone_malleable)
            assert_dispatches_match_scan(broker, accounting)
        # drain whatever is still live and re-check the terminal shape
        sim.run(until=sim.now + 400.0)
        broker.reconcile()
        assert_tables_match_scan(broker, gone_fixed, gone_malleable)
        assert_dispatches_match_scan(broker, accounting)


class TestReconcileSkipsTerminalJobs:
    def test_refresh_never_sees_completed_or_failed_jobs(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        done = [broker.submit_spec(JobSpec(program=PROGRAM, shots=5)) for _ in range(4)]
        broker.submit_spec(JobSpec(program=PROGRAM, shots=5, pin="site-0/no-such-resource"))
        sim.run(until=200.0)
        assert {broker.job(j).state for j in done} == {JobState.COMPLETED}
        assert len(broker.jobs(state=JobState.FAILED)) == 1

        seen: list[tuple[str, JobState]] = []
        original = broker._refresh

        def spy(job):
            seen.append((job.job_id, job.state))
            return original(job)

        broker._refresh = spy
        live = broker.submit_spec(JobSpec(program=PROGRAM, shots=5))
        for _ in range(5):
            broker.reconcile()
        terminal = {j for j in done} | {
            j.job_id for j in broker.jobs(state=JobState.FAILED)
        }
        assert all(job_id not in terminal for job_id, _ in seen)
        assert all(state is JobState.PLACED for _, state in seen)
        assert any(job_id == live for job_id, _ in seen)

    def test_reads_of_a_multi_unit_id_change_nothing(self):
        """status() and result() are reads: on a live multi-unit job
        they run no resize pass — no stats move, nothing is published."""
        sim, registry, broker, sites = build_federation(n_sites=2, max_queue_depth=8)
        job_id = broker.submit_spec(JobSpec(program=PROGRAM, shots=5, iterations=12))
        sim.run(until=20.0)
        assert broker.job(job_id).state is JobState.PLACED
        before = (broker.stats(), broker.events.published)
        status = broker.status(job_id)
        with pytest.raises(PlacementError, match="not finished"):
            broker.result(job_id)
        assert (broker.stats(), broker.events.published) == before
        assert status["units"] == 12 and status["state"] == "placed"

    def test_held_release_admission_memoized_per_tenant(self):
        """N held jobs of one exhausted tenant must cost one budget
        admission lookup per reconcile, not one per job."""
        accounting = FederationAccounting()
        accounting.set_budget("parked", 0.0, action=BudgetAction.HOLD)
        sim, registry, broker, sites = build_federation(n_sites=2)
        broker.accounting = accounting
        for _ in range(8):
            broker.submit_spec(JobSpec(program=PROGRAM, shots=5, tenant="parked"))
        assert len(broker.jobs(state=JobState.HELD)) == 8

        calls: list[str] = []
        original = accounting.admission

        def counting(tenant):
            calls.append(tenant)
            return original(tenant)

        accounting.admission = counting
        broker.reconcile()
        assert calls.count("parked") == 1
        # release: topping the budget up lets every held job place, and
        # each placement invalidates the memo (its reservation changes
        # the tenant's headroom) — admission re-checked per release
        accounting.budgets.grant("parked", 1000.0)
        calls.clear()
        broker.reconcile()
        assert not broker.jobs(state=JobState.HELD)
        assert len(broker.jobs(state=JobState.PLACED)) == 8
        # every placement invalidated the memo, so each of the 8
        # releases re-asked (the next sweep starts from a fresh cache)
        assert calls.count("parked") == 8


class TestRegistryCaches:
    def test_names_cache_invalidated_on_membership_change(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        assert registry.names() == ["site-0", "site-1"]
        registry.deregister("site-0")
        assert registry.names() == ["site-1"]
        # returned lists are private copies: callers cannot poison
        registry.names().append("mallory")
        assert registry.names() == ["site-1"]

    def test_snapshot_cache_hits_and_invalidates(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        first = registry.snapshot("site-0", now=0.0)
        assert registry.snapshot("site-0", now=0.0) is first  # cached
        # time alone is not a cache key: an undrifted site's snapshot
        # survives the housekeeping tick
        assert registry.snapshot("site-0", now=1.0) is first
        assert registry.snapshot_cache_hits == 2
        registry.heartbeat("site-0", now=1.0)
        beat = registry.snapshot("site-0", now=1.0)
        assert beat is first  # a heartbeat changes no snapshot content
        # a queue mutation invalidates
        sites["site-0"].submit(PROGRAM, "onprem", shots=5)
        deeper = registry.snapshot("site-0", now=1.0)
        assert deeper is not beat
        assert deeper.queue_depth == beat.queue_depth + 1
        # calibration drift invalidates through the version signal
        device = next(iter(sites["site-0"].hardware_devices().values()))
        device.calibration.t2_us -= 5.0
        drifted = registry.snapshot("site-0", now=1.0)
        assert drifted is not deeper
        # ... but heartbeat expiry still flips health with no key change
        assert (
            registry.snapshot("site-0", now=1e6).health
            is SiteHealth.UNHEALTHY
        )

    def test_snapshot_health_matches_health_of(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, heartbeat_expiry=30.0
        )
        sites["site-1"].kill()
        for name in ("site-0", "site-1"):
            for now in (0.0, 10.0, 31.0):
                assert (
                    registry.snapshot(name, now).health
                    is registry.health_of(name, now)
                )
        assert registry.snapshot("site-1", 0.0).health is SiteHealth.UNHEALTHY


STATIC_BUILDERS = ("fidelity_proxy", "calibration_snapshot", "catalog")


def spy_static_builders(site) -> list[str]:
    """Record every call to the site methods the static part is built
    from (instance attributes shadow the bound methods)."""
    calls: list[str] = []
    for name in STATIC_BUILDERS:
        original = getattr(site, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        setattr(site, name, spy)
    return calls


class TestSnapshotStaticPart:
    def test_depth_change_reuses_the_static_part(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        site = sites["site-0"]
        first = registry.snapshot("site-0", now=0.0)
        calls = spy_static_builders(site)
        site.submit(PROGRAM, "onprem", shots=5)
        site.submit(PROGRAM, "onprem", shots=5)
        calls.clear()
        deeper = registry.snapshot("site-0", now=0.0)
        assert deeper is not first
        assert deeper.queue_depth == first.queue_depth + 2
        assert calls == []
        assert deeper.fidelity_proxy == first.fidelity_proxy
        assert deeper.max_qubits == first.max_qubits
        assert deeper.catalog == first.catalog
        assert deeper.calibration == first.calibration
        # ... and a health flip alone builds nothing static either
        assert registry.snapshot("site-0", now=1e6).health is SiteHealth.UNHEALTHY
        assert calls == []

    def test_calibration_drift_rebuilds_the_static_part(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        site = sites["site-0"]
        before = registry.snapshot("site-0", now=0.0)
        calls = spy_static_builders(site)
        device = site.hardware_devices()["onprem"]
        device.calibration.t2_us = 10.0
        drifted = registry.snapshot("site-0", now=0.0)
        assert sorted(calls) == sorted(STATIC_BUILDERS)
        assert drifted.fidelity_proxy < before.fidelity_proxy
        assert drifted.fidelity_proxy == device.calibration.fidelity_proxy()
        assert drifted.calibration["onprem"]["t2_us"] == 10.0
        assert drifted.calibration["onprem"]["fidelity_proxy"] == drifted.fidelity_proxy
        assert before.calibration["onprem"]["t2_us"] == 50.0

    def test_snapshot_mappings_cannot_change_later_snapshots(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        site = sites["site-0"]
        snap = registry.snapshot("site-0", now=0.0)
        catalog = dict(snap.catalog)
        calibration = {name: dict(v) for name, v in snap.calibration.items()}
        with pytest.raises(TypeError):
            snap.catalog["mallory"] = "onprem-qpu"
        with pytest.raises(TypeError):
            del snap.catalog["onprem"]
        with pytest.raises(TypeError):
            snap.calibration["onprem"]["t2_us"] = 1e9
        with pytest.raises(TypeError):
            snap.calibration["mallory"] = {}
        # the copies the site hands out are the caller's own
        site.catalog()["mallory"] = "onprem-qpu"
        site.calibration_snapshot()["onprem"]["t2_us"] = 1e9
        site.submit(PROGRAM, "onprem", shots=5)
        later = registry.snapshot("site-0", now=0.0)
        assert later is not snap
        assert dict(later.catalog) == catalog
        assert {n: dict(v) for n, v in later.calibration.items()} == calibration

    def test_replaced_calibration_object_invalidates(self):
        # a fresh CalibrationState starts again at version 0, so the
        # version alone cannot tell it from the state it replaced
        sim, registry, broker, sites = build_federation(n_sites=1)
        device = sites["site-0"].hardware_devices()["onprem"]
        assert registry.snapshot("site-0", now=0.0).fidelity_proxy == 1.0
        device.calibration = CalibrationState(t2_us=10.0, detection_epsilon=0.05)
        snap = registry.snapshot("site-0", now=0.0)
        assert snap.fidelity_proxy == pytest.approx(0.2)
        assert snap.calibration["onprem"]["detection_epsilon"] == 0.05
