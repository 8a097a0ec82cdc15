"""Bus-derived counters must equal the ground truth in the job records.

The explicit ``FederationMetrics.record_*`` call sites are gone; every
counter now derives from the :class:`~repro.federation.events.LifecycleBus`
stream.  These tests re-derive each counter independently from the
broker's own job records — placements lists, terminal states, share
ledgers — on a mixed trace (fixed jobs, failover, a malleable job,
eviction) and require exact agreement.
"""

from fedutil import build_federation, make_program

from repro.accounting import FederationAccounting
from repro.federation.broker import JobState


def run_mixed_trace():
    """Fixed jobs + a malleable job + one site outage + eviction, on a
    3-site federation; returns (broker, fixed_ids, malleable_id,
    evicted_count)."""
    sim, registry, broker, sites = build_federation(n_sites=3, seed=7)
    broker.accounting = FederationAccounting()  # unbudgeted -> admit
    fixed = [
        broker.submit_spec(make_spec(shots=120 + 40 * i)) for i in range(4)
    ]
    malleable = broker.submit_spec(
        make_spec(shots=30, iterations=6, sites=("site-0", "site-1", "site-2"))
    )
    sim.run(until=10.0)
    sites["site-1"].kill()  # in-flight work reroutes
    sim.run(until=600.0)
    # capture the records before eviction drops them from the tables
    jobs = [broker.job(j) for j in fixed]
    mjob = broker.job(malleable)
    evicted = broker.evict_terminal()
    return broker, jobs, mjob, evicted


def make_spec(shots=100, **kwargs):
    from repro.spec import JobSpec

    return JobSpec(program=make_program(shots=shots), shots=shots, **kwargs)


class TestCounterEquivalence:
    def test_push_mode(self):
        broker, fixed, mjob, evicted = run_mixed_trace()
        metrics = broker.metrics
        assert all(j.state is JobState.COMPLETED for j in fixed)
        assert mjob.state is JobState.COMPLETED

        # placements: every dispatch of every job, fixed and malleable
        truth_placements: dict[str, int] = {}
        for job in [*fixed, mjob]:
            for placement in job.placements:
                truth_placements[placement.site] = (
                    truth_placements.get(placement.site, 0) + 1
                )
        for site, count in truth_placements.items():
            assert metrics.placements.value(labels={"site": site}) == count
        total = sum(
            value for _, _, value in metrics.placements.samples()
        )
        assert total == sum(truth_placements.values())

        # outcomes: terminal states across both job families
        completed = len(fixed) + 1  # the malleable job completed too
        assert metrics.outcomes.value(labels={"outcome": "completed"}) == completed
        assert metrics.outcomes.value(labels={"outcome": "failed"}) == 0.0

        # reroutes: fixed-size failovers are placements beyond the first;
        # malleable ones are abandoned dispatches that were not queued
        # reclaims or a failing job's teardown
        truth_reroutes: dict[str, int] = {}
        for job in fixed:
            for placement in job.placements[:-1]:
                truth_reroutes[placement.site] = (
                    truth_reroutes.get(placement.site, 0) + 1
                )
        for dispatch in mjob.placements:
            if dispatch.abandoned and not dispatch.abandon_reason.startswith(
                "reclaimed:"
            ) and dispatch.abandon_reason != "job failed":
                truth_reroutes[dispatch.site] = (
                    truth_reroutes.get(dispatch.site, 0) + 1
                )
        assert sum(truth_reroutes.values()) > 0  # the outage really hit
        for site, count in truth_reroutes.items():
            assert metrics.reroutes.value(labels={"site": site}) == count

        # malleable units: the share ledger is the ground truth
        for site, count in mjob.resize.ledger.completions_by_site().items():
            assert metrics.units_completed.value(labels={"site": site}) == count

        # admissions: one decision per submission (no accounting -> admit)
        assert metrics.admissions.value(labels={"decision": "admit"}) == 5.0

        # resize events: the per-job ShareEvent history
        truth_share = {}
        for event in mjob.resize.events:
            key = (event.site, event.kind)
            truth_share[key] = truth_share.get(key, 0) + 1
        for (site, kind), count in truth_share.items():
            assert metrics.share_events.value(
                labels={"site": site, "kind": kind}
            ) == count

        # evictions: evict_terminal's own return value
        assert evicted == 5
        assert metrics.evictions.value() == evicted

    def test_push_mode_populates_stage_latency(self):
        broker, *_ = run_mixed_trace()
        flat = broker.metrics.registry.snapshot()
        for stage in ("queue-wait", "execute", "job"):
            key = f"federation_stage_latency_seconds_count{{stage={stage}}}"
            assert flat[key] > 0, stage


class TestSnapshotCacheCounter:
    def test_cache_hits_surface_in_the_exposition(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        broker.submit_spec(make_spec(shots=50))
        sim.run(until=300.0)
        assert registry.snapshot_cache_hits > 0
        assert (
            broker.metrics.snapshot_cache_hits.value()
            == registry.snapshot_cache_hits
        )
        text = broker.metrics.text()
        assert "federation_snapshot_cache_hits_total" in text

    def test_quiet_ticks_hit_the_cache(self):
        """Housekeeping sweeps over an idle undrifted federation serve
        snapshots from cache instead of rebuilding them."""
        sim, registry, broker, sites = build_federation(n_sites=3)
        sim.run(until=20.0)  # past the first housekeeping tick
        misses_before = registry.snapshot_cache_misses
        hits_before = registry.snapshot_cache_hits
        # two more ticks (and their heartbeats): no drift, no queue churn
        sim.run(until=50.0)
        assert registry.snapshot_cache_misses == misses_before
        assert registry.snapshot_cache_hits > hits_before
