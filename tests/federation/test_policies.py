"""Property-style tests for federation routing policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import (
    CalibrationAwarePolicy,
    FederatedJob,
    LeastQueuePolicy,
    RoundRobinPolicy,
    SiteHealth,
    SiteSnapshot,
    StickyPolicy,
)
from repro.federation.broker import JobState
from repro.spec import JobSpec

from fedutil import build_federation, make_program


def snap(name, depth=0, cap=8, fidelity=1.0, max_qubits=20):
    health = SiteHealth.SATURATED if depth >= cap else SiteHealth.ONLINE
    return SiteSnapshot(
        name=name,
        health=health,
        queue_depth=depth,
        max_queue_depth=cap,
        fidelity_proxy=fidelity,
        max_qubits=max_qubits,
        catalog={"onprem": "onprem-qpu"},
    )


def job(job_id="fed-job-1", n_qubits=3, affinity_key=None):
    return FederatedJob(
        job_id=job_id,
        program=None,
        shots=None,
        owner="t",
        affinity_key=affinity_key,
        n_qubits=n_qubits,
        submitted_at=0.0,
    )


class TestRoundRobinFairness:
    @settings(max_examples=30, deadline=None)
    @given(
        n_sites=st.integers(min_value=2, max_value=6),
        rounds=st.integers(min_value=1, max_value=5),
    )
    def test_equal_health_means_equal_share(self, n_sites, rounds):
        """(a) under equal health every site gets exactly its share."""
        policy = RoundRobinPolicy()
        sites = [snap(f"site-{i}") for i in range(n_sites)]
        picks = [
            policy.choose(job(f"fed-job-{k}"), sites, 0.0).name
            for k in range(rounds * n_sites)
        ]
        for site in sites:
            assert picks.count(site.name) == rounds

    def test_fair_under_candidate_reordering(self):
        policy = RoundRobinPolicy()
        sites = [snap("b"), snap("a"), snap("c")]
        picks = {policy.choose(job(), sites, 0.0).name for _ in range(3)}
        assert picks == {"a", "b", "c"}


class TestLeastQueue:
    @settings(max_examples=50, deadline=None)
    @given(depths=st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=6))
    def test_picks_global_minimum(self, depths):
        policy = LeastQueuePolicy()
        sites = [snap(f"site-{i}", depth=d) for i, d in enumerate(depths)]
        choice = policy.choose(job(), sites, 0.0)
        assert choice.queue_depth == min(depths)

    @settings(max_examples=50, deadline=None)
    @given(
        healthy_depths=st.lists(
            st.integers(min_value=0, max_value=7), min_size=1, max_size=5
        ),
        n_saturated=st.integers(min_value=1, max_value=3),
    )
    def test_never_picks_saturated_when_healthy_exists(
        self, healthy_depths, n_saturated
    ):
        """(b) a saturated site loses to any unsaturated one."""
        sites = [snap(f"ok-{i}", depth=d) for i, d in enumerate(healthy_depths)]
        sites += [snap(f"full-{i}", depth=8, cap=8) for i in range(n_saturated)]
        # the broker pre-filters saturation exactly like this:
        unsaturated = [s for s in sites if not s.is_saturated]
        pool = unsaturated or sites
        choice = LeastQueuePolicy().choose(job(), pool, 0.0)
        assert not choice.is_saturated

    def test_broker_level_spillover_avoids_saturated_site(self):
        """End-to-end: fill one site to capacity, next job spills over."""
        sim, registry, broker, sites = build_federation(
            n_sites=2, policy=LeastQueuePolicy(), shot_rates=(0.1, 0.1),
            max_queue_depth=2, max_attempts=10,
        )
        program = make_program(shots=30)
        # saturate site-0 directly (local submissions, not via broker)
        for _ in range(2):
            sites["site-0"].submit(program, "onprem", shots=30, owner="local")
        assert registry.health_of("site-0", sim.now) is SiteHealth.SATURATED
        job_id = broker.submit_spec(JobSpec(program=program, shots=30))
        assert broker.status(job_id)["site"] == "site-1"


class TestCalibrationAware:
    def test_prefers_low_drift_site(self):
        policy = CalibrationAwarePolicy()
        sites = [snap("drifty", fidelity=0.6), snap("fresh", fidelity=0.99)]
        assert policy.choose(job(), sites, 0.0).name == "fresh"

    def test_queue_pressure_breaks_near_ties(self):
        policy = CalibrationAwarePolicy(queue_weight=0.02)
        sites = [snap("idle", depth=0, fidelity=0.98), snap("busy", depth=6, fidelity=0.99)]
        assert policy.choose(job(), sites, 0.0).name == "idle"

    def test_geometry_weighting_scales_drift_cost(self):
        """Big registers punish drift harder than small ones."""
        policy = CalibrationAwarePolicy(queue_weight=0.02)
        drifty_idle = snap("drifty", depth=0, fidelity=0.97, max_qubits=20)
        fresh_busy = snap("fresh", depth=2, fidelity=1.0, max_qubits=20)
        small = policy.choose(job(n_qubits=1), [drifty_idle, fresh_busy], 0.0)
        large = policy.choose(job(n_qubits=20), [drifty_idle, fresh_busy], 0.0)
        assert small.name == "drifty"   # tiny register: queue dominates
        assert large.name == "fresh"    # large register: drift dominates


class TestSticky:
    def test_binds_and_reuses(self):
        policy = StickyPolicy()
        sites = [snap("a", depth=5), snap("b", depth=0)]
        first = policy.choose(job(affinity_key="vqe-1"), sites, 0.0)
        assert first.name == "b"  # fallback (least-queue) on first placement
        # even after load shifts, the key stays bound
        shifted = [snap("a", depth=0), snap("b", depth=5)]
        again = policy.choose(job(affinity_key="vqe-1"), shifted, 0.0)
        assert again.name == "b"

    def test_rebinds_when_bound_site_leaves_candidates(self):
        policy = StickyPolicy()
        sites = [snap("a"), snap("b")]
        bound = policy.choose(job(affinity_key="k"), sites, 0.0).name
        survivors = [s for s in sites if s.name != bound]
        rebound = policy.choose(job(affinity_key="k"), survivors, 0.0)
        assert rebound.name != bound
        assert policy.binding("k") == rebound.name

    def test_no_key_falls_back(self):
        policy = StickyPolicy()
        sites = [snap("a", depth=3), snap("b", depth=1)]
        assert policy.choose(job(affinity_key=None), sites, 0.0).name == "b"

    def test_iterative_job_stays_on_one_site_end_to_end(self):
        sim, registry, broker, sites = build_federation(
            n_sites=3, policy=StickyPolicy()
        )
        program = make_program(shots=20)
        ids = [
            broker.submit_spec(JobSpec(program=program, shots=20, affinity_key="vqe-loop"))
            for _ in range(4)
        ]
        sim.run(until=300.0)
        placed = {broker.job(i).placements[0].site for i in ids}
        assert len(placed) == 1
        assert all(broker.job(i).state is JobState.COMPLETED for i in ids)


class TestPolicyContract:
    @pytest.mark.parametrize(
        "policy",
        [RoundRobinPolicy(), LeastQueuePolicy(), CalibrationAwarePolicy(), StickyPolicy()],
    )
    def test_empty_candidates_rejected(self, policy):
        from repro.errors import FederationError

        with pytest.raises(FederationError):
            policy.choose(job(), [], 0.0)
