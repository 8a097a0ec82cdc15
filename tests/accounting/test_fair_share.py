"""FairShareArbiter weights, the slot fill they feed, and cross-job
convergence in the resize loop."""

import pytest

from repro.accounting import FairShareArbiter
from repro.errors import AccountingError, AlgorithmError
from repro.federation import JobState
from repro.federation.malleable import ResizeConfig
from repro.scheduling.algorithms import SchedulingAlgorithm
from repro.spec import JobSpec

from acctutil import build_accounted_federation, make_accounting, make_program


class TestArbiterAllocation:
    """The weighted max-min fill the resize loop divides slots with
    (the registry's base ``divide``), fed by the arbiter's weights."""

    def test_work_conserving_and_demand_capped(self):
        algo = SchedulingAlgorithm()
        alloc, transfers = algo.divide(10, {"a": 3, "b": 2})
        assert alloc == {"a": 3, "b": 2}  # surplus never parked on the sated
        assert transfers == []  # the fill starts from zero: nothing moves
        alloc, _ = algo.divide(4, {"a": 10, "b": 10})
        assert sum(alloc.values()) == 4

    def test_weighted_split_converges_to_ratio(self):
        alloc, _ = SchedulingAlgorithm().divide(12, {"a": 100, "b": 100}, {"a": 3.0, "b": 1.0})
        assert alloc == {"a": 9, "b": 3}

    def test_surplus_flows_to_hungry(self):
        # "b" only wants 1; its fair share surplus goes to "a"
        alloc, _ = SchedulingAlgorithm().divide(8, {"a": 100, "b": 1}, {"a": 1.0, "b": 1.0})
        assert alloc == {"a": 7, "b": 1}

    def test_tenant_weight_registry(self):
        arb = FairShareArbiter()
        arb.set_weight("vip", 4.0)
        assert arb.weight("vip") == 4.0
        assert arb.weight("unknown") == 1.0
        with pytest.raises(AccountingError):
            arb.set_weight("bad", 0.0)

    def test_validation(self):
        algo = SchedulingAlgorithm()
        with pytest.raises(AlgorithmError):
            algo.divide(-1, {"a": 1})
        with pytest.raises(AlgorithmError):
            algo.divide(1, {"a": -1})
        with pytest.raises(AlgorithmError):
            algo.divide(1, {"a": 1}, {"a": 0.0})

    def test_deterministic_tie_break(self):
        algo = SchedulingAlgorithm()
        assert algo.divide(1, {"a": 5, "b": 5})[0] == {"a": 1, "b": 0}
        # heavier weight wins the tie instead
        assert algo.divide(1, {"a": 5, "b": 5}, {"a": 1.0, "b": 2.0})[0] == {
            "a": 0,
            "b": 1,
        }


class TestCrossJobFairness:
    def build(self, weights=(3.0, 1.0), slots=4):
        accounting = make_accounting()
        accounting.set_share_weight("alpha", weights[0])
        accounting.set_share_weight("beta", weights[1])
        sim, _, broker, sites = build_accounted_federation(
            n_sites=2,
            accounting=accounting,
            shot_rates=[1.0, 1.0],
            max_queue_depth=32,
            resize_config=ResizeConfig(max_outstanding_per_site=slots),
        )
        return sim, broker, accounting

    def test_contending_jobs_split_slots_by_weight(self):
        """Two malleable jobs under contention: per-site in-flight slots
        converge to the configured 3:1 tenant weights."""
        sim, broker, _ = self.build()
        a = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=40, shots=40, tenant="alpha")
        )
        b = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=40, shots=40, tenant="beta")
        )
        sim.run(until=300.0)  # several reconcile ticks under contention
        job_a, job_b = broker.job(a), broker.job(b)
        assert job_a.state is JobState.PLACED and job_b.state is JobState.PLACED
        for site in ("site-0", "site-1"):
            slots_a = len(job_a.resize.ledger.in_flight_at(site))
            slots_b = len(job_b.resize.ledger.in_flight_at(site))
            assert (slots_a, slots_b) == (3, 1)

    def test_completed_units_track_weights(self):
        sim, broker, _ = self.build()
        a = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=60, shots=40, tenant="alpha")
        )
        b = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=60, shots=40, tenant="beta")
        )
        sim.run(until=1500.0)
        done_a = broker.job(a).completed_units
        done_b = broker.job(b).completed_units
        assert done_b > 0
        ratio = done_a / done_b
        assert 2.0 <= ratio <= 4.0  # converges to ~3:1 under contention

    def test_job_splitting_cannot_multiply_share(self):
        """Fairness attaches to the tenant: beta submitting two jobs
        still gets one tenant's share against alpha's one job."""
        sim, broker, _ = self.build(weights=(1.0, 1.0), slots=4)
        a = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=60, shots=40, tenant="alpha")
        )
        b1 = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=30, shots=40, tenant="beta")
        )
        b2 = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=30, shots=40, tenant="beta")
        )
        sim.run(until=300.0)
        job_a = broker.job(a)
        for site in ("site-0", "site-1"):
            slots_a = len(job_a.resize.ledger.in_flight_at(site))
            slots_b = sum(
                len(broker.job(j).resize.ledger.in_flight_at(site))
                for j in (b1, b2)
            )
            assert slots_a == slots_b == 2  # 1:1 tenants, not 1:2 jobs

    def test_sole_job_keeps_full_capacity(self):
        """Work conservation: with no contention, the arbiter never caps
        the only claimant below the configured per-site budget."""
        sim, broker, _ = self.build()
        a = broker.submit_spec(
            JobSpec(program=make_program(shots=40), iterations=40, shots=40, tenant="beta")
        )
        sim.run(until=200.0)
        job = broker.job(a)
        for site in ("site-0", "site-1"):
            assert len(job.resize.ledger.in_flight_at(site)) == 4
