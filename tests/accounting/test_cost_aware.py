"""CostAwarePolicy: budget burn rate vs queue pressure in routing."""

import pytest

from repro.accounting import UsageKind
from repro.errors import FederationError
from repro.federation import CostAwarePolicy, JobState
from repro.spec import JobSpec

from acctutil import build_accounted_federation, make_accounting, make_program


def build(prices, budget=None, queue_weight=0.05, n_sites=2):
    accounting = make_accounting(shot_prices=prices)
    if budget is not None:
        accounting.set_budget("alpha", budget)
    policy = CostAwarePolicy(accounting, queue_weight=queue_weight)
    sim, _, broker, sites = build_accounted_federation(
        n_sites=n_sites,
        accounting=accounting,
        policy=policy,
        max_queue_depth=16,
    )
    return sim, broker, sites, accounting


class TestCostAwareRouting:
    def test_requires_accounting(self):
        with pytest.raises(FederationError):
            CostAwarePolicy(None)

    def test_tight_budget_prefers_cheap_site(self):
        # site-1 is 10x cheaper; alpha's budget is nearly gone
        sim, broker, sites, accounting = build(
            {"site-0": 0.05, "site-1": 0.005}, budget=1.0
        )
        # pre-load the cheap site's queue so pure load-balancing would
        # route to the expensive one
        for _ in range(3):
            broker.submit_spec(JobSpec(program=make_program(shots=20), shots=20, tenant="filler"))
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=100), shots=100, tenant="alpha"))
        assert broker.job(job_id).current.site == "site-1"

    def test_unbudgeted_tenant_balances_on_load(self):
        sim, broker, sites, _ = build({"site-0": 0.05, "site-1": 0.005})
        # load the cheap site: an unbudgeted tenant should dodge the queue
        first = broker.submit_spec(JobSpec(program=make_program(shots=400), shots=400, tenant="beta"))
        busy = broker.job(first).current.site
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="beta"))
        assert broker.job(job_id).current.site != busy

    def test_burn_rate_grows_as_budget_drains(self):
        sim, broker, sites, accounting = build(
            {"site-0": 0.05, "site-1": 0.005}, budget=100.0
        )
        policy = broker.policy
        snaps = broker.registry.snapshots(sim.now)
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=100), shots=100, tenant="alpha"))
        job = broker.job(job_id)
        by_name = {s.name: s for s in snaps}
        rich_gap = policy._score(job, by_name["site-0"])[0] - policy._score(
            job, by_name["site-1"]
        )[0]
        # drain the budget: the price gap must matter more now
        accounting.ledger.meter(
            "alpha", "site-0", UsageKind.QPU_SHOTS, 1900, 0.0
        )
        poor_gap = policy._score(job, by_name["site-0"])[0] - policy._score(
            job, by_name["site-1"]
        )[0]
        assert poor_gap > rich_gap

    def test_jobs_complete_under_cost_aware_policy(self):
        sim, broker, sites, accounting = build(
            {"site-0": 0.02, "site-1": 0.01}, budget=50.0
        )
        ids = [
            broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
            for _ in range(4)
        ]
        sim.run(until=600.0)
        for job_id in ids:
            assert broker.job(job_id).state is JobState.COMPLETED
        assert accounting.spend("alpha") > 0

    def test_rank_resize_orders_by_burn(self):
        sim, broker, sites, accounting = build(
            {"site-0": 0.05, "site-1": 0.005}, budget=1.0
        )
        job_id = broker.submit_spec(
            JobSpec(program=make_program(shots=20), iterations=2, shots=20, tenant="alpha")
        )
        record = broker.job(job_id)
        ranked = broker.policy.rank_resize(
            record, broker.registry.healthy_snapshots(sim.now), sim.now
        )
        assert ranked[0].name == "site-1"  # cheapest first under a tight budget
