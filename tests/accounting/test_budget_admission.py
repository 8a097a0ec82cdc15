"""Broker-level budget enforcement: reject, hold, and cross-site bills."""

import pytest

from repro.accounting import BudgetAction, UsageKind
from repro.errors import BudgetExceededError, DaemonError
from repro.federation import JobState, RoundRobinPolicy
from repro.session import Session
from repro.simkernel import Interrupt
from repro.spec import JobSpec

from acctutil import build_accounted_federation, make_accounting, make_program


def drain(sim, horizon=600.0):
    sim.run(until=sim.now + horizon)


class TestRejectAdmission:
    def test_exhausted_budget_rejects_new_submissions(self):
        accounting = make_accounting(default_shot_price=0.01)
        accounting.set_budget("alpha", 1.0)  # two 50-shot jobs (0.5 each)
        sim, _, broker, _ = build_accounted_federation(accounting=accounting)
        j1 = broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        j2 = broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        drain(sim)
        assert broker.job(j1).state is JobState.COMPLETED
        assert broker.job(j2).state is JobState.COMPLETED
        assert accounting.spend("alpha") >= 1.0
        with pytest.raises(BudgetExceededError) as err:
            broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        assert err.value.tenant == "alpha"
        # other tenants are untouched
        ok = broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="beta"))
        drain(sim)
        assert broker.job(ok).state is JobState.COMPLETED

    def test_malleable_submission_also_gated(self):
        accounting = make_accounting()
        accounting.set_budget("alpha", 0.0)
        _, _, broker, _ = build_accounted_federation(accounting=accounting)
        with pytest.raises(BudgetExceededError):
            broker.submit_spec(JobSpec(program=make_program(shots=20), iterations=3, tenant="alpha"))

    def test_one_invoice_across_two_sites(self):
        """Acceptance: a tenant running on >=2 sites gets exactly one
        invoice whose total is the per-site metered usage priced at each
        site's own card."""
        accounting = make_accounting(
            shot_prices={"site-0": 0.02, "site-1": 0.005}
        )
        sim, _, broker, _ = build_accounted_federation(
            n_sites=2, accounting=accounting, policy=RoundRobinPolicy()
        )
        for _ in range(4):  # round-robin: two jobs land on each site
            broker.submit_spec(JobSpec(program=make_program(shots=100), shots=100, tenant="alpha"))
        drain(sim)
        by_site = {
            e.site
            for e in accounting.ledger.events("alpha")
            if e.kind is UsageKind.QPU_SHOTS
        }
        assert by_site == {"site-0", "site-1"}
        invoice = accounting.invoice("alpha", now=sim.now)
        shots_0 = sum(
            e.quantity
            for e in accounting.ledger.events("alpha")
            if e.site == "site-0" and e.kind is UsageKind.QPU_SHOTS
        )
        shots_1 = sum(
            e.quantity
            for e in accounting.ledger.events("alpha")
            if e.site == "site-1" and e.kind is UsageKind.QPU_SHOTS
        )
        assert shots_0 == shots_1 == 200
        cpu_cost = sum(
            e.cost
            for e in accounting.ledger.events("alpha")
            if e.kind is UsageKind.CPU_SECONDS
        )
        assert invoice.total == pytest.approx(
            shots_0 * 0.02 + shots_1 * 0.005 + cpu_cost
        )
        assert invoice.total == pytest.approx(accounting.spend("alpha"))


class TestHoldAdmission:
    def test_held_job_places_after_top_up(self):
        accounting = make_accounting()
        accounting.set_budget("alpha", 0.0, action=BudgetAction.HOLD)
        sim, _, broker, _ = build_accounted_federation(accounting=accounting)
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        job = broker.job(job_id)
        assert job.state is JobState.HELD
        assert job.attempts == 0
        drain(sim)  # reconcile sweeps run; budget still exhausted
        assert broker.job(job_id).state is JobState.HELD
        accounting.budgets.grant("alpha", 5.0)
        drain(sim)
        assert broker.job(job_id).state is JobState.COMPLETED
        assert accounting.spend("alpha") > 0

    def test_held_malleable_job_releases_and_completes(self):
        accounting = make_accounting()
        accounting.set_budget("alpha", 0.0, action=BudgetAction.HOLD)
        sim, _, broker, _ = build_accounted_federation(accounting=accounting)
        job_id = broker.submit_spec(
            JobSpec(program=make_program(shots=20), iterations=4, shots=20, tenant="alpha")
        )
        record = broker.job(job_id)
        assert record.state is JobState.HELD
        assert record.resize.ledger.in_flight_units == 0
        drain(sim)
        assert record.state is JobState.HELD
        accounting.budgets.grant("alpha", 50.0)
        drain(sim, horizon=1200.0)
        assert record.state is JobState.COMPLETED
        assert record.completed_units == 4

    def test_release_waits_out_a_no_site_window(self):
        """A top-up landing while every site is down must keep the job
        parked — HELD never decays to FAILED on transient timing."""
        accounting = make_accounting()
        accounting.set_budget("alpha", 0.0, action=BudgetAction.HOLD)
        sim, _, broker, sites = build_accounted_federation(
            n_sites=1, accounting=accounting
        )
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        site = sites["site-0"]
        site.alive = False  # silent outage: heartbeats stop
        accounting.budgets.grant("alpha", 5.0)
        drain(sim, horizon=300.0)  # several reconciles with no healthy site
        assert broker.job(job_id).state is JobState.HELD
        site.alive = True  # recovery (the beat process died with the site,
        registry = broker.registry  # so beat manually on the sweep cadence)
        for i in range(40):
            sim.call_in(15.0 * i, lambda: registry.heartbeat("site-0", sim.now))
        drain(sim)
        assert broker.job(job_id).state is JobState.COMPLETED

    def test_reservations_bound_admission(self):
        """Encumbrance: queued-but-uncompleted work already counts
        against the budget at the next admission, and the running
        reserved total tracks reserve/release exactly."""
        accounting = make_accounting(default_shot_price=0.01)
        accounting.set_budget("alpha", 1.0)
        sim, _, broker, _ = build_accounted_federation(accounting=accounting)
        for _ in range(2):  # 0.5 reserved each; no completions yet
            broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        assert accounting.budgets.reserved("alpha") == pytest.approx(1.0)
        assert accounting.spend("alpha") == 0.0
        with pytest.raises(BudgetExceededError):  # fully encumbered
            broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        drain(sim)
        assert accounting.budgets.reserved("alpha") == 0.0
        assert accounting.spend("alpha") >= 1.0

    def test_status_reports_held_state(self):
        accounting = make_accounting()
        accounting.set_budget("alpha", 0.0, action=BudgetAction.HOLD)
        _, _, broker, _ = build_accounted_federation(accounting=accounting)
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=50), shots=50, tenant="alpha"))
        status = broker.status(job_id)
        assert status["state"] == "held"
        assert status["site"] is None


class TestHeldJobWait:
    """A held job is released only by the broker's background
    housekeeping.  ``JobHandle.wait()`` arms no timer, so its armed
    wake alone must keep the simulator stepping that housekeeping."""

    def held(self, grant=5.0):
        accounting = make_accounting()
        accounting.set_budget("alpha", 0.0, action=BudgetAction.HOLD)
        sim, _, broker, _ = build_accounted_federation(accounting=accounting)
        session = Session(federation=broker, user="alpha")
        handle = session.submit(JobSpec(program=make_program(shots=50), shots=50))
        assert broker.job(handle.job_id).state is JobState.HELD
        if grant:
            accounting.budgets.grant("alpha", grant)
        return sim, broker, session, handle

    def test_wait_completes_under_run_until_process(self):
        sim, broker, _, handle = self.held()
        result = sim.run_until_process(sim.spawn(handle.wait()))
        assert result.shots == 50
        assert broker.job(handle.job_id).state is JobState.COMPLETED

    def test_unbounded_run_does_not_stop_early_and_releases_the_hold(self):
        sim, broker, _, handle = self.held()
        waiter = sim.spawn(handle.wait())
        sim.run(max_events=100_000)
        assert not waiter.alive and waiter.error is None
        assert waiter.return_value.shots == 50
        assert sim.events.foreground_count() == 0

    def test_interrupting_the_waiter_releases_the_hold(self, process_failures):
        sim, broker, session, handle = self.held(grant=0.0)
        # the interrupted waiter dies of the Interrupt with nothing waiting on it
        process_failures(sim, 1)
        subscribers = session.events.subscriber_count()
        waiter = sim.spawn(handle.wait())
        sim.run(until=100.0)
        assert sim.events.foreground_count() == 1  # the armed wake
        assert session.events.subscriber_count() == subscribers + 1
        waiter.interrupt("give up")
        sim.run(until=200.0)
        assert isinstance(waiter.error, Interrupt)
        assert sim.events.foreground_count() == 0
        assert session.events.subscriber_count() == subscribers
        assert broker.job(handle.job_id).state is JobState.HELD


class TestRetryMetering:
    def test_failover_bills_a_retry(self):
        accounting = make_accounting()
        sim, _, broker, sites = build_accounted_federation(
            n_sites=2, accounting=accounting, shot_rates=[0.05, 10.0]
        )
        # pin-free submit lands somewhere; kill that site mid-run
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=200), shots=200, tenant="alpha"))
        first_site = broker.job(job_id).current.site
        sim.run(until=5.0)
        sites[first_site].kill()
        drain(sim, horizon=3600.0)
        assert broker.job(job_id).state is JobState.COMPLETED
        retries = accounting.ledger.quantity("alpha", UsageKind.RETRIES)
        assert retries >= 1


class TestCloudGatewayThreading:
    def build_gateway(self, accounting):
        import numpy as np

        from repro.daemon import MiddlewareDaemon
        from repro.daemon.cloud import CloudGateway
        from repro.qpu import QPUDevice, ShotClock
        from repro.qrmi import OnPremQPUResource
        from repro.simkernel import Simulator

        sim = Simulator()
        device = QPUDevice(
            clock=ShotClock(
                shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0
            ),
            rng=np.random.default_rng(0),
        )
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)}
        )
        return sim, CloudGateway(daemon, accounting=accounting, site_name="cloud-0")

    def test_gateway_meters_onto_shared_ledger(self):
        accounting = make_accounting(shot_prices={"cloud-0": 0.1})
        _, gw = self.build_gateway(accounting)
        key = gw.provision_tenant("uni-lab")
        gw.submit(key, JobSpec(program=make_program(shots=50), resource="onprem", shots=50))
        assert accounting.spend("uni-lab") == pytest.approx(5.0)
        usage = gw.usage(key)
        assert usage["federation_spend"] == pytest.approx(5.0)

    def test_gateway_refuses_exhausted_federation_budget(self):
        accounting = make_accounting(shot_prices={"cloud-0": 0.1})
        accounting.set_budget("uni-lab", 4.0)
        _, gw = self.build_gateway(accounting)
        key = gw.provision_tenant("uni-lab")
        gw.submit(key, JobSpec(program=make_program(shots=50), resource="onprem", shots=50))  # spend 5 > 4
        with pytest.raises(DaemonError, match="federation budget"):
            gw.submit(key, JobSpec(program=make_program(shots=50), resource="onprem", shots=50))
