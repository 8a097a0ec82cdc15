"""Federated accounting: one tenant, three sites, exactly one invoice.

A 3-site federation with per-site rate cards (site-2 is the cheap
academic center, site-0 the expensive commercial one).  Two tenants
share it:

* ``quantlab`` has a federation-wide budget and a 3x fair-share weight;
  its jobs spill over every site, yet all consumption lands on one
  ledger and one invoice,
* ``burst-co`` has a tight budget with the REJECT action — once its
  metered-plus-reserved spend crosses the cap, the broker refuses new
  submissions loudly.

The run prints the admission outcomes, each tenant's cross-site
invoice, and the spend/remaining gauges the federation exports through
the standard Prometheus path.

Run:  PYTHONPATH=src python examples/federated_accounting.py
"""

import numpy as np

from repro.accounting import (
    BudgetAction,
    FederationAccounting,
    RateBook,
    SiteRateCard,
)
from repro.daemon import MiddlewareDaemon
from repro.errors import BudgetExceededError
from repro.federation import (
    CostAwarePolicy,
    FederatedSite,
    FederationBroker,
    SiteRegistry,
)
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.simkernel import RngRegistry, Simulator
from repro.spec import JobSpec

SHOTS = 100


def build():
    book = RateBook(default=SiteRateCard(site="*", qpu_shot_price=0.01))
    book.publish(SiteRateCard(site="site-0", qpu_shot_price=0.02))
    book.publish(SiteRateCard(site="site-1", qpu_shot_price=0.01))
    book.publish(SiteRateCard(site="site-2", qpu_shot_price=0.005))
    accounting = FederationAccounting(rates=book)
    accounting.set_budget("quantlab", 25.0)
    accounting.set_budget("burst-co", 3.0, action=BudgetAction.REJECT)
    accounting.set_share_weight("quantlab", 3.0)

    sim = Simulator()
    rng = RngRegistry(11)
    registry = SiteRegistry(heartbeat_expiry=60.0)
    for i in range(3):
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
            rng=rng.get(f"dev{i}"),
        )
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
        )
        registry.register(
            FederatedSite(f"site-{i}", daemon, max_queue_depth=12), now=0.0
        )
    registry.start_heartbeats(sim, interval=15.0)
    broker = FederationBroker(
        sim,
        registry,
        # queue_weight high enough that a loaded cheap site spills onto
        # the mid-priced one — burn rate still steers within a price tier
        policy=CostAwarePolicy(accounting, queue_weight=0.25),
        max_attempts=4,
        accounting=accounting,
    )
    broker.spawn_housekeeping(interval=15.0, jitter=2.0, seed=11)
    return sim, broker, accounting


def program(name):
    return (
        AnalogCircuit(Register.chain(4, spacing=6.0), name=name)
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=SHOTS)
    )


def main():
    sim, broker, accounting = build()

    print("== intake ==")
    for i in range(6):
        job_id = broker.submit_spec(JobSpec(program=program(f"lab-{i}"), shots=SHOTS, tenant="quantlab"))
        site = broker.job(job_id).current.site
        print(f"quantlab {job_id} -> {site}")
    admitted = rejected = 0
    for i in range(10):
        try:
            broker.submit_spec(JobSpec(program=program(f"burst-{i}"), shots=SHOTS, tenant="burst-co"))
            admitted += 1
        except BudgetExceededError as err:
            rejected += 1
            if rejected == 1:
                print(f"burst-co rejected: {err}")
    print(f"burst-co: {admitted} admitted, {rejected} rejected at the broker")

    sim.run(until=3600.0)

    print("\n== invoices ==")
    for tenant in ("quantlab", "burst-co"):
        invoice = accounting.invoice(tenant, now=sim.now)
        print(f"{tenant}: total {invoice.total:.3f} {invoice.currency}")
        for line in invoice.lines:
            print(
                f"  {line.site:8s} {line.kind.value:12s} "
                f"qty {line.quantity:10.1f} @ {line.unit_price:.4f} "
                f"= {line.cost:8.3f}"
            )
        print(
            f"  remaining budget: {accounting.remaining(tenant):.3f} "
            f"(limit incl. reservations)"
        )

    print("\n== exported gauges (excerpt) ==")
    for line in broker.metrics.text().splitlines():
        if "tenant" in line and not line.startswith("#"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
