#!/usr/bin/env python
"""The adaptive hybrid workflow of ``hybrid_workflow.py`` — federated.

Same science (cheap calibration probes estimate the Rabi miscalibration,
then an adiabatic sweep runs with a corrected pulse area), but the jobs
flow through a **two-site federation** instead of one local emulator:

* two independent HPC-QC sites, each a full daemon + QPU on a shared
  simulated clock,
* a sticky routing policy keeps every step of the iterative workflow on
  one site (one calibration context across the probe -> sweep chain),
* mid-demo the bound site *dies*; the second sweep fails over to the
  surviving site with the same session and no lost jobs.

Run:  PYTHONPATH=src python examples/federated_workflow.py
"""

import numpy as np

from repro.daemon import MiddlewareDaemon
from repro.federation import (
    FederatedSite,
    FederationBroker,
    SiteRegistry,
    StickyPolicy,
)
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.simkernel import RngRegistry, Simulator
from repro.spec import JobSpec

# --- the federation: two sites, one clock ------------------------------------
sim = Simulator()
rng = RngRegistry(7)
registry = SiteRegistry(heartbeat_expiry=60.0)
sites = {}
for name in ("alpine", "fjord"):
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=1.0, batch_overhead_s=0.0),
        rng=rng.get(f"dev-{name}"),
    )
    daemon = MiddlewareDaemon(
        sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=60.0
    )
    site = FederatedSite(name, daemon, max_queue_depth=6)
    registry.register(site, now=sim.now)
    sites[name] = site
registry.start_heartbeats(sim, interval=15.0)
broker = FederationBroker(sim, registry, policy=StickyPolicy())
broker.spawn_housekeeping(interval=15.0)
session = Session(federation=broker, user="workflow-user")

# --- the hybrid program pieces (identical to hybrid_workflow.py) --------------
probe_register = Register.chain(1)
target_register = Register.chain(6, spacing=6.0)


def probe(theta, name):
    return (
        AnalogCircuit(probe_register, name=name)
        .rx_global(theta, duration=0.4)
        .measure_all()
    )


def estimate_rabi_scale(probe_result):
    p_half = probe_result.expectation_occupation()[0]
    s = 2.0 * np.arcsin(np.sqrt(np.clip(p_half, 0.0, 1.0))) / (np.pi / 2)
    return float(np.clip(s, 0.5, 1.5))


def adaptive_sweep(scale, name):
    return (
        AnalogCircuit(target_register, name=name)
        .adiabatic_sweep(
            area=8.0 / scale, delta_start=-6.0, delta_stop=10.0, duration=4.0
        )
        .measure_all()
    )


report = {}


def workflow():
    """probe -> estimate -> corrected sweep, every quantum step brokered."""
    half = yield from session.submit(
        JobSpec(program=probe(np.pi / 2, "probe-half"), shots=400, affinity_key="adaptive")
    ).wait()
    scale = estimate_rabi_scale(half)
    sweep = yield from session.submit(
        JobSpec(program=adaptive_sweep(scale, "sweep-1"), shots=400, affinity_key="adaptive")
    ).wait()
    report["scale"] = scale
    report["first_sites"] = (
        half.metadata["federation_site"],
        sweep.metadata["federation_site"],
    )
    report["first_top"] = sweep.most_frequent()

    # the bound site goes dark mid-workflow...
    sites[sweep.metadata["federation_site"]].kill()

    # ...and the next iteration transparently lands on the survivor.
    sweep2 = yield from session.submit(
        JobSpec(program=adaptive_sweep(scale, "sweep-2"), shots=400, affinity_key="adaptive")
    ).wait()
    report["failover_site"] = sweep2.metadata["federation_site"]
    report["failover_top"] = sweep2.most_frequent()


proc = sim.spawn(workflow(), name="federated-workflow")
sim.run_until_process(proc)

site_a, site_b = report["first_sites"]
print(f"estimated Rabi scale     : {report['scale']:.3f}")
print(f"probe + sweep ran on     : {site_a}, {site_b} (sticky affinity)")
print(f"top state (first sweep)  : {report['first_top']}")
print(f"failover sweep ran on    : {report['failover_site']}")
print(f"top state (after failover): {report['failover_top']}")

assert site_a == site_b, "sticky affinity must keep the chain on one site"
assert report["failover_site"] != site_a, "failover must move to the survivor"
assert broker.stats()["by_state"]["failed"] == 0, "no job may be lost"
print("OK: one workflow, two sites, a mid-run outage — and zero lost jobs.")
