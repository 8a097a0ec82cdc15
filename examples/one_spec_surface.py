#!/usr/bin/env python
"""One submission surface: a single JobSpec through every door.

The stack grew four ways to submit work — daemon REST, federation
broker, cloud gateway, batch scripts — each with its own kwargs and its
own poll loop.  This demo shows the consolidation:

1. declare ONE ``JobSpec`` (program + shots + tenant),
2. submit the same object through a ``Session`` to the local daemon,
   a two-site federation, and a cloud gateway,
3. render the equivalent ``#SBATCH`` batch script from the same spec,
4. wait push-style: lifecycle events wake the waiter, nobody polls.

Run:  PYTHONPATH=src python examples/one_spec_surface.py
"""

import numpy as np

from repro.cluster import render_jobscript
from repro.daemon import MiddlewareDaemon
from repro.daemon.cloud import CloudGateway
from repro.federation import FederatedSite, FederationBroker, SiteRegistry
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.simkernel import RngRegistry, Simulator
from repro.spec import JobSpec

# --- one clock, three backends ----------------------------------------------
sim = Simulator()
rng = RngRegistry(11)


def make_daemon(key):
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=rng.get(key),
    )
    return MiddlewareDaemon(
        sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
    )


local_daemon = make_daemon("laptop")

registry = SiteRegistry(heartbeat_expiry=60.0)
for name in ("alpine", "fjord"):
    registry.register(FederatedSite(name, make_daemon(name), max_queue_depth=6), now=0.0)
registry.start_heartbeats(sim, interval=15.0)
broker = FederationBroker(sim, registry)
broker.spawn_housekeeping(interval=15.0, evict_ttl=3600.0)

gateway = CloudGateway(make_daemon("cloud"))
api_key = gateway.provision_tenant("acme-quantum", shot_quota=1_000_000)

# --- the ONE spec ------------------------------------------------------------
program = (
    AnalogCircuit(Register.chain(3, spacing=6.0), name="bell-chain")
    .rx_global(np.pi / 2, duration=0.3)
    .measure_all()
    .transpile(shots=200)
)
# production class: the daemon runs it uncapped (the cloud door still
# enters at the tenant's own class -- the key is the identity there)
spec = JobSpec(
    program=program, shots=200, tenant="acme-quantum",
    priority_class="production",
)
print(f"spec: {spec.program.name!r}, shots={spec.resolved_shots()}, "
      f"tenant={spec.tenant!r}")

# --- a Session routes it; lifecycle events replace polling -------------------
session = Session(
    daemon=local_daemon,
    federation=broker,
    cloud=gateway,
    cloud_api_key=api_key,
    user="acme-quantum",
)
bus = session.attach_events()
bus.subscribe(
    lambda ev: print(f"  [event t={ev.time:7.1f}] {ev.kind:13s} {ev.job_id}"),
    kinds=("job_placed", "job_completed", "completed"),
)

for backend in ("daemon", "federation", "cloud"):
    handle = session.submit(spec, backend=backend)
    result = sim.run_until_process(sim.spawn(handle.wait()))
    print(f"[{backend:10s}] job={handle.job_id:12s} backend={result.backend:8s} "
          f"shots={result.shots} counts={dict(sorted(result.counts.items()))}")

# --- the same spec as a batch script ----------------------------------------
print("\nthe same spec as a cluster batch script:")
print(render_jobscript(spec, partition="prod"))
