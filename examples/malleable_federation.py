"""Cross-site malleability: broker-driven shrink/grow of a federated job.

A 3-site federation runs one iterative hybrid job of 24 burst units.
Mid-run, site-2 degrades (its shot clock throttles 10x — the realistic
shape of a device entering recalibration).  Watch the broker's resize
loop shrink site-2's share, pull back its queued units, and re-divide
the remainder over the healthy sites — then compare against the rigid
baseline that pins a static third of the units to every site.

Run:  PYTHONPATH=src python examples/malleable_federation.py
"""

from dataclasses import replace

import numpy as np

from repro.daemon import MiddlewareDaemon
from repro.federation import FederatedClient, FederatedSite, FederationBroker, SiteRegistry
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.simkernel import RngRegistry, Simulator
from repro.spec import JobSpec

ITERATIONS = 24
SHOTS = 60
DEGRADE_AT = 120.0


def build_federation():
    sim = Simulator()
    rng = RngRegistry(7)
    registry = SiteRegistry(heartbeat_expiry=60.0)
    sites = {}
    for i in range(3):
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
            rng=rng.get(f"dev{i}"),
        )
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
        )
        site = FederatedSite(f"site-{i}", daemon, max_queue_depth=12)
        registry.register(site, now=0.0)
        sites[site.name] = site
    registry.start_heartbeats(sim, interval=15.0)
    broker = FederationBroker(sim, registry, max_attempts=4)
    broker.spawn_housekeeping(interval=15.0)
    return sim, broker, sites


def burst_program():
    register = Register.chain(4, spacing=6.0)
    return (
        AnalogCircuit(register, name="vqe-burst")
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=SHOTS)
    )


def run_once(malleable: bool) -> dict:
    sim, broker, sites = build_federation()
    client = FederatedClient(broker, user="demo")
    job_id = client.submit_spec(
        JobSpec(program=burst_program(), iterations=ITERATIONS, shots=SHOTS, malleable=malleable)
    )

    def degrade():
        device = sites["site-2"].daemon.resources["onprem"].device
        device.clock = replace(device.clock, shot_rate_hz=0.1)

    sim.call_in(DEGRADE_AT, degrade)
    sim.run(until=4 * 3600.0)
    job = broker.job(job_id)
    return {
        "status": client.status(job_id),
        "result": client.result(job_id),
        "events": job.resize.events,
    }


def main():
    flexible = run_once(malleable=True)
    rigid = run_once(malleable=False)

    print("=== resize timeline (malleable run) ===")
    for event in flexible["events"]:
        if event.reason == "rank":
            continue  # routine rank reshuffles; show the story beats
        print(
            f"  t={event.time:7.1f}s  {event.kind:<7} {event.site}  "
            f"{event.weight_before:.2f} -> {event.weight_after:.2f}  ({event.reason})"
        )

    for label, out in (("malleable", flexible), ("rigid", rigid)):
        status = out["status"]
        makespan = status["finished_at"] - status["submitted_at"]
        print(f"\n=== {label} ===")
        print(f"  state       : {status['state']}")
        print(f"  makespan    : {makespan:.0f} s")
        print(f"  units/site  : {status['completions_by_site']}")
        print(f"  merged shots: {out['result'].shots}")

    flex_span = flexible["status"]["finished_at"]
    rigid_span = rigid["status"]["finished_at"]
    print(f"\nspeedup from cross-site malleability: {rigid_span / flex_span:.2f}x")


if __name__ == "__main__":
    main()
