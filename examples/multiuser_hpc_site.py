#!/usr/bin/env python
"""A full HPC site day: Figure 2 end to end.

Builds the whole architecture of the paper's Figure 2 and runs a
simulated multi-user morning:

* a 4-node cluster with production/test/development Slurm partitions,
* the quantum access node: one QPU + the middleware daemon (priority
  queue, sessions, REST API),
* the QRMI SPANK plugin translating ``--qpu=onprem`` into job env vars,
* three users: an operator running production jobs, a researcher doing
  test runs, a student iterating on a development workflow,
* an admin watching the observability stack (dashboard + alerts) and
  running QA checks.

Run:  python examples/multiuser_hpc_site.py
"""

import numpy as np

from repro.analysis import format_table
from repro.cluster import JobSpec, Node, Partition, SlurmController
from repro.config import DictConfig
from repro.daemon import MiddlewareDaemon, SharingMode, build_router
from repro.daemon.queue import ShotCapPolicy
from repro.observability import Dashboard
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource, QRMISpankPlugin
from repro.runtime import DaemonClient, RuntimeEnvironment
from repro.sdk import AnalogCircuit
from repro.simkernel import RngRegistry, Simulator, Timeout

rng = RngRegistry(42)
sim = Simulator()

# --- quantum access node -----------------------------------------------------
device = QPUDevice(
    clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=2.0),
    rng=rng.get("device"),
)
daemon = MiddlewareDaemon(
    sim,
    {"onprem": OnPremQPUResource("onprem", device)},
    mode=SharingMode.PREEMPT,
    shot_cap=ShotCapPolicy(test_max_shots=200, dev_max_shots=60),
    scrape_interval=30.0,
)
router = build_router(daemon)

# --- classical cluster -------------------------------------------------------
nodes = [Node(f"node{i:02d}", cpus=32) for i in range(4)]
# generous limits: development jobs queue behind everything at the QPU
# and must not hit the wall clock while waiting
partitions = [
    Partition("production", nodes, priority_tier=2, default_time_limit=4 * 3600.0),
    Partition("test", nodes, priority_tier=1, default_time_limit=6 * 3600.0),
    Partition("development", nodes, priority_tier=0, default_time_limit=8 * 3600.0),
]
site_config = DictConfig(
    {
        "QRMI_RESOURCES": "onprem",
        "QRMI_ONPREM_TYPE": "onprem-qpu",
        "QRMI_ONPREM_DEVICE": "fresnel-sim",
    }
)
slurm = SlurmController(sim, nodes, partitions)
slurm.spank.register(QRMISpankPlugin(site_config))


def hybrid_job(iterations, shots, classical_seconds):
    """A hybrid payload: QPU bursts through the daemon + classical compute."""

    def payload(ctx):
        env = RuntimeEnvironment.with_daemon(
            daemon,
            user=ctx.job.spec.user,
            slurm_partition=ctx.env["SLURM_JOB_PARTITION"],
            slurm_job_id=int(ctx.env["SLURM_JOB_ID"]),
            default_resource="onprem",
        )
        circuit = (
            AnalogCircuit(Register.chain(4, spacing=6.0), name=ctx.job.spec.name)
            .rx_global(np.pi / 2, duration=0.3)
            .measure_all()
        )
        energies = []
        for _ in range(iterations):
            result = yield from env.run_process(circuit, shots=shots)
            occ = result.expectation_occupation()
            energies.append(float(occ.mean()))
            yield Timeout(classical_seconds)
        return {"mean_occupation": float(np.mean(energies)), "iterations": iterations}

    return payload


# --- the morning's workload ---------------------------------------------------
def submit_all():
    arrivals = rng.get("arrivals")

    def submit_later(delay, spec):
        sim.call_in(delay, lambda: slurm.submit(spec))

    # operator: two production campaigns
    for i in range(2):
        submit_later(
            float(arrivals.exponential(600.0)),
            JobSpec(
                name=f"prod-campaign-{i}",
                user="operator",
                partition="production",
                qpu_resource="onprem",
                payload=hybrid_job(iterations=3, shots=150, classical_seconds=30.0),
            ),
        )
    # researcher: test runs
    for i in range(3):
        submit_later(
            float(arrivals.exponential(400.0)),
            JobSpec(
                name=f"test-run-{i}",
                user="researcher",
                partition="test",
                qpu_resource="onprem",
                payload=hybrid_job(iterations=2, shots=400, classical_seconds=60.0),
            ),
        )
    # student: many small development iterations
    for i in range(5):
        submit_later(
            float(arrivals.exponential(200.0)),
            JobSpec(
                name=f"dev-iter-{i}",
                user="student",
                partition="development",
                qpu_resource="onprem",
                payload=hybrid_job(iterations=2, shots=500, classical_seconds=10.0),
            ),
        )


submit_all()
sim.run(until=3 * 3600.0)
sim.run()  # drain

# --- the site report ------------------------------------------------------------
print("=== Slurm accounting (sacct) ===")
rows = [
    {
        "job": r.name,
        "user": r.user,
        "partition": r.partition,
        "state": r.state,
        "wait_s": round(r.wait_time or 0, 1),
        "run_s": round(r.run_time or 0, 1),
    }
    for r in slurm.accounting.all()
]
print(format_table(rows))

print("\n=== daemon queue statistics ===")
stats = daemon.admin_ops.queue_stats()
print(f"completed={stats['completed']}  preempted={stats['preempted']}")
for cls, wait in stats["mean_wait_by_class"].items():
    shown = "n/a" if wait is None else f"{wait:.1f}s"
    print(f"  mean QPU-queue wait [{cls:12s}] {shown}")

print("\n=== observability ===")
dash = Dashboard.qpu_overview("onprem")
print(dash.render_text(daemon.tsdb, now=sim.now))
admin = DaemonClient(router, token=daemon.admin_token)
qa = admin._call("POST", "/admin/devices/onprem/qa").body
print(f"\nQA reference check: score={qa['score']:.3f} passed={qa['passed']}")

prod_wait = stats["mean_wait_by_class"]["production"] or 0.0
dev_wait = stats["mean_wait_by_class"]["development"] or 0.0
assert prod_wait <= dev_wait, "priority inversion!"
print("\nOK: production QPU-queue waits stayed at or below development waits.")
