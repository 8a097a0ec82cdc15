"""Experiment F2 + claim C1 — regenerate Figure 2 (architecture) and the
production-wait claim.

Figure 2 shows the full integration: users on classical nodes run
hybrid jobs through Slurm; the quantum access node's daemon mediates
multi-user access to the QPU with validation, prioritization and
scheduling; admins watch from the side.

The bench builds the *whole* picture — Slurm cluster with three
partitions (production/test/development), SPANK-injected QRMI config,
daemon with priority queue — runs a contended multi-user scenario, and
measures per-class waiting times under three policies:

* ``fifo``      — no second-level scheduling (every session the same
  class): the baseline an HPC site gets without this paper's daemon,
* ``shot-cap``  — the paper's initial implementation (§3.3),
* ``preempt``   — the paper's target design ("The production job should
  always be able to pre-empt running jobs of lower priority").

Shape claims (C1): production P50/P95 wait drops dramatically under
both daemon modes vs FIFO; preemption gives the lowest production wait;
development throughput pays the price (no free lunch).
"""

import numpy as np

from repro.analysis import format_table
from repro.daemon import SharingMode
from repro.daemon.queue import PriorityClass, ShotCapPolicy
from repro.qpu import Register
from repro.sdk import AnalogCircuit
from repro.simkernel import RngRegistry
from repro.spec import JobSpec

from .harness import build_stack

HORIZON = 4000.0


def burst_program(shots, name="burst"):
    return (
        AnalogCircuit(Register.chain(2, spacing=6.0), name=name)
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=shots)
    )


def run_scenario(policy: str, seed: int = 0):
    """Multi-user contention: 3 dev users submitting steadily, 1 test
    user, 1 production user submitting sporadically."""
    if policy == "fifo":
        stack = build_stack(
            shot_rate_hz=1.0,
            mode=SharingMode.SHOT_CAP,
            shot_cap=ShotCapPolicy(
                test_max_shots=10**9, dev_max_shots=10**9,
                disable_batching_below_production=False,
            ),
            seed=seed,
        )
        class_of = {"production": "development", "test": "development"}  # flatten
    elif policy == "shot-cap":
        stack = build_stack(
            shot_rate_hz=1.0,
            mode=SharingMode.SHOT_CAP,
            shot_cap=ShotCapPolicy(test_max_shots=120, dev_max_shots=60),
            seed=seed,
        )
        class_of = {}
    elif policy == "preempt":
        stack = build_stack(
            shot_rate_hz=1.0,
            mode=SharingMode.PREEMPT,
            shot_cap=ShotCapPolicy(
                test_max_shots=10**9, dev_max_shots=10**9,
                disable_batching_below_production=False,
            ),
            seed=seed,
        )
        class_of = {}
    else:
        raise ValueError(policy)

    rng = RngRegistry(seed).get("fig2-arrivals")

    def submitter(user, priority_class, mean_gap, shots, count):
        effective = class_of.get(priority_class, priority_class)
        client = stack.client_for(user, effective)
        program = burst_program(shots, name=f"{user}-task")

        def run():
            for _ in range(count):
                from repro.simkernel import Timeout

                yield Timeout(float(rng.exponential(mean_gap)))
                client.submit(JobSpec(program=program, resource="onprem", shots=shots))

        return run

    for i in range(3):
        stack.sim.spawn(
            submitter(f"dev-{i}", "development", mean_gap=300.0, shots=400, count=4)(),
            name=f"dev-{i}",
        )
    stack.sim.spawn(
        submitter("tester", "test", mean_gap=500.0, shots=300, count=3)(), name="tester"
    )
    stack.sim.spawn(
        submitter("operator", "production", mean_gap=600.0, shots=200, count=4)(),
        name="operator",
    )
    stack.sim.run(until=HORIZON)
    # let in-flight tasks finish
    stack.sim.run(until=HORIZON * 3)

    waits = stack.daemon.scheduler.wait_times_by_class()
    stats = {}
    for cls in ("production", "test", "development"):
        # under fifo everything was submitted as development; report the
        # production user's tasks via the queue table instead
        values = waits[cls]
        stats[cls] = values
    if policy == "fifo":
        # recover the operator's tasks for a fair comparison
        operator_waits = [
            t.wait_time()
            for t in stack.daemon.queue.all_tasks()
            if t.user == "operator" and t.wait_time() is not None
        ]
        stats["production"] = operator_waits
    return stack, stats


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def test_fig2_multiuser_priority_architecture(benchmark):
    def run_all():
        rows = []
        prod_p95 = {}
        completed = {}
        for policy in ("fifo", "shot-cap", "preempt"):
            stack, stats = run_scenario(policy)
            prod = stats["production"]
            rows.append(
                {
                    "policy": policy,
                    "prod_wait_p50": round(_percentile(prod, 50), 1),
                    "prod_wait_p95": round(_percentile(prod, 95), 1),
                    "prod_tasks": len(prod),
                    "preemptions": stack.daemon.scheduler.tasks_preempted,
                    "completed": stack.daemon.scheduler.tasks_completed,
                }
            )
            prod_p95[policy] = _percentile(prod, 95)
            completed[policy] = stack.daemon.scheduler.tasks_completed
        return rows, prod_p95, completed

    rows, prod_p95, completed = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n" + format_table(rows, title="Figure 2 — multi-user scheduling policies"))

    # C1: the daemon's priority layer keeps production waits low
    assert prod_p95["shot-cap"] < prod_p95["fifo"]
    assert prod_p95["preempt"] < prod_p95["fifo"]
    # preemption is the strongest guarantee
    assert prod_p95["preempt"] <= prod_p95["shot-cap"] + 1.0


def test_fig2_slurm_to_daemon_integration(benchmark):
    """The full Figure-2 path: Slurm partitions -> SPANK env injection ->
    daemon session priority derived from the partition -> QPU."""
    from repro.cluster import JobSpec as ClusterJobSpec
    from repro.cluster import Node, Partition, SlurmController
    from repro.config import DictConfig
    from repro.qrmi import QRMISpankPlugin
    from repro.runtime import RuntimeEnvironment

    def run():
        stack = build_stack(shot_rate_hz=10.0)
        site_config = DictConfig(
            {
                "QRMI_RESOURCES": "onprem",
                "QRMI_ONPREM_TYPE": "onprem-qpu",
                "QRMI_ONPREM_DEVICE": "fresnel-sim",
            }
        )
        nodes = [Node(f"n{i}", cpus=8) for i in range(2)]
        partitions = [
            Partition("production", nodes, priority_tier=2),
            Partition("development", nodes, priority_tier=0),
        ]
        ctl = SlurmController(stack.sim, nodes, partitions)
        ctl.spank.register(QRMISpankPlugin(site_config))
        outcomes = {}

        def hybrid_payload(ctx):
            # inside the job: the runtime reads SPANK-injected env vars
            assert ctx.env["QRMI_DEFAULT_RESOURCE"] == "onprem"
            env = RuntimeEnvironment.with_daemon(
                stack.daemon,
                user=ctx.job.spec.user,
                slurm_partition=ctx.env["SLURM_JOB_PARTITION"],
                slurm_job_id=int(ctx.env["SLURM_JOB_ID"]),
                default_resource="onprem",
            )
            result = yield from env.run_process(
                burst_program(100), shots=100
            )
            outcomes[ctx.job.spec.user] = result
            return result.counts

        for user, partition in (("alice", "production"), ("bob", "development")):
            ctl.submit(
                ClusterJobSpec(
                    name=f"{user}-hybrid",
                    user=user,
                    partition=partition,
                    qpu_resource="onprem",
                    payload=hybrid_payload,
                )
            )
        stack.sim.run()
        return ctl, stack, outcomes

    ctl, stack, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert set(outcomes) == {"alice", "bob"}
    # the daemon derived priority classes from Slurm partitions
    sessions = {s.user: s.priority_class for s in stack.daemon.sessions.active()}
    assert sessions["alice"] is PriorityClass.PRODUCTION
    assert sessions["bob"] is PriorityClass.DEVELOPMENT
    # accounting shows both Slurm jobs completed
    assert len(ctl.accounting.by_state("completed")) == 2
    print(
        "\nFigure 2 integration: Slurm->SPANK->daemon->QPU path verified; "
        f"sessions={ {u: c.name for u, c in sessions.items()} }"
    )
