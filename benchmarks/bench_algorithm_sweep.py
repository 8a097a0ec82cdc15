"""Bench C7 — the pluggable scheduling-algorithm sweep.

The Wagomu suite's core experiment: one saturated mixed workload,
every registered algorithm replayed over it through one driver
(:func:`repro.scheduling.algorithms.simulate`), one comparison table.
Two claims gate:

* **EASY wins** — on a backfill-friendly trace (wide blocked heads over
  a pool that keeps draining), ``easy-backfill`` strictly beats
  ``fifo-priority`` on makespan and utilization,
* **elastic wins** — on a malleable trace, ``agreement-elastic``
  resizing beats the rigid fixed-width baseline.

Alongside the sweep, three **legacy-loop values** rerun the production
loops end to end: the daemon queue drain and the broker routing through
their algorithm adapters, and one cluster planning pass.  Their gated
values pin those loops — a drift there means scheduling behavior
changed, not just this bench.
"""

import os
import random

from repro.analysis import format_table
from repro.scheduling.algorithms import SimJob, available, get_algorithm, simulate
from repro.spec import JobSpec

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: capacity of the single sweep pool (integer units)
POOL = {"pool": 8}


def saturated_trace(n_jobs=None, seed=7):
    """Mixed rigid workload: a drizzle of short narrow jobs around
    periodic wide long-runners — the shape that starves FIFO (head
    blocks, pool drains idle) and feeds EASY."""
    n_jobs = n_jobs if n_jobs is not None else (24 if SMOKE else 120)
    rng = random.Random(seed)
    jobs = []
    t = 0.0
    for i in range(n_jobs):
        t += rng.uniform(0.0, 2.0)
        if i % 5 == 4:
            units, runtime = rng.choice([6, 7, 8]), rng.uniform(20.0, 40.0)
        else:
            units, runtime = rng.choice([1, 1, 2, 3]), rng.uniform(1.0, 8.0)
        jobs.append(
            SimJob(
                job_id=f"j{i}",
                arrival=round(t, 3),
                units=units,
                runtime=round(runtime, 3),
                priority=rng.choice([0, 0, 1, 2]),
                tenant=f"t{i % 3}",
            )
        )
    return jobs


def elastic_trace(n_jobs=None, seed=11):
    """Malleable variant: the same arrival skeleton, every job resizable
    between 1 unit and its declared width."""
    jobs = []
    for job in saturated_trace(n_jobs, seed=seed):
        jobs.append(
            SimJob(
                job_id=job.job_id,
                arrival=job.arrival,
                units=job.units,
                runtime=job.runtime,
                priority=job.priority,
                tenant=job.tenant,
                malleable=True,
                min_units=1,
                max_units=min(8, job.units + 2),
            )
        )
    return jobs


def run_sweep():
    """Every registered algorithm over the rigid + elastic traces."""
    rigid = saturated_trace()
    elastic = elastic_trace()
    rows = []
    for name in available():
        trace = elastic if name == "agreement-elastic" else rigid
        report = simulate(get_algorithm(name), trace, POOL)
        rows.append(
            {
                "algorithm": name,
                "trace": "elastic" if trace is elastic else "rigid",
                "makespan_s": round(report.makespan, 3),
                "utilization": round(report.utilization, 4),
                "mean_wait_s": round(report.mean_wait, 3),
                "completed": report.completed,
                "backfills": report.backfills,
                "agreements": report.agreements,
            }
        )
    # the rigid baseline for the elastic claim: fifo over the malleable
    # trace never resizes, so every job runs at its declared width
    rigid_on_elastic = simulate(get_algorithm("fifo-priority"), elastic, POOL)
    rows.append(
        {
            "algorithm": "fifo-priority",
            "trace": "elastic",
            "makespan_s": round(rigid_on_elastic.makespan, 3),
            "utilization": round(rigid_on_elastic.utilization, 4),
            "mean_wait_s": round(rigid_on_elastic.mean_wait, 3),
            "completed": rigid_on_elastic.completed,
            "backfills": rigid_on_elastic.backfills,
            "agreements": rigid_on_elastic.agreements,
        }
    )
    return rows


# -- legacy loops ------------------------------------------------------------


def run_daemon_loop(n_jobs=None):
    """The re-routed daemon queue end to end: makespan of a mixed-class
    submission burst through ``FifoPriority`` selection."""
    from benchmarks.harness import build_stack

    n_jobs = n_jobs if n_jobs is not None else (12 if SMOKE else 40)
    stack = build_stack(shot_rate_hz=50.0, seed=3)
    client = stack.client_for("bench", priority_class="production")
    dev = stack.client_for("bench-dev", priority_class="development")
    for i in range(n_jobs):
        target = client if i % 3 else dev
        target.submit(JobSpec(program=_daemon_program(shots=20 + 5 * (i % 4)), resource="onprem"))
    stack.sim.run()
    return {"makespan": stack.sim.now, "completed": n_jobs}


def _daemon_program(shots):
    from repro.qpu import ConstantWaveform, Register
    from repro.sdk import Pulse, Sequence

    seq = Sequence(Register.chain(2, spacing=6.0), name="c7-daemon")
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


def run_cluster_loop(n_jobs=None, seed=5):
    """The cluster planner: planned starts + backfills over one
    randomized pending set."""
    from repro.cluster import Job, LicensePool, Node, Partition
    from repro.cluster import JobSpec as ClusterJobSpec
    from repro.cluster.scheduler import Scheduler

    n_jobs = n_jobs if n_jobs is not None else (20 if SMOKE else 80)
    rng = random.Random(seed)
    partitions = {
        "batch": Partition("batch", [Node(f"b{i}", cpus=8) for i in range(4)]),
    }
    licenses = LicensePool({"qpu_share": 16})
    pending = [
        Job(
            i,
            ClusterJobSpec(
                name=f"c{i}",
                cpus=rng.choice([1, 2, 4, 8]),
                duration=rng.uniform(5.0, 40.0),
                time_limit=100.0,
                partition="batch",
                priority=rng.randint(0, 5),
            ),
            submit_time=float(i),
        )
        for i in range(n_jobs)
    ]
    decision = Scheduler().plan(pending, [], partitions, licenses, now=float(n_jobs))
    return {
        "starts": len(decision.starts),
        "backfilled": len(decision.backfilled),
    }


def run_broker_loop(n_jobs=None):
    """The re-routed federation broker: makespan of a fixed-job burst
    through the ``PolicyRouting`` adapter."""
    import numpy as np

    from benchmarks.harness import build_federation_stack
    from repro.qpu import Register
    from repro.sdk import AnalogCircuit

    n_jobs = n_jobs if n_jobs is not None else (10 if SMOKE else 30)
    sim, registry, broker, sites = build_federation_stack(
        n_sites=3, shot_rate_hz=20.0, seed=9
    )
    for i in range(n_jobs):
        program = (
            AnalogCircuit(Register.chain(3, spacing=6.0), name=f"c7-fed-{i}")
            .rx_global(np.pi / 2, duration=0.3)
            .measure_all()
            .transpile(shots=40 + 10 * (i % 3))
        )
        broker.submit_spec(JobSpec(program=program))
    # heartbeats/housekeeping tick forever: step until the burst drains
    # (5 s granularity keeps the makespan deterministic)
    while broker.stats()["by_state"]["completed"] < n_jobs and sim.now < 50_000.0:
        sim.run(until=sim.now + 5.0)
    return {
        "makespan": sim.now,
        "completed": broker.stats()["by_state"]["completed"],
    }


# -- pytest entry points -----------------------------------------------------


def test_sweep_easy_beats_fifo_and_elastic_beats_rigid(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print("\n" + format_table(rows, title="C7 — scheduling-algorithm sweep"))
    by_key = {(r["algorithm"], r["trace"]): r for r in rows}
    fifo = by_key[("fifo-priority", "rigid")]
    easy = by_key[("easy-backfill", "rigid")]
    n_jobs = fifo["completed"]
    for row in rows:
        assert row["completed"] == n_jobs, f"{row['algorithm']} lost jobs"
    # EASY strictly beats strict FIFO on the backfill-friendly trace
    assert easy["makespan_s"] < fifo["makespan_s"]
    assert easy["utilization"] > fifo["utilization"]
    assert easy["backfills"] > 0
    # elastic resizing beats the rigid split of the same malleable trace
    rigid_elastic = by_key[("fifo-priority", "elastic")]
    agreement = by_key[("agreement-elastic", "elastic")]
    assert agreement["makespan_s"] < rigid_elastic["makespan_s"]
    assert agreement["agreements"] > 0


def test_legacy_loops_still_schedule(benchmark):
    def run():
        return {
            "daemon": run_daemon_loop(),
            "cluster": run_cluster_loop(),
            "broker": run_broker_loop(),
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert out["daemon"]["completed"] > 0
    assert out["cluster"]["starts"] > 0
    assert out["broker"]["completed"] == (10 if SMOKE else 30)


def main():
    rows = run_sweep()
    print(format_table(rows, title="C7 — scheduling-algorithm sweep"))
    legacy = {
        "daemon": run_daemon_loop(),
        "cluster": run_cluster_loop(),
        "broker": run_broker_loop(),
    }
    table = [
        {"loop": "daemon", "makespan_s": round(legacy["daemon"]["makespan"], 3)},
        {"loop": "cluster", "makespan_s": float(legacy["cluster"]["starts"])},
        {"loop": "broker", "makespan_s": round(legacy["broker"]["makespan"], 3)},
    ]
    print(format_table(table, title="C7 — legacy loops through the adapters"))


if __name__ == "__main__":
    main()
