"""Ablation C4/D7 — malleable classical allocations (paper §2.4).

"Recent work shows that substantial improvements to resource
utilization is possible by allowing the application to dynamically grow
or shrink at run time, so-called malleable jobs" — motivated by SQD's
post-processing scaling (§2.4: parallelized up to 6400 Fugaku nodes).

Scenario: a batch of SQD-style jobs finish their (short) quantum
sampling at staggered times and enter classical post-processing of very
different sizes.  Compare:

* **rigid**     — every post-processing task pinned to an equal static
  share of the CPU pool (what non-malleable Slurm allocations give),
* **malleable** — the pool re-divides among live tasks as they finish.

Shape claims (ref [25]'s headline transplanted): malleable strictly
reduces makespan and raises mean classical utilization; the gain grows
with the imbalance of task sizes.

C4c extends the ablation one level up: *cross-site* malleability.  An
iterative hybrid job spreads its burst units over a 3-site federation;
mid-run one site degrades (throttled shot clock + a contention burst
from :func:`repro.workloads.contention_burst_trace`).  With the resize
loop on, the broker shrinks that site's share and the makespan beats
the rigid (static round-robin split) baseline.
"""

import os
from dataclasses import replace as dc_replace

from benchmarks.harness import build_federation_stack
from repro.analysis import format_table
from repro.scheduling import MalleablePool, MalleableTask
from repro.spec import JobSpec
from repro.workloads import StreamConfig, contention_burst_trace

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def make_tasks(sizes, serial_fraction=0.02):
    return [
        MalleableTask(
            f"sqd-post-{i}",
            work_cpu_seconds=float(size),
            serial_fraction=serial_fraction,
            max_cpus=64,
        )
        for i, size in enumerate(sizes)
    ]


def utilization(tasks, makespan, total_cpus):
    total_work = sum(t.work_cpu_seconds for t in tasks)
    return total_work / (makespan * total_cpus)


SCENARIOS = {
    "balanced": [4000.0] * 4,
    "skewed": [8000.0, 2000.0, 1000.0, 500.0],
    "extreme": [12000.0, 600.0, 300.0, 150.0],
}
POOL_CPUS = 64


def run_all():
    rows = []
    gains = {}
    for label, sizes in SCENARIOS.items():
        rigid = MalleablePool(POOL_CPUS, malleable=False).makespan(make_tasks(sizes))
        flexible = MalleablePool(POOL_CPUS, malleable=True).makespan(make_tasks(sizes))
        gain = rigid / flexible
        gains[label] = gain
        rows.append(
            {
                "scenario": label,
                "rigid_makespan_s": round(rigid, 1),
                "malleable_makespan_s": round(flexible, 1),
                "speedup": round(gain, 2),
                "rigid_util_%": round(100 * utilization(make_tasks(sizes), rigid, POOL_CPUS), 1),
                "malleable_util_%": round(
                    100 * utilization(make_tasks(sizes), flexible, POOL_CPUS), 1
                ),
            }
        )
    return rows, gains


def test_c4_malleability_recovers_utilization(benchmark):
    rows, gains = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n" + format_table(rows, title="C4 — malleable vs rigid post-processing (64-CPU pool)"))
    # malleable never loses
    for row in rows:
        assert row["malleable_makespan_s"] <= row["rigid_makespan_s"] + 1e-6
    # the gain grows with imbalance (the paper's motivation: heavy,
    # variable SQD post-processing)
    assert gains["skewed"] > gains["balanced"]
    assert gains["extreme"] > gains["skewed"]
    assert gains["extreme"] > 1.5


# -- C4c: cross-site malleability ------------------------------------------

#: iterative job size (burst units) and shots per unit — enough units
#: that plenty are still pending when the degradation hits (the resize
#: loop only moves *future* units; in-flight ones are preemption-safe)
FED_ITERS = 15 if SMOKE else 24
FED_SHOTS = 60
#: mid-run degradation instant: site-2's clock throttles 10x and the
#: contention burst starts arriving
DEGRADE_AT = 120.0
FED_HORIZON = (2 * 3600.0) if SMOKE else (4 * 3600.0)

#: identical contention for both modes — replayed from one trace
FED_TRACE = contention_burst_trace(
    config=StreamConfig(arrival_rate_per_hour=60.0, num_jobs=2 if SMOKE else 4),
    streams=1,
    burst_at=DEGRADE_AT,
    burst_jobs=3 if SMOKE else 8,
    burst_spacing_s=5.0,
    burst_shots=100,
    root_seed=23,
)


def run_federated_malleable(malleable: bool) -> dict:
    """One C4c run: 3-site federation, site-2 degrades at DEGRADE_AT."""
    from repro.federation import FederatedClient

    sim, registry, broker, sites = build_federation_stack(
        n_sites=3, shot_rate_hz=1.0, max_queue_depth=12
    )
    client = FederatedClient(broker, user="c4c")
    program = FED_TRACE.entries[0].to_job().quantum_circuit().transpile(
        shots=FED_SHOTS
    )
    job_id = client.submit_spec(
        JobSpec(program=program, iterations=FED_ITERS, shots=FED_SHOTS, malleable=malleable)
    )

    def degrade():
        device = sites["site-2"].daemon.resources["onprem"].device
        device.clock = dc_replace(device.clock, shot_rate_hz=0.1)

    sim.call_in(DEGRADE_AT, degrade)
    for arrival, job in FED_TRACE.jobs():
        burst_program = job.quantum_circuit().transpile(shots=job.shots_per_burst)

        def submit(program=burst_program, job=job):
            broker.submit_spec(JobSpec(program=program, shots=job.shots_per_burst, tenant=job.user))

        sim.call_in(arrival, submit)
    sim.run(until=FED_HORIZON)

    status = client.status(job_id)
    record = broker.job(job_id)
    # degradation-driven shrinks only — background arrivals also cause
    # benign rank-order reshuffles ("rank" reason) we don't count here
    shrinks = [
        e
        for e in record.resize.events
        if e.kind in ("shrink", "retire")
        and e.site == "site-2"
        and e.reason != "rank"
    ]
    return {
        "job_id": job_id,
        "state": status["state"],
        "makespan": (status["finished_at"] or FED_HORIZON) - status["submitted_at"],
        "completions_by_site": status["completions_by_site"],
        "site2_shrinks": len(shrinks),
        "first_shrink_at": min((e.time for e in shrinks), default=None),
    }


def run_c4c():
    return {
        "rigid": run_federated_malleable(False),
        "malleable": run_federated_malleable(True),
    }


def test_c4c_cross_site_malleability_beats_rigid(benchmark):
    """Acceptance: site-2 degrades mid-run; the resize loop shrinks its
    share and beats the no-malleability baseline on makespan."""
    out = benchmark.pedantic(run_c4c, rounds=1, iterations=1)
    rigid, flexible = out["rigid"], out["malleable"]
    table = [
        {
            "scenario": name,
            "makespan_s": round(r["makespan"], 1),
            "site2_units": r["completions_by_site"].get("site-2", 0),
            "site2_shrinks": r["site2_shrinks"],
        }
        for name, r in out.items()
    ]
    print("\n" + format_table(table, title="C4c — cross-site malleable vs rigid (site-2 degrades)"))
    assert rigid["state"] == flexible["state"] == "completed"
    # the broker visibly shrank the degraded site's share...
    assert flexible["site2_shrinks"] >= 1
    assert flexible["first_shrink_at"] >= DEGRADE_AT
    # ...shifted the remaining units away from it...
    assert (
        flexible["completions_by_site"].get("site-2", 0)
        < rigid["completions_by_site"].get("site-2", 0)
    )
    # ...and the makespan win is decisive, not marginal
    assert flexible["makespan"] < 0.8 * rigid["makespan"]


def test_c4_serial_fraction_limits_gains(benchmark):
    """Amdahl check: highly-serial post-processing cannot benefit."""

    def run():
        sizes = [8000.0, 2000.0, 1000.0, 500.0]
        out = {}
        for serial in (0.0, 0.5):
            rigid = MalleablePool(POOL_CPUS, malleable=False).makespan(
                make_tasks(sizes, serial_fraction=serial)
            )
            flexible = MalleablePool(POOL_CPUS, malleable=True).makespan(
                make_tasks(sizes, serial_fraction=serial)
            )
            out[serial] = rigid / flexible
        return out

    gains = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nC4b — speedup at serial=0: {gains[0.0]:.2f}, serial=0.5: {gains[0.5]:.2f}")
    assert gains[0.0] > gains[0.5]
