"""Experiment F4 — multi-site federation routing (smoke benchmark).

Three scenarios on a 3-site synthetic trace
(:func:`repro.workloads.multi_site_trace` — an overlay of per-tenant
Poisson streams heavy enough to saturate any single site):

1. **absorption** — per-policy makespan on the 3-site federation vs.
   the same trace forced through one site: the federation absorbs what
   a single site cannot,
2. **drift-heavy** — one site runs degraded (drifted calibration and a
   throttled shot clock, the realistic pairing: degraded devices spend
   duty cycle on recalibration): calibration-aware routing must beat
   round-robin's blind 1/N assignment on makespan,
3. **failover** — a site dies mid-run: zero jobs lost, every result
   retrieved through the :class:`~repro.federation.FederatedClient`.
"""

import os

from repro.analysis import format_table
from repro.daemon import MiddlewareDaemon
from repro.federation import (
    CalibrationAwarePolicy,
    FederatedClient,
    FederationBroker,
    FederatedSite,
    JobState,
    LeastQueuePolicy,
    RoundRobinPolicy,
    SiteRegistry,
    StickyPolicy,
)
from repro.qpu import QPUDevice, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.scheduling import TransitionCollector
from repro.simkernel import RngRegistry, Simulator
from repro.spec import JobSpec
from repro.workloads import StreamConfig, multi_site_trace

#: BENCH_SMOKE=1 (the CI smoke step) shrinks the trace so the whole
#: module re-simulates in a couple of seconds; the shape assertions are
#: identical — only the statistics get coarser.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: aggregate stream: 3 tenant overlays, ~1 arrival/10 s, ~70 QPU-s/job —
#: roughly 7x what one 1 Hz site can clear in real time.
TRACE = multi_site_trace(
    streams=3,
    config=StreamConfig(
        arrival_rate_per_hour=120.0, num_jobs=3 if SMOKE else 8
    ),
    root_seed=11,
)

#: mid-run outage instant for the failover scenario: early enough that
#: work is still queued on the doomed site at either trace scale
KILL_AT = 150.0 if SMOKE else 400.0

#: simulated horizon: generous slack over the slowest scenario's
#: makespan (heartbeats tick the whole horizon, so smoke trims it)
HORIZON = (2 * 3600.0) if SMOKE else (16 * 3600.0)

POLICIES = {
    "round-robin": RoundRobinPolicy,
    "least-queue": LeastQueuePolicy,
    "calibration-aware": CalibrationAwarePolicy,
    "sticky": StickyPolicy,
}


def build_federation(n_sites=3, degraded_site=None, seed=0, policy=None):
    sim = Simulator()
    rng = RngRegistry(seed)
    registry = SiteRegistry(heartbeat_expiry=60.0)
    sites = {}
    for i in range(n_sites):
        name = f"site-{i}"
        degraded = name == degraded_site
        device = QPUDevice(
            clock=ShotClock(
                shot_rate_hz=0.25 if degraded else 1.0,
                setup_overhead_s=0.0,
                batch_overhead_s=0.0,
            ),
            rng=rng.get(f"dev{i}"),
        )
        if degraded:
            device.calibration.state_prep_error = 0.06
            device.calibration.rabi_calibration_error = 0.08
            device.calibration.t2_us = 20.0
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
        )
        site = FederatedSite(name, daemon, max_queue_depth=50)
        registry.register(site, now=0.0)
        sites[name] = site
    registry.start_heartbeats(sim, interval=15.0)
    broker = FederationBroker(sim, registry, policy=policy, max_attempts=4)
    broker.spawn_housekeeping(interval=15.0)
    return sim, registry, broker, sites


def drive_trace(sim, client, trace):
    """Replay the arrival trace into the federation; returns job-id list."""
    ids = []
    for arrival, job in trace.jobs():
        program = job.quantum_circuit().transpile(shots=job.shots_per_burst)

        def submit(program=program, job=job):
            ids.append(
                client.submit_spec(JobSpec(program=program, shots=job.shots_per_burst, affinity_key=job.user))
            )

        sim.call_in(arrival, submit)
    return ids


def federation_makespan(transitions):
    """Last completed task minus first queued task, over the sites
    whose :class:`~repro.scheduling.TransitionCollector` is given."""
    starts = [t.first_queued for t in transitions if t.first_queued is not None]
    ends = [t.last_completed for t in transitions if t.last_completed is not None]
    return (max(ends) - min(starts)) if starts and ends else float("inf")


def run_policy(policy_name, n_sites=3, degraded_site=None, kill=None):
    sim, registry, broker, sites = build_federation(
        n_sites=n_sites, degraded_site=degraded_site, policy=POLICIES[policy_name]()
    )
    transitions = [TransitionCollector(site.daemon) for site in sites.values()]
    client = FederatedClient(broker, user="bench")
    ids = drive_trace(sim, client, TRACE)
    if kill is not None:
        sim.call_in(kill, sites[f"site-{n_sites - 1}"].kill)
    sim.run(until=HORIZON)
    jobs = [broker.job(i) for i in ids]
    return {
        "sim": sim,
        "broker": broker,
        "client": client,
        "sites": sites,
        "ids": ids,
        "completed": sum(1 for j in jobs if j.state is JobState.COMPLETED),
        "makespan": federation_makespan(transitions),
        "reroutes": broker.stats()["reroutes"],
    }


def test_federation_absorbs_single_site_saturation(benchmark):
    """Per-policy makespan on 3 sites; 1-site baseline for scale."""

    def run():
        rows = []
        baseline = run_policy("least-queue", n_sites=1)
        rows.append(("single-site", baseline))
        for name in POLICIES:
            rows.append((name, run_policy(name)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = [
        {
            "scenario": name,
            "makespan_s": round(out["makespan"], 1),
            "completed": out["completed"],
            "reroutes": out["reroutes"],
        }
        for name, out in rows
    ]
    print("\n" + format_table(table, title="F4a — 3-site federation vs. saturation"))
    baseline = rows[0][1]
    assert baseline["completed"] == len(TRACE)
    for name, out in rows[1:]:
        assert out["completed"] == len(TRACE), f"{name} lost jobs"
        # any federation policy beats the saturated single site decisively
        assert out["makespan"] < 0.6 * baseline["makespan"], name


def test_calibration_aware_beats_round_robin_under_drift(benchmark):
    """Drift-heavy scenario: site-2 degraded + throttled."""

    def run():
        return {
            name: run_policy(name, degraded_site="site-2")
            for name in ("round-robin", "calibration-aware")
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    table = [
        {
            "scenario": name,
            "makespan_s": round(r["makespan"], 1),
            "completed": r["completed"],
        }
        for name, r in out.items()
    ]
    print("\n" + format_table(table, title="F4b — drift-heavy routing"))
    rr, ca = out["round-robin"], out["calibration-aware"]
    assert ca["completed"] == rr["completed"] == len(TRACE)
    assert ca["makespan"] < rr["makespan"], (
        "calibration-aware must avoid the drifted site"
    )


def test_mid_run_site_kill_loses_zero_jobs(benchmark):
    """Failover: site-2 dies at t=400 s with work queued on it."""

    def run():
        return run_policy("round-robin", kill=KILL_AT)

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nF4c — kill site-2 @{KILL_AT:.0f}s: completed={out['completed']}/{len(TRACE)} "
        f"reroutes={out['reroutes']} makespan={out['makespan']:.0f}s"
    )
    assert out["completed"] == len(TRACE), "zero jobs may be lost"
    assert out["reroutes"] >= 1, "the kill must actually strand work"
    # every result is retrievable through the federated client, and every
    # job the outage stranded finished on a surviving site
    for job_id in out["ids"]:
        result = out["client"].result(job_id)
        assert sum(result.counts.values()) == result.shots
        job = out["broker"].job(job_id)
        if job.attempts > 1:
            assert job.current.site != "site-2"
