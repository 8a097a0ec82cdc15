"""Run one workload for a wall-time budget and report its metrics.

Untraced runs (``trace=False``) give the end-to-end metrics; traced
runs alternate untraced and traced episodes of the same inputs and
give the per-layer ledger.  Either way every episode's outputs are
checked, and all episodes of one run -- traced or not -- must produce
identical simulated outputs.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from .checks import reference_checks
from .ledger import Ledger
from .speed import SpeedGauge
from .workloads import Episode, make_workload, quantile

__all__ = ["END_TO_END", "PER_LAYER", "Report", "run_benchmark"]

#: (name, unit, better) of the end-to-end metrics, printed by untraced runs
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_wall_ms_p50", "ms", "lower"),
    ("job_wall_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better, what it should move) of the per-layer metrics,
#: printed by traced runs.  "moves" names the end-to-end metric and the
#: workload on which a change to that layer should show.  Values are
#: per episode; sim_s values are simulated seconds.
PER_LAYER = (
    ("simkernel.events", "count", "lower", "jobs_per_s on qpu-shared, federated"),
    ("simkernel.batches", "count", "lower", "jobs_per_s on qpu-shared, federated"),
    ("simkernel.self_s", "s", "lower", "jobs_per_s on qpu-shared, federated"),
    ("session.submit.calls", "count", "lower", "jobs_per_s on qpu-shared"),
    ("session.submit.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("session.status_per_job", "calls/job", "lower", "jobs_per_s on qpu-shared"),
    ("spec.validate.calls", "count", "lower", "jobs_per_s on qpu-shared, federated"),
    ("spec.validate.self_s", "s", "lower", "jobs_per_s on qpu-shared, federated"),
    ("sdk.ir_decode.calls", "count", "lower", "jobs_per_s on qpu-shared"),
    ("sdk.ir_decode.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("sdk.lower.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("daemon.http.requests", "count", "lower", "jobs_per_s on qpu-shared (count must not move)"),
    ("daemon.http.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("daemon.submit.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("daemon.queue_wait_s_p90", "sim_s", "lower", "none: simulated, must not move"),
    ("daemon.preempted", "count", "lower", "none: simulated, must not move"),
    ("daemon.failed", "count", "lower", "none: simulated, must not move"),
    ("scheduling.schedule.calls", "count", "lower", "jobs_per_s on qpu-shared"),
    ("scheduling.schedule.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("scheduling.pending_mean", "jobs", "lower", "jobs_per_s on qpu-shared"),
    ("qrmi.execute.calls", "count", "lower", "jobs_per_s on all workloads"),
    ("qrmi.execute.self_s", "s", "lower", "jobs_per_s on all workloads"),
    ("qpu.specs_check.calls", "count", "lower", "jobs_per_s on qpu-shared, federated"),
    ("qpu.specs_check.self_s", "s", "lower", "jobs_per_s on qpu-shared, federated"),
    ("qpu.ham_builds_per_job", "builds/job", "lower", "jobs_per_s on qpu-shared, federated"),
    ("qpu.busy_s", "sim_s", "lower", "none: simulated, must not move"),
    ("emulators.sv.calls", "count", "lower", "job_wall_ms_p50 on dev-loop; jobs_per_s on qpu-shared"),
    ("emulators.sv.self_s", "s", "lower", "job_wall_ms_p50 on dev-loop; jobs_per_s on qpu-shared"),
    ("emulators.mps.calls", "count", "lower", "job_wall_ms_p90 and jobs_per_s on dev-loop"),
    ("emulators.mps.self_s", "s", "lower", "job_wall_ms_p90 and jobs_per_s on dev-loop"),
    ("emulators.shots_per_s", "shots/s", "higher",
     "job_wall_ms_p50/p90 and jobs_per_s on dev-loop; jobs_per_s on qpu-shared"),
    ("federation.submit.self_s", "s", "lower", "jobs_per_s on federated"),
    ("federation.reconcile.calls", "count", "lower", "jobs_per_s on federated (count must not move)"),
    ("federation.reconcile.self_s", "s", "lower", "jobs_per_s on federated"),
    ("federation.registry.self_s", "s", "lower", "jobs_per_s on federated"),
    ("federation.bus.published", "count", "lower", "jobs_per_s on federated (count must not move)"),
    ("federation.bus.self_s", "s", "lower", "jobs_per_s on federated"),
    ("federation.resize_events", "count", "lower", "none: simulated, must not move"),
    ("federation.reroutes", "count", "lower", "none: simulated, must not move"),
    ("accounting.meter.calls", "count", "lower", "jobs_per_s on federated (count must not move)"),
    ("accounting.meter.self_s", "s", "lower", "jobs_per_s on federated"),
    ("observability.tsdb.writes", "count", "lower", "jobs_per_s on qpu-shared"),
    ("observability.tsdb.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("observability.scrape.self_s", "s", "lower", "jobs_per_s on qpu-shared"),
    ("sim.qpu_util", "ratio", "higher", "none: simulated, must not move"),
    ("sim.turnaround_s_p50", "sim_s", "lower", "none: simulated, must not move"),
    ("sim.turnaround_s_p90", "sim_s", "lower", "none: simulated, must not move"),
    ("sim.prod_wait_s_p90", "sim_s", "lower", "none: simulated, must not move"),
    ("sim.makespan_s", "sim_s", "lower", "none: simulated, must not move"),
    ("trace.overhead", "ratio", "lower", "none: cost of tracing (traced wall / untraced wall)"),
    ("trace.unattributed_frac", "ratio", "lower", "none: wall time no layer span covers; target < 0.10"),
)

MIN_EPISODES = 2   # the determinism check needs a same-seed replay
MIN_SETUPS = 3     # setup_s is a median of at least this many builds


@dataclass
class Report:
    """The result line of one run plus the checks that fed it."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _completed(episode: Episode) -> int:
    return sum(1 for j in episode.jobs if j.finished is not None)


def _end_to_end(
    episodes: list[Episode], setups: list[float], peak_rss_kb: int
) -> dict[str, tuple[float, str]]:
    samples = [s for e in episodes for s in e.wall_ms_samples]
    jobs = sum(_completed(e) for e in episodes)
    work = sum(e.work_s for e in episodes)
    return {
        "setup_s": (float(statistics.median(setups)), "s"),
        "jobs_per_s": (jobs / work, "jobs/s"),
        "job_wall_ms_p50": (quantile(samples, 0.5), "ms"),
        "job_wall_ms_p90": (quantile(samples, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def _per_layer(
    ledger: Ledger, traced: list[Episode], untraced: list[Episode]
) -> dict[str, float]:
    k = len(traced)
    g = ledger.get
    jobs = sum(_completed(e) for e in traced) / k
    sv, mps = g("emulators.sv"), g("emulators.mps")
    executions = (sv.calls + mps.calls) / k
    schedule = g("scheduling.schedule")
    traced_wall = sum(e.wall_s for e in traced)
    facts = traced[0].layer
    sim = traced[0].sim
    per_ep = {
        "simkernel.events": g("simkernel.step_batch").counter,
        "simkernel.batches": g("simkernel.step_batch").calls,
        "simkernel.self_s": ledger.layer_self_s("simkernel"),
        "session.submit.calls": g("session.submit").calls,
        "session.submit.self_s": g("session.submit").self_s,
        "spec.validate.calls": g("spec.validate").calls,
        "spec.validate.self_s": g("spec.validate").self_s,
        "sdk.ir_decode.calls": g("sdk.ir_decode").calls,
        "sdk.ir_decode.self_s": g("sdk.ir_decode").self_s,
        "sdk.lower.self_s": g("sdk.lower").self_s,
        "daemon.http.requests": g("daemon.http").calls,
        "daemon.http.self_s": g("daemon.http").self_s,
        "daemon.submit.self_s": g("daemon.submit").self_s,
        "scheduling.schedule.calls": schedule.calls,
        "scheduling.schedule.self_s": schedule.self_s,
        "qrmi.execute.calls": g("qrmi.execute").calls,
        "qrmi.execute.self_s": g("qrmi.execute").self_s,
        "qpu.specs_check.calls": g("qpu.specs_check").calls,
        "qpu.specs_check.self_s": g("qpu.specs_check").self_s,
        "emulators.sv.calls": sv.calls,
        "emulators.sv.self_s": sv.self_s,
        "emulators.mps.calls": mps.calls,
        "emulators.mps.self_s": mps.self_s,
        "federation.submit.self_s": g("federation.submit").self_s,
        "federation.reconcile.calls": g("federation.reconcile").calls,
        "federation.reconcile.self_s": g("federation.reconcile").self_s,
        "federation.registry.self_s": g("federation.registry").self_s,
        "federation.bus.published": g("federation.bus_publish").calls,
        "federation.bus.self_s": ledger.self_s("federation.bus_publish", "federation.bus_flush"),
        "accounting.meter.calls": g("accounting.meter").calls,
        "accounting.meter.self_s": g("accounting.meter").self_s,
        "observability.tsdb.writes": g("observability.tsdb_write").calls,
        "observability.tsdb.self_s": ledger.self_s(
            "observability.tsdb_write", "observability.tsdb_write_many"
        ),
        "observability.scrape.self_s": g("observability.scrape").self_s,
    }
    out = {name: value / k for name, value in per_ep.items()}
    out["session.status_per_job"] = g("session.status").calls / k / jobs if jobs else 0.0
    out["scheduling.pending_mean"] = schedule.counter / schedule.calls if schedule.calls else 0.0
    out["qpu.ham_builds_per_job"] = g("qpu.hamiltonian").calls / k / executions if executions else 0.0
    busy = sv.total_s + mps.total_s
    out["emulators.shots_per_s"] = (sv.counter + mps.counter) / busy if busy else 0.0
    for name in ("daemon.queue_wait_s_p90", "daemon.preempted", "daemon.failed", "qpu.busy_s",
                 "federation.resize_events", "federation.reroutes"):
        out[name] = facts[name]
    for name, value in sim.items():
        out[f"sim.{name}"] = value
    untraced_work = statistics.median(e.work_s for e in untraced)
    out["trace.overhead"] = statistics.median(e.work_s for e in traced) / untraced_work
    out["trace.unattributed_frac"] = 1.0 - ledger.attributed_s() / traced_wall
    return out


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    spans_out: Path | None = None,
) -> Report:
    """Run ``workload`` episodes for ``seconds`` of wall time (at least
    :data:`MIN_EPISODES`), check every output and build the report."""
    bench = make_workload(workload, seed, size)
    gauge = SpeedGauge()
    start = perf_counter()
    setups: list[float] = []
    episodes: list[Episode] = []
    traced: list[Episode] = []
    untraced: list[Episode] = []
    ledger = Ledger()
    problems: list[str] = []
    digests: set[str] = set()

    def timed_setup():
        gc.collect()  # no collector debt from the last episode lands in set-up
        factor = gauge.factor()
        t0 = perf_counter()
        stack = bench.setup()
        setups.append((perf_counter() - t0) * factor)
        return stack

    while len(episodes) < MIN_EPISODES or perf_counter() - start < seconds:
        stack = timed_setup()
        if trace and len(episodes) % 2 == 1:
            with ledger.installed():
                episode = bench.run(stack, gauge, span=ledger.span)
            traced.append(episode)
        else:
            episode = bench.run(stack, gauge)
            untraced.append(episode)
        episodes.append(episode)
        problems.extend(episode.problems())
        digests.add(episode.digest())
        episode.release_counts()
        del stack
    while len(setups) < MIN_SETUPS:
        timed_setup()
    # the high-water mark of the workload itself, before the reference
    # checks allocate their large histograms
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = sum(len(e.jobs) for e in episodes) + 1  # every job, plus the replay check
    if len(digests) != 1:
        problems.append(f"same-seed episodes diverged: {len(digests)} distinct simulated outputs")
    for label, _, error in reference_checks(seed):
        attempted += 1
        if error is not None:
            problems.append(f"reference {label}: {error}")
    if trace:
        attempted += 1
        if not ledger.is_clean():
            problems.append("ledger left wrapped entry points behind")
    notes = [
        f"episodes={len(episodes)} jobs/episode={len(episodes[0].jobs)} "
        f"wall_ms samples={sum(len(e.wall_ms_samples) for e in untraced or episodes)} "
        f"setups={len(setups)}",
    ]
    if trace:
        values = _per_layer(ledger, traced, untraced)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        metrics = {name: (values[name], units[name]) for name, *_ in PER_LAYER}
        notes.extend(_span_table(ledger, len(traced)))
        if spans_out is not None:
            ledger.dump(spans_out)
            notes.append(f"spans written to {spans_out}")
    else:
        metrics = _end_to_end(episodes, setups, peak_rss_kb)
    return Report(
        metrics=metrics,
        attempted=attempted,
        failed=len(problems),
        problems=problems,
        notes=notes,
    )


def _span_table(ledger: Ledger, episodes: int) -> list[str]:
    """Per-span rows (per episode), largest self time first."""
    rows = [f"{'span':32s} {'calls':>10s} {'spans':>10s} {'self_s':>10s} {'total_s':>10s}"]
    for name, s in sorted(ledger.stats.items(), key=lambda kv: -kv[1].self_s):
        rows.append(
            f"{name:32s} {s.calls / episodes:10.1f} {s.spans / episodes:10.1f} "
            f"{s.self_s / episodes:10.4f} {s.total_s / episodes:10.4f}"
        )
    return rows
