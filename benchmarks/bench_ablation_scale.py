"""Ablation C6 — broker hot-path scale (10k-job arrival sweep).

The federation's housekeeping tick is a hot path: reconcile runs every
few seconds for the lifetime of the broker, so its cost must track
*live* work, not the ever-growing completed-job history.  This bench
drives a 10,000-job arrival sweep (plus a malleable mix) over an
8-site federation and instruments every reconcile:

* **scanned per tick** — how many jobs the sweep actually touched
  (live + held, fixed + malleable).  Deterministic (pure DES), so the
  CI regression gate can pin it: before the indexed job tables this was
  the total submission count and grew without bound; now it follows the
  in-flight population,
* **tick wall latency** — mean/p95/max wall-clock per reconcile, plus
  *self-calibrated* p50/p95/p99 ratios: each percentile divided by the
  wall cost of a fixed pure-python probe loop measured on the same
  machine.  The ratios survive a runner-hardware change, so CI can gate
  them where raw milliseconds would be weather,
* **per-phase tick profile** — the held/fixed/malleable/observe wall
  split from ``broker.last_reconcile`` and the per-step cost of the
  simulation kernel itself (``sim.enable_profiling``),
* **instrumentation overhead** — the sweep runs in three flavors:
  ``plain`` (the push-tracking broker alone, the gated baseline),
  ``traced`` (full span pipeline), and ``profiled`` (continuous scope
  profiler + phase-profile store + SLO tracker).  Scheduling is
  bit-identical across all three — the DES outputs must not move — and
  ``traced``/``profiled`` wall time over ``plain`` is the advertised
  instrumentation overhead.

``python -m benchmarks.bench_ablation_scale`` prints the table;
``--profile out.prof`` additionally runs the sweep under cProfile and
dumps the stats for offline inspection; ``--trace-out out.json`` runs
a traced sweep and writes the JSON trace export (per-stage simulated
means + one complete sample span tree, wall fields stripped so the
artifact diffs cleanly between runs); ``--profile-report out.txt`` and
``--slo-out out.json`` run one profiled sweep and write the top-N +
flame report and the SLO/phase-profile summary.  CI uploads all of
these as artifacts.
"""

import os
import time

import numpy as np

from benchmarks.harness import _python_probe, build_federation_stack
from repro.analysis import format_table
from repro.qpu import Register
from repro.sdk import AnalogCircuit
from repro.simkernel import Timeout
from repro.spec import JobSpec

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: fixed-size arrival sweep: ~20 jobs/s against ~320 jobs/s of
#: federation capacity, so the live population stays small while the
#: *completed* population grows to N — exactly the regime where an
#: O(history) tick would drown and an O(live) tick stays flat
N_JOBS = 800 if SMOKE else 10_000
ARRIVAL_SPACING_S = 0.05
#: malleable mix riding the same sweep (units spread over all sites)
N_MALLEABLE = 4 if SMOKE else 12
MALLEABLE_UNITS = 10 if SMOKE else 25
SHOTS = 5
N_SITES = 8
TICK_INTERVAL_S = 15.0
HORIZON_S = N_JOBS * ARRIVAL_SPACING_S + 300.0

#: every span a traced fixed-size federated job must produce
TRACE_STAGES = (
    "job", "admission", "placement", "queue-wait",
    "execute", "dispatch", "result-fetch",
)

#: the DES outputs that must be bit-identical across all flavors
DETERMINISTIC_KEYS = (
    "completed", "failed", "ticks", "scanned_per_tick_mean",
    "scanned_per_tick_max", "scanned_final_tick", "drained_scanned",
)

#: hot-path scopes a profiled C6 sweep must observe
PROFILE_SCOPES = (
    "sim.step", "broker.reconcile", "malleable.tick",
    "scheduler.select", "algorithm.schedule", "tsdb.flush",
)


def _program():
    return (
        AnalogCircuit(Register.chain(2, spacing=6.0), name="c6-unit")
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=SHOTS)
    )


def _probe_ms() -> float:
    """Wall cost of a fixed pure-python workload on *this* machine.

    Dividing tick latencies by this turns them into machine-independent
    ratios: a faster runner shrinks numerator and denominator together.
    Minimum of five repeats, so a scheduler hiccup during calibration
    cannot inflate every gated ratio of the run.
    """
    probe = _python_probe(50_000)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run_c6(traced: str = "plain", _capture: dict | None = None) -> dict:
    """One instrumented sweep; returns the tick-cost metrics.

    ``traced`` selects the observability flavor: ``"plain"`` (the
    broker's own lifecycle bus only), ``"traced"`` (full span
    pipeline), or ``"profiled"`` (scope profiler + phase-profile store
    + SLO tracker).  ``_capture``, when given, receives the
    tracer/profiler/profiles/slo and the submitted job ids for
    test/export introspection.
    """
    if traced not in ("plain", "traced", "profiled"):
        raise ValueError(f"unknown C6 flavor {traced!r}")
    sim, registry, broker, sites = build_federation_stack(
        n_sites=N_SITES,
        shot_rate_hz=200.0,
        max_queue_depth=64,
        heartbeat_interval=TICK_INTERVAL_S,
    )
    tracer = profiler = profiles = slo = None
    if traced == "traced":
        tracer = broker.attach_tracer()
    elif traced == "profiled":
        from repro.observability import Profiler, SLOTracker

        profiler = sim.profiler = Profiler()
        profiles = broker.attach_profiles()
        slo = SLOTracker()
        slo.attach_bus(broker.events)
    step_profile = sim.enable_profiling()
    # the bench owns the housekeeping loop (instead of
    # spawn_housekeeping) so it can time each reconcile individually
    ticks: list[tuple[float, float, float, tuple]] = []

    def housekeeping():
        while True:
            yield Timeout(TICK_INTERVAL_S)
            t0 = time.perf_counter()
            broker.reconcile()
            wall = time.perf_counter() - t0
            last = broker.last_reconcile
            ticks.append((
                sim.now,
                wall,
                last["jobs_scanned"] + last["malleable_scanned"],
                (last["held_s"], last["fixed_s"],
                 last["malleable_s"], last["observe_s"]),
            ))

    sim.spawn(housekeeping(), name="c6-housekeeping", background=True)

    program = _program()
    job_ids: list[str] = []
    for i in range(N_JOBS):
        def submit(owner=f"tenant-{i % 8}"):
            job_ids.append(broker.submit_spec(JobSpec(program=program, shots=SHOTS, tenant=owner)))

        sim.call_in(i * ARRIVAL_SPACING_S, submit)
    malleable_spacing = (N_JOBS * ARRIVAL_SPACING_S) / (N_MALLEABLE + 1)
    for i in range(N_MALLEABLE):
        def submit_multi(owner=f"tenant-m{i % 4}"):
            broker.submit_spec(
                JobSpec(program=program, iterations=MALLEABLE_UNITS, shots=SHOTS, tenant=owner)
            )

        sim.call_in((i + 1) * malleable_spacing, submit_multi)

    probe_ms = _probe_ms()
    wall_start = time.perf_counter()
    sim.run(until=HORIZON_S)
    total_wall = time.perf_counter() - wall_start

    # steady-state tick price once every job is terminal
    t0 = time.perf_counter()
    broker.reconcile()
    drained_tick_ms = (time.perf_counter() - t0) * 1e3
    drained_scanned = (
        broker.last_reconcile["jobs_scanned"]
        + broker.last_reconcile["malleable_scanned"]
    )

    stats = broker.stats()
    tick_wall_ms = np.asarray([w for _, w, _, _ in ticks]) * 1e3
    scanned = np.asarray([s for _, _, s, _ in ticks])
    phases_ms = np.asarray([p for _, _, _, p in ticks]) * 1e3
    out = {
        "jobs": N_JOBS,
        "malleable_jobs": N_MALLEABLE,
        "completed": stats["by_state"]["completed"],
        "failed": stats["by_state"]["failed"],
        "ticks": len(ticks),
        "scanned_per_tick_mean": float(scanned.mean()),
        "scanned_per_tick_max": float(scanned.max()),
        "scanned_final_tick": float(scanned[-1]),
        "drained_scanned": float(drained_scanned),
        "tick_ms_mean": float(tick_wall_ms.mean()),
        "tick_ms_p95": float(np.percentile(tick_wall_ms, 95)),
        "tick_ms_max": float(tick_wall_ms.max()),
        "drained_tick_ms": drained_tick_ms,
        "total_wall_s": total_wall,
        # self-calibrated latency ratios (gate-able across machines)
        "probe_ms": probe_ms,
        "latency_p50_ratio": float(np.percentile(tick_wall_ms, 50)) / probe_ms,
        "latency_p95_ratio": float(np.percentile(tick_wall_ms, 95)) / probe_ms,
        "latency_p99_ratio": float(np.percentile(tick_wall_ms, 99)) / probe_ms,
        # per-phase tick profile + simulation-kernel step cost
        "phase_held_ms_mean": float(phases_ms[:, 0].mean()),
        "phase_fixed_ms_mean": float(phases_ms[:, 1].mean()),
        "phase_malleable_ms_mean": float(phases_ms[:, 2].mean()),
        "phase_observe_ms_mean": float(phases_ms[:, 3].mean()),
        "sim_steps": float(step_profile["steps"]),
        "sim_step_us_mean": step_profile["wall_s"] / step_profile["steps"] * 1e6,
    }
    if tracer is not None:
        totals: dict[str, float] = {}
        counts: dict[str, int] = {}
        for trace_id in tracer.trace_ids():
            for span in tracer.spans(trace_id):
                if span.duration is None:
                    continue
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
                counts[span.name] = counts.get(span.name, 0) + 1
        for name in sorted(totals):
            out[f"stage_{name}_sim_mean_s"] = totals[name] / counts[name]
        out["spans_closed"] = float(sum(counts.values()))
    if profiler is not None:
        if slo is not None:
            slo.evaluate(sim.now)
        snap = profiler.snapshot()
        out["profile_paths"] = float(len(snap))
        out["profile_total_s"] = profiler.total_seconds()
        out["profile_sim_step_calls"] = snap.get(("sim.step",), {}).get("count", 0.0)
        if profiles is not None:
            out["profiled_signatures"] = float(len(profiles.signatures()))
            out["profiled_jobs"] = float(profiles.summary()["jobs_profiled"])
    if _capture is not None:
        _capture["tracer"] = tracer
        _capture["profiler"] = profiler
        _capture["profiles"] = profiles
        _capture["slo"] = slo
        _capture["job_ids"] = job_ids
    return out


def trace_export(tracer, job_ids: list[str], mode: str) -> dict:
    """The diffable JSON trace artifact: per-stage simulated-time means
    aggregated over every job, plus the first job's full span tree.
    Wall-clock fields are stripped — everything left is deterministic
    DES output, so two runs of the same code produce identical files.
    """
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for trace_id in tracer.trace_ids():
        for span in tracer.spans(trace_id):
            if span.duration is None:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
            counts[span.name] = counts.get(span.name, 0) + 1
    sample = tracer.export_job_json(job_ids[0])
    for span in sample["spans"]:
        span.pop("wall_duration_s", None)
    return {
        "mode": mode,
        "jobs": N_JOBS,
        "malleable_jobs": N_MALLEABLE,
        "stage_sim_mean_s": {
            name: totals[name] / counts[name] for name in sorted(totals)
        },
        "stage_span_counts": {name: counts[name] for name in sorted(counts)},
        "sample_trace": sample,
    }


def _print_report(out: dict, flavor: str = "plain") -> None:
    rows = [{"metric": k, "value": round(v, 4)} for k, v in out.items()]
    print(
        format_table(
            rows,
            title=f"C6 — broker hot-path scale ({out['jobs']} jobs, "
            f"{N_SITES} sites, {flavor})",
        )
    )


def test_c6_tick_cost_tracks_live_work(benchmark):
    """Acceptance: the reconcile sweep never touches archived terminal
    jobs — tick cost is bounded by the live population, independent of
    how many jobs have completed."""
    out = benchmark.pedantic(run_c6, rounds=1, iterations=1)
    _print_report(out)
    assert out["completed"] == out["jobs"] + out["malleable_jobs"]
    assert out["failed"] == 0
    # the arrival sweep keeps ~live-work jobs in flight; even the worst
    # tick must scan only a small slice of the total submitted
    assert out["scanned_per_tick_max"] < 0.2 * out["jobs"]
    # once everything is terminal the sweep touches nothing at all —
    # the deterministic form of "tick cost is independent of history"
    assert out["scanned_final_tick"] <= out["malleable_jobs"]
    assert out["drained_scanned"] == 0
    # loose wall-clock backstop against egregious pathology only (CI
    # runners are noisy; the scanned counts above are the real gate)
    assert out["drained_tick_ms"] < 50.0


def _paired_overhead(flavor: str, capture: dict, pairs: int = 3) -> tuple[float, dict]:
    """Median instrumented/plain wall ratio over ``pairs`` back-to-back
    (plain, ``flavor``) sweeps, alternating which sweep runs first so a
    load swing on a shared host does not always land on the same side.
    Every pair must agree on every deterministic key.  Returns the
    median ratio and the last instrumented sweep's output (``capture``
    holds its handles)."""
    import statistics

    ratios = []
    for i in range(pairs):
        if i % 2:
            instrumented = run_c6(traced=flavor, _capture=capture)
            plain = run_c6()
        else:
            plain = run_c6()
            instrumented = run_c6(traced=flavor, _capture=capture)
        for key in DETERMINISTIC_KEYS:
            assert plain[key] == instrumented[key], key
        ratios.append(instrumented["total_wall_s"] / plain["total_wall_s"])
    return statistics.median(ratios), instrumented


def test_c6_tracing_is_invisible_to_scheduling():
    """Acceptance for the tracing plane: the full span pipeline must not
    move a single deterministic DES output, every traced job must yield
    its complete span tree, and the traced sweep's wall cost over the
    plain sweep — the median over three back-to-back pairs — stays
    within a loose overhead bound (the precise ratio is reported by the
    regression suite)."""
    capture: dict = {}
    overhead, traced = _paired_overhead("traced", capture)

    tracer, job_ids = capture["tracer"], capture["job_ids"]
    root = tracer.job_root(job_ids[0])
    assert root is not None and not root.open and root.status == "ok"
    names = {span.name for span in tracer.job_spans(job_ids[0])}
    assert set(TRACE_STAGES) <= names
    # every fixed job carries at least the full stage set
    assert traced["spans_closed"] >= len(TRACE_STAGES) * traced["jobs"]
    assert traced["stage_execute_sim_mean_s"] > 0.0

    print(f"tracing overhead: {overhead:.3f}x over plain (median of 3 pairs)")
    assert overhead < 1.25


def test_c6_profiling_is_invisible_to_scheduling():
    """Acceptance for the profiling plane: the profiled flavor makes
    bit-identical scheduling decisions, every instrumented hot path
    shows up in the scope stats, the phase-profile store fills from the
    same sweep, and the end-to-end overhead — the median over three
    back-to-back pairs — stays within a loose wall bound (the precise
    ratio is gated by the regression suite)."""
    capture: dict = {}
    overhead, profiled = _paired_overhead("profiled", capture)

    profiler = capture["profiler"]
    seen = {name for path in profiler.paths() for name in path}
    assert set(PROFILE_SCOPES) <= seen, set(PROFILE_SCOPES) - seen
    # every sim event dispatched under a sim.step frame, and nested
    # scopes attribute to their parents (reconcile under sim.step)
    assert profiled["profile_sim_step_calls"] > 0
    assert any(
        len(path) > 1 and path[0] == "sim.step" for path in profiler.paths()
    )

    profiles = capture["profiles"]
    assert profiles.summary()["jobs_profiled"] > 0
    for profile in (profiles.get(t, s) for t, s in profiles.keys()):
        assert set(profile.phases) <= {
            "queue_wait_s", "classical_pre_s", "execute_s", "job_s", "resize_churn",
        }
    slo = capture["slo"]
    assert slo.last_results, "SLO tracker never evaluated"

    print(f"profiling overhead: {overhead:.3f}x over plain (median of 3 pairs)")
    assert overhead < 1.6


def main(argv=None) -> int:
    import argparse
    import json
    import pathlib

    parser = argparse.ArgumentParser(description="C6 broker scale bench")
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="run under cProfile and dump stats to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="run a traced sweep and write the JSON trace export to PATH",
    )
    parser.add_argument(
        "--profile-report",
        metavar="PATH",
        default=None,
        help="run a profiled sweep and write the top-N + flame report to PATH",
    )
    parser.add_argument(
        "--slo-out",
        metavar="PATH",
        default=None,
        help="run a profiled sweep and write the SLO + phase-profile summary JSON to PATH",
    )
    args = parser.parse_args(argv)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        out = run_c6()
        profiler.disable()
        profiler.dump_stats(args.profile)
        _print_report(out)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"profile written to {args.profile}")
    elif not (args.trace_out or args.profile_report or args.slo_out):
        _print_report(run_c6())
    if args.profile_report or args.slo_out:
        capture: dict = {}
        out = run_c6(traced="profiled", _capture=capture)
        _print_report(out, flavor="profiled")
        if args.profile_report:
            profiler = capture["profiler"]
            report = (
                profiler.report_top(20) + "\n\n" + profiler.render_flame() + "\n"
            )
            path = pathlib.Path(args.profile_report)
            path.write_text(report)
            print(f"profile report written to {path}")
        if args.slo_out:
            summary = {
                "mode": "smoke" if SMOKE else "full",
                "slo": capture["slo"].summary(),
                "profiles": capture["profiles"].snapshot(),
            }
            path = pathlib.Path(args.slo_out)
            path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            print(f"SLO summary written to {path}")
    if args.trace_out:
        capture: dict = {}
        out = run_c6(traced="traced", _capture=capture)
        _print_report(out, flavor="traced")
        export = trace_export(
            capture["tracer"],
            capture["job_ids"],
            mode="smoke" if SMOKE else "full",
        )
        path = pathlib.Path(args.trace_out)
        path.write_text(json.dumps(export, indent=2, sort_keys=True) + "\n")
        print(f"trace export written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
