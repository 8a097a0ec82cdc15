"""Every view of the stage records, checked against values recorded
before the views folded one log on read.

The stage histogram, the profile stores, the SLO samples and the
tracer's stage spans once heard each stage record as it opened and as
it closed.  They fold the stage tracker's log now, when they are read
or when the log fills.  ``stage_views_golden.json`` holds what every
read point gave on the two runs below, recorded while the records were
still pushed: the broker's registry snapshot (mid-run and at the end,
without the wall-clock reconcile gauge), each site's ``GET /profiles``
body, the broker's profiles, the SLO results at fixed instants and the instant each burn-rate alert first
fired, every trace export without its wall-clock fields, and the
``trace_span_seconds`` series.  Every value must come out the same.

The broker's site, spend, share-weight and cache-hit values, and the
place of the ``alert_state`` block in the daemon's ``/metrics`` body,
were re-recorded when those gauges moved to registry read hooks: they
now read the state at the read, not at the last housekeeping tick.
"""

import json
import pathlib

import numpy as np

from benchmarks.harness import build_federation_stack
from repro.accounting import FederationAccounting
from repro.daemon import MiddlewareDaemon, Request, SharingMode, build_router
from repro.daemon.queue import ShotCapPolicy
from repro.observability import AlertManager, LatencyObjective, SLOTracker, TimeSeriesDB
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.simkernel import Simulator
from repro.spec import JobSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "stage_views_golden.json"

#: tight objectives, so both burn-rate alerts fire within the run
OBJECTIVES = (
    LatencyObjective(
        name="queue-wait", stage="queue-wait", threshold_s=2.0, objective=0.9,
        short_window_s=60.0, long_window_s=240.0, for_seconds=20.0,
    ),
    LatencyObjective(
        name="job-t0", stage="job", threshold_s=20.0, objective=0.8, tenant="t0",
        short_window_s=60.0, long_window_s=240.0, for_seconds=0.0,
    ),
)


def make_program(shots, n_atoms=2, name="golden"):
    return (
        AnalogCircuit(Register.chain(n_atoms, spacing=6.0), name=name)
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=shots)
    )


def stripped(export):
    """A trace export without its wall-clock fields."""
    spans = [{k: v for k, v in span.items() if k != "wall_duration_s"} for span in export["spans"]]
    return {**export, "spans": spans}


def registry(broker):
    """The broker's registry snapshot without its one wall-clock gauge."""
    snapshot = broker.metrics.registry.snapshot()
    del snapshot["federation_reconcile_duration_ms"]
    return snapshot


def span_series(tracer, exports):
    """The ``trace_span_seconds`` series :meth:`Tracer.flush_to_tsdb`
    writes, keyed ``name|site``."""
    tsdb = TimeSeriesDB()
    flushed = tracer.flush_to_tsdb(tsdb)
    keys = sorted(
        {(span["name"], str(span["attributes"].get("site", ""))) for e in exports for span in e["spans"]}
    )
    series = {}
    for name, site in keys:
        labels = {"name": name, "site": site}
        if tsdb.has_series("trace_span_seconds", labels):
            t, v = tsdb.query("trace_span_seconds", labels)
            series[f"{name}|{site}"] = [t.tolist(), v.tolist()]
    return {"flushed": flushed, "series": series}


def traces(tracer):
    exports = [tracer.export_json(trace_id) for trace_id in tracer.trace_ids()]
    return [stripped(e) for e in exports], span_series(tracer, exports)


def run_federation():
    """An accounted 2-site federation with a tracer, broker profiles and
    an SLO tracker: 12 fixed jobs of 3 tenants, 3 four-unit ledger jobs,
    and site-1 killed at 40 s so its in-flight work reroutes."""
    sim, _, broker, sites = build_federation_stack(
        n_sites=2, shot_rate_hz=2.0, accounting=FederationAccounting(), seed=3
    )
    tracer = broker.attach_tracer()
    profiles = broker.attach_profiles()
    tsdb = TimeSeriesDB()
    slo = SLOTracker(OBJECTIVES, tsdb=tsdb)
    slo.attach_bus(broker.events)
    alerts = AlertManager(tsdb)
    slo.compile_rules(alerts)
    out = {"slo": {}, "fired": {}, "registry_mid": {}}

    def submit(i):
        tenant = f"t{i % 3}"
        if i % 5 == 4:
            spec = JobSpec(program=make_program(6, 3, "ledger"), shots=6, iterations=4, tenant=tenant)
        else:
            spec = JobSpec(program=make_program(8 + 2 * (i % 4)), shots=8 + 2 * (i % 4), tenant=tenant)
        broker.submit_spec(spec)

    def evaluate():
        now = sim.now
        out["slo"][repr(now)] = slo.evaluate(now)
        for alert in alerts.evaluate(now):
            out["fired"].setdefault(alert.rule.name, now)

    for i in range(15):
        sim.call_at(3.0 * i, lambda i=i: submit(i))
    for k in range(1, 16):
        sim.call_at(20.0 * k, evaluate)
    for at in (35.0, 90.0):
        sim.call_at(at, lambda at=at: out["registry_mid"].__setitem__(repr(at), registry(broker)))
    sim.call_at(40.0, sites["site-1"].kill)
    sim.run(until=400.0)
    out["reroutes"] = broker.stats()["reroutes"]
    out["registry"] = registry(broker)
    out["site_profiles"] = {
        name: build_router(site.daemon).dispatch(Request("GET", "/profiles")).body
        for name, site in sorted(sites.items())
    }
    out["profiles"] = profiles.snapshot()
    out["profiles_summary"] = profiles.summary()
    out["traces"], out["span_series"] = traces(tracer)
    return json.loads(json.dumps(out))


def run_preempt_daemon():
    """A PREEMPT daemon behind a Session with a tracer: development and
    test jobs arrive every 4 s, and a production arrival every 15 s
    preempts whichever of them holds the QPU."""
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=2.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    daemon = MiddlewareDaemon(
        sim, {"onprem": OnPremQPUResource("onprem", device)}, mode=SharingMode.PREEMPT,
        shot_cap=ShotCapPolicy(), scrape_interval=30.0,
    )
    session = Session(daemon=daemon, user="alice")
    tracer = session.attach_tracer()
    router = build_router(daemon)

    def submit(cls, shots):
        session.submit(JobSpec(program=make_program(shots), shots=shots, priority_class=cls), backend="daemon")

    for i in range(10):
        sim.call_at(4.0 * i, lambda i=i: submit(("development", "test")[i % 2], 12 + 2 * (i % 3)))
    for k in range(1, 4):
        sim.call_at(15.0 * k + 1.0, lambda: submit("production", 6))
    sim.run(until=300.0)
    out = {
        "preempted": daemon.scheduler.tasks_preempted,
        "profiles": router.dispatch(Request("GET", "/profiles")).body,
        "metrics": router.dispatch(Request("GET", "/metrics")).body,
        "healthz": router.dispatch(Request("GET", "/healthz")).body,
    }
    out["traces"], out["span_series"] = traces(tracer)
    return json.loads(json.dumps(out))


def record():
    return {"federation": run_federation(), "preempt_daemon": run_preempt_daemon()}


def test_the_federation_views_match_the_recorded_run():
    want = json.loads(GOLDEN_PATH.read_text())["federation"]
    got = run_federation()
    assert got["reroutes"] == want["reroutes"] > 0
    assert set(got["fired"]) == {"slo-burn:queue-wait", "slo-burn:job-t0"}
    for key in want:
        assert got[key] == want[key], key


def test_the_preempt_daemon_views_match_the_recorded_run():
    want = json.loads(GOLDEN_PATH.read_text())["preempt_daemon"]
    got = run_preempt_daemon()
    assert got["preempted"] == want["preempted"] > 0
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    # rewrite the golden file from the current tree
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
