#!/usr/bin/env python
"""Distributed tracing: one job, every hop, two clocks.

A ``Session.submit`` opens a root span; the spec carries the trace
context into the federation broker, whose admission, placement,
queue-wait, execute, dispatch, and result-fetch stages each append
child spans — on the simulated clock AND the wall clock.  This demo:

1. wires a two-site federation behind a ``Session`` and calls
   ``attach_tracer()``, which subscribes the tracer to the broker's
   lifecycle bus — span boundaries ARE bus transitions,
2. submits a fixed job and a malleable multi-unit job,
3. renders the span-tree timeline with the critical path marked,
4. shows the bus-derived per-stage latency histograms, and
5. flushes the closed spans into the TSDB for later dashboards.

Run:  PYTHONPATH=src python examples/traced_workflow.py
"""

import numpy as np

from repro.daemon import MiddlewareDaemon
from repro.federation import FederatedSite, FederationBroker, SiteRegistry
from repro.observability import TimeSeriesDB, render_trace_timeline
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.simkernel import RngRegistry, Simulator
from repro.spec import JobSpec

# --- a two-site federation behind one Session --------------------------------
sim = Simulator()
rng = RngRegistry(5)

registry = SiteRegistry(heartbeat_expiry=60.0)
for name in ("alpine", "fjord"):
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=20.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=rng.get(name),
    )
    daemon = MiddlewareDaemon(
        sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
    )
    registry.register(FederatedSite(name, daemon, max_queue_depth=6), now=0.0)
registry.start_heartbeats(sim, interval=15.0)
broker = FederationBroker(sim, registry)
broker.spawn_housekeeping(interval=15.0)

session = Session(federation=broker, user="ada")
tracer = session.attach_tracer()

# --- submit: the root span opens here, the broker joins the trace ------------
program = (
    AnalogCircuit(Register.chain(3, spacing=6.0), name="traced-chain")
    .rx_global(np.pi / 2, duration=0.3)
    .measure_all()
    .transpile(shots=120)
)
fixed = session.submit(JobSpec(program=program, shots=120, tenant="ada"))
elastic = session.submit(
    JobSpec(program=program, shots=40, tenant="ada",
            iterations=4, sites=("alpine", "fjord"))
)
for handle in (fixed, elastic):
    sim.run_until_process(sim.spawn(handle.wait()))

# --- the span tree, by job id ------------------------------------------------
root = tracer.job_root(fixed.job_id)
print(f"job {fixed.job_id}: trace {root.trace_id}, "
      f"{len(tracer.job_spans(fixed.job_id))} spans, status={root.status}\n")
print(render_trace_timeline(tracer, root.trace_id))

stages = tracer.stage_durations(root.trace_id)
print("\nsimulated seconds by stage:")
for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
    print(f"  {name:13s} {seconds:8.3f}s")
path = " -> ".join(span.name for span in tracer.critical_path(root.trace_id))
print(f"critical path: {path}")

mroot = tracer.job_root(elastic.job_id)
units = sum(1 for s in tracer.job_spans(elastic.job_id) if s.name == "execute")
print(f"\nmalleable job {elastic.job_id}: {units} traced unit executions "
      f"across both sites (trace {mroot.trace_id})")

# --- bus-derived metrics: nobody called record_*() ---------------------------
latency = broker.metrics.stage_latency
print("\nper-stage latency histograms (from lifecycle events):")
for stage in ("queue-wait", "execute", "job"):
    labels = {"stage": stage}
    print(f"  {stage:11s} n={latency.count(labels):3d} "
          f"p50={latency.quantile(0.5, labels):6.2f}s "
          f"p95={latency.quantile(0.95, labels):6.2f}s")

# --- persistence: spans -> TSDB ----------------------------------------------
tsdb = TimeSeriesDB()
flushed = tracer.flush_to_tsdb(tsdb)
_, execute_s = tsdb.query("trace_span_seconds", labels={"name": "execute", "site": "alpine"})
print(f"\nflushed {flushed} closed spans into the TSDB "
      f"({len(execute_s)} execute spans on alpine)")
