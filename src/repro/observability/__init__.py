"""Observability stack: metrics, time series, dashboards, alerts, drift.

Paper §3.6: "we build a native observability stack, exposing QPU state
through standard telemetry tools such as Prometheus, with plans to
integrate dashboards via Grafana, all built on the InfluxDB time
series database."

The stack is rebuilt from scratch with the same division of labour:

* :mod:`metrics`   — Prometheus-style metric registry (counters,
  gauges, histograms with labels),
* :mod:`exporter`  — the text exposition format,
* :mod:`tsdb`      — InfluxDB-style time-series store (monotone
  append, range queries, downsampling, retention),
* :mod:`scrape`    — the scraper process polling collectors into the
  TSDB on a cadence (runs on the simulated clock),
* :mod:`dashboard` — Grafana-style panel definitions evaluated
  against the TSDB,
* :mod:`alerts`    — threshold/absence alert rules with firing state,
* :mod:`drift`     — QPU calibration drift detectors (EWMA + CUSUM)
  for the paper's "automated drift detection" future-work item,
* :mod:`jobmeta`   — per-job metadata ("per-job metadata on qubit
  performance can assist in interpreting noisy results"), a view built
  on read from the daemon's completed tasks,
* :mod:`tracing`   — distributed tracing: job-scoped span trees with
  explicit context propagation from Session to shot,
* :mod:`profiling` — continuous hot-path scope profiler (call-path
  stats, top-N report, flamegraph-style tree, TSDB flush) and the
  :func:`scoped` decorator the hot paths carry; the run's profiler is
  ``sim.profiler`` on the shared simulator,
* :mod:`stages`    — the one lifecycle record: stage intervals each bus
  folds once, for traces, profiles, SLOs and the stage histogram,
* :mod:`profiles`  — per-workload phase signatures keyed by (tenant,
  program signature), EWMA-updated from stage records,
* :mod:`slo`       — latency objectives with multi-window burn-rate
  rules compiled onto the alert manager.
"""

from .alerts import Alert, AlertManager, AlertRule, AlertState
from .dashboard import Dashboard, Panel, render_trace_timeline
from .drift import CusumDetector, DriftDetector, EwmaDetector
from .exporter import render_exposition
from .jobmeta import JobMetadataRecord, JobMetadataView
from .metrics import Counter, Gauge, Histogram, MetricRegistry
from .profiles import PhaseProfile, ProfileStore, program_signature
from .profiling import Profiler, scoped
from .scrape import Scraper
from .slo import DEFAULT_OBJECTIVES, LatencyObjective, SLOTracker
from .tracing import Span, TraceContext, Tracer
from .tsdb import TimeSeriesDB

__all__ = [
    "Alert",
    "AlertManager",
    "AlertRule",
    "AlertState",
    "Counter",
    "CusumDetector",
    "DEFAULT_OBJECTIVES",
    "Dashboard",
    "DriftDetector",
    "EwmaDetector",
    "Gauge",
    "Histogram",
    "JobMetadataRecord",
    "JobMetadataView",
    "LatencyObjective",
    "MetricRegistry",
    "Panel",
    "PhaseProfile",
    "ProfileStore",
    "Profiler",
    "SLOTracker",
    "Scraper",
    "Span",
    "TimeSeriesDB",
    "TraceContext",
    "Tracer",
    "program_signature",
    "render_exposition",
    "render_trace_timeline",
    "scoped",
]
