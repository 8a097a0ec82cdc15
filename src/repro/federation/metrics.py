"""Federated observability: per-site and aggregate metrics.

Reuses the existing observability path end-to-end: instruments live in
a :class:`~repro.observability.metrics.MetricRegistry`, render through
the standard Prometheus exposition, and flow into any site's (or a
dedicated federation) :class:`~repro.observability.tsdb.TimeSeriesDB`
via the ordinary :class:`~repro.observability.scrape.Scraper` target
protocol (:meth:`FederationMetrics.collector`).

Counters are **bus-driven**: :meth:`attach_bus` subscribes to the
job-level kinds of the broker's
:class:`~repro.federation.events.LifecycleBus` and every counter
increment is derived from the published event stream — placements from
``job_placed`` (one per dispatch, so every unit counts), outcomes from
``job_completed`` / ``job_failed``, resizes from ``resize``, and so on.
There are no scattered ``record_*`` call sites left in the broker or the
resize loop: anything the metrics plane can see, any other subscriber
can see too.  The per-stage latency histogram is a view of the bus's
stage tracker: one observation per closed
:class:`~repro.observability.stages.StageInterval`, folded from the
tracker's log whenever the registry is read.

Every gauge, and the snapshot-cache counter, copies state the broker
already keeps: one registry read hook (:meth:`attach_broker`) sets them
all from the broker at each read, so a scrape between housekeeping
ticks sees that moment, not the last tick.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..observability import MetricRegistry, render_exposition
from ..observability.stages import STAGES
from .registry import SiteHealth

__all__ = ["FederationMetrics"]

#: numeric encoding for the health gauge (dashboards threshold on it)
_HEALTH_VALUE = {
    SiteHealth.ONLINE: 2.0,
    SiteHealth.SATURATED: 1.0,
    SiteHealth.UNHEALTHY: 0.0,
}

#: stage-latency buckets in *simulated* seconds — wide because queue
#: waits under contention run to minutes of simulated time
_STAGE_BUCKETS = (
    0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 15.0, 30.0,
    60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

_STAGE_LABELS = {stage: {"stage": stage} for stage in STAGES}


class FederationMetrics:
    """Instrument set for one broker."""

    def __init__(self) -> None:
        self.registry = MetricRegistry()
        self.placements = self.registry.counter(
            "federation_placements_total",
            "Job placements per site",
            label_names=("site",),
        )
        self.reroutes = self.registry.counter(
            "federation_reroutes_total",
            "Failover re-placements per abandoning site",
            label_names=("site",),
        )
        self.outcomes = self.registry.counter(
            "federation_jobs_total",
            "Federated jobs by terminal outcome",
            label_names=("outcome",),
        )
        self.site_depth = self.registry.gauge(
            "federation_site_queue_depth",
            "Queued+running tasks per site",
            label_names=("site",),
        )
        self.site_health = self.registry.gauge(
            "federation_site_health",
            "2=online 1=saturated 0=unhealthy",
            label_names=("site",),
        )
        self.site_fidelity = self.registry.gauge(
            "federation_site_fidelity",
            "Worst-case hardware fidelity proxy per site",
            label_names=("site",),
        )
        self.sites_healthy = self.registry.gauge(
            "federation_sites_healthy", "Sites currently routable"
        )
        # -- malleable placements (resize loop) -----------------------------
        self.share_events = self.registry.counter(
            "federation_share_events_total",
            "Malleable share resize events per site "
            "(kind: grow/shrink/retire/reclaim)",
            label_names=("site", "kind"),
        )
        self.rebalances = self.registry.counter(
            "federation_rebalances_total",
            "Resize-loop passes that changed at least one share weight",
        )
        self.units_completed = self.registry.counter(
            "federation_malleable_units_total",
            "Completed malleable work units per executing site",
            label_names=("site",),
        )
        self.share_weight = self.registry.gauge(
            "federation_share_weight",
            "Aggregate live malleable share weight per site",
            label_names=("site",),
        )
        # -- accounting (budgets + metering) ---------------------------------
        self.admissions = self.registry.counter(
            "federation_admissions_total",
            "Budget admission decisions at intake "
            "(decision: admit/hold/reject/released)",
            label_names=("decision",),
        )
        self.tenant_spend = self.registry.gauge(
            "federation_tenant_spend",
            "Cumulative metered spend per tenant (federation credits)",
            label_names=("tenant",),
        )
        self.tenant_remaining = self.registry.gauge(
            "federation_tenant_budget_remaining",
            "Remaining federation budget per tenant (+Inf when unbudgeted)",
            label_names=("tenant",),
        )
        self.evictions = self.registry.counter(
            "federation_evicted_jobs_total",
            "Terminal job records evicted from broker memory "
            "(spilled to the accounting archive)",
        )
        # -- reconcile hot path (the scheduler tick itself) -------------------
        self.reconcile_scanned = self.registry.gauge(
            "federation_reconcile_scanned_jobs",
            "Jobs the last reconcile sweep touched (live + held; "
            "terminal jobs are archived out of the sweep)",
        )
        self.reconcile_duration = self.registry.gauge(
            "federation_reconcile_duration_ms",
            "Wall-clock cost of the last reconcile sweep",
        )
        self.snapshot_cache_hits = self.registry.counter(
            "federation_snapshot_cache_hits_total",
            "Site snapshots served from the registry cache "
            "(no queue/health/calibration drift since the last build)",
        )
        # -- per-stage latency (bus-derived, simulated seconds) ---------------
        self.stage_latency = self.registry.histogram(
            "federation_stage_latency_seconds",
            "Per-stage latency in simulated seconds "
            "(stage: queue-wait/execute/classical-pre/job)",
            label_names=("stage",),
            buckets=_STAGE_BUCKETS,
        )

    # -- bus-driven recording -------------------------------------------------

    def attach_bus(self, bus) -> None:
        """Derive every counter from the event stream of ``bus``, and
        the stage histogram from its stage tracker."""
        bus.stages.attach(self)
        self.registry.add_read_hook(bus.stages.drain)
        bus.subscribe(
            self._on_event,
            kinds=(
                "job_placed", "job_completed", "job_failed", "job_rerouted", "resize",
                "rebalance", "unit_completed", "admission", "jobs_evicted",
            ),
        )

    def fold(self, entries) -> None:
        for record, opened in entries:
            if not opened:
                self.stage_latency.observe(record.end - record.start, labels=_STAGE_LABELS[record.stage])

    def _on_event(self, event) -> None:
        kind = event.kind
        if kind == "job_placed":
            self.placements.inc(labels={"site": event.site})
        elif kind in ("job_completed", "job_failed"):
            outcome = "completed" if kind == "job_completed" else "failed"
            self.outcomes.inc(labels={"outcome": outcome})
        elif kind == "job_rerouted":
            self.reroutes.inc(labels={"site": event.site})
        elif kind == "resize":
            self.share_events.inc(
                labels={"site": event.site, "kind": event.payload.get("action", "")}
            )
        elif kind == "rebalance":
            self.rebalances.inc()
        elif kind == "unit_completed":
            self.units_completed.inc(labels={"site": event.site})
        elif kind == "admission":
            self.admissions.inc(
                labels={"decision": event.payload.get("decision", "")}
            )
        elif kind == "jobs_evicted":
            self.evictions.inc(int(event.payload.get("count", 0)))

    # -- read at exposition ---------------------------------------------------

    def attach_broker(self, broker) -> None:
        """Derive the counters from ``broker``'s bus, and set every
        gauge that mirrors its state from the broker at each read."""
        self.attach_bus(broker.events)
        self.registry.add_read_hook(lambda: self._read(broker))

    def _read(self, broker) -> None:
        """Registry read hook: every value that copies broker state is
        read from the broker here, and nowhere else."""
        # deferred: the broker module imports this one at import time
        from .broker import JobState

        healthy = 0
        for snap in broker.registry.snapshots(broker.sim.now):
            labels = {"site": snap.name}
            self.site_depth.set(float(snap.queue_depth), labels=labels)
            self.site_health.set(_HEALTH_VALUE[snap.health], labels=labels)
            self.site_fidelity.set(snap.fidelity_proxy, labels=labels)
            healthy += snap.is_healthy
        self.sites_healthy.set(float(healthy))
        # after the snapshots above, so the read's own hits are counted
        behind = broker.registry.snapshot_cache_hits - self.snapshot_cache_hits.value()
        if behind > 0:
            self.snapshot_cache_hits.inc(behind)
        accounting = broker.accounting
        if accounting is not None:
            for tenant in set(accounting.ledger.tenants()) | set(accounting.budgets.budgets()):
                labels = {"tenant": tenant}
                self.tenant_spend.set(accounting.spend(tenant), labels=labels)
                self.tenant_remaining.set(accounting.remaining(tenant), labels=labels)
        weights = dict.fromkeys(broker.registry.names(), 0.0)
        # a held job has no shares yet: the placed jobs are every live share
        for job in broker.malleable.table.in_state(JobState.PLACED):
            for site, weight in job.resize.weights().items():
                if site in weights:
                    weights[site] += weight
        for site, weight in weights.items():
            self.share_weight.set(weight, labels={"site": site})
        # a deregistered site's series leave the exposition
        for _, labels, _ in self.site_health.samples():
            if labels["site"] not in weights:
                for gauge in (self.site_depth, self.site_health, self.site_fidelity, self.share_weight):
                    gauge.remove(labels)
        last = broker.last_reconcile  # empty until the first sweep
        self.reconcile_scanned.set(last.get("jobs_scanned", 0.0) + last.get("malleable_scanned", 0.0))
        if last:
            self.reconcile_duration.set(last["duration_s"] * 1e3)

    # -- export ----------------------------------------------------------------

    def text(self) -> str:
        """Prometheus exposition of the whole federation view."""
        return render_exposition(self.registry)

    def collector(self) -> "callable":
        """A ``Scraper.add_target`` collector: aggregate federation
        numbers flow into the TSDB on the same cadence as QPU telemetry.
        """

        def collect(now: float) -> Mapping[str, float]:
            self.registry.instruments()  # the read hooks set the gauges below
            out: dict[str, float] = {
                "federation_sites_healthy": self.sites_healthy.value(),
                "federation_reconcile_scanned_jobs": self.reconcile_scanned.value(),
            }
            for _, labels, value in self.site_depth.samples():
                out[f"federation_queue_depth_{labels['site']}"] = value
            for _, labels, value in self.site_health.samples():
                out[f"federation_health_{labels['site']}"] = value
            for _, labels, value in self.tenant_spend.samples():
                out[f"federation_spend_{labels['tenant']}"] = value
            for _, labels, value in self.tenant_remaining.samples():
                # +Inf (unbudgeted) stays out of the TSDB: a series that
                # can never alert is noise in every dashboard query
                if value != float("inf"):
                    out[f"federation_budget_remaining_{labels['tenant']}"] = value
            return out

        return collect
