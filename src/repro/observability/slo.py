"""Latency SLOs with multi-window burn-rate alerting.

The missing half of paper §2.5's ops story: tracing (PR 6) says what
happened to a job, profiling says where the system spends time — this
module says whether tenants are *meeting their objectives*.  A
:class:`LatencyObjective` declares "fraction ``objective`` of <stage>
events for <tenant> finish within ``threshold_s``"; the
:class:`SLOTracker` classifies every stage latency sample as good/bad —
on a lifecycle bus, one sample per closed
:class:`~repro.observability.stages.StageInterval` of the bus's stage
tracker — and evaluates Google-SRE-style multi-window burn rates:

    ``burn = error_rate / (1 - objective)``

computed over a short and a long window, publishing the *minimum* of
the two as ``slo_burn_rate{slo=<name>}`` so a compiled alert rule fires
only while **both** windows burn — fast windows catch onset, long
windows stop flapping.  Error-budget remaining over the long window is
published as ``slo_error_budget_remaining`` (it may go negative: an
overdrawn budget should be visible, not clamped).  Rules ride the
existing :class:`~repro.observability.alerts.AlertManager` unchanged,
via :meth:`SLOTracker.compile_rules`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from ..errors import ObservabilityError
from .alerts import AlertManager, AlertRule
from .stages import STAGES

__all__ = ["LatencyObjective", "SLOTracker", "DEFAULT_OBJECTIVES"]


@dataclass(frozen=True)
class LatencyObjective:
    """``objective`` fraction of ``stage`` events within ``threshold_s``."""

    name: str
    stage: str
    threshold_s: float
    objective: float = 0.99
    tenant: str | None = None  # None matches every tenant
    short_window_s: float = 300.0
    long_window_s: float = 3600.0
    #: compiled-rule knobs: fire when min-window burn exceeds
    #: ``burn_threshold`` continuously for ``for_seconds``
    burn_threshold: float = 1.0
    for_seconds: float = 120.0
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ObservabilityError(
                f"unknown SLO stage {self.stage!r} (one of {STAGES})"
            )
        if not (0.0 < self.objective < 1.0):
            raise ObservabilityError("objective must be in (0, 1)")
        if self.threshold_s <= 0:
            raise ObservabilityError("threshold_s must be > 0")
        if not (0.0 < self.short_window_s <= self.long_window_s):
            raise ObservabilityError(
                "need 0 < short_window_s <= long_window_s"
            )

    def matches(self, stage: str, tenant: str | None) -> bool:
        return self.stage == stage and (
            self.tenant is None or self.tenant == tenant
        )


#: a sane default set for stacks that just want the plane on
DEFAULT_OBJECTIVES = (
    LatencyObjective(
        name="job-latency", stage="job", threshold_s=600.0, objective=0.95
    ),
    LatencyObjective(
        name="queue-wait", stage="queue-wait", threshold_s=120.0, objective=0.90
    ),
)


class SLOTracker:
    """Classifies stage-latency samples against objectives and keeps
    multi-window burn-rate state.

    Samples arrive either from a lifecycle bus (:meth:`attach_bus`, the
    production path — the stage records ``FederationMetrics``, the
    tracer and the profiles read, with their tenants) or directly via
    :meth:`observe` (the synthetic-test path).  :meth:`evaluate`
    recomputes burn rates, writes the ``slo_*`` series, and caches
    results for the exporter.
    """

    def __init__(self, objectives=DEFAULT_OBJECTIVES, tsdb: Any = None) -> None:
        self.objectives = list(objectives)
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ObservabilityError("duplicate SLO objective names")
        self.tsdb = tsdb
        #: per objective: deque of (time, is_bad) pruned to long_window
        self._events: dict[str, deque] = {o.name: deque() for o in self.objectives}
        #: objective name -> last evaluate() results (exporter cache)
        self.last_results: dict[str, dict[str, float]] = {}
        self._last_eval_at: float | None = None

    # -- sample intake -----------------------------------------------------

    def observe(
        self, stage: str, latency_s: float, now: float, tenant: str | None = None
    ) -> None:
        """Classify one stage-latency sample against every matching
        objective."""
        if stage not in STAGES:
            raise ObservabilityError(f"unknown SLO stage {stage!r}")
        for objective in self.objectives:
            if objective.matches(stage, tenant):
                self._events[objective.name].append(
                    (now, latency_s > objective.threshold_s)
                )

    def attach_bus(self, bus: Any) -> None:
        """Sample every closed stage record of a lifecycle bus."""
        bus.stages.add_sink(self._on_closed)

    def _on_closed(self, record: Any) -> None:
        self.observe(record.stage, record.end - record.start, record.end, record.tenant)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float) -> dict[str, dict[str, float]]:
        """Recompute burn rates at ``now`` and publish the ``slo_*``
        series (call at nondecreasing ``now`` — TSDB appends are
        monotone per series)."""
        results: dict[str, dict[str, float]] = {}
        for objective in self.objectives:
            events = self._events[objective.name]
            horizon = now - objective.long_window_s
            while events and events[0][0] < horizon:
                events.popleft()
            budget = 1.0 - objective.objective
            short_err = self._error_rate(
                events, now - objective.short_window_s
            )
            long_err = self._error_rate(events, horizon)
            burn = min(short_err / budget, long_err / budget)
            remaining = 1.0 - long_err / budget
            results[objective.name] = {
                "burn_rate": burn,
                "short_burn": short_err / budget,
                "long_burn": long_err / budget,
                "error_budget_remaining": remaining,
                "events": float(len(events)),
            }
            if self.tsdb is not None:
                self.tsdb.write_many(
                    {"slo_burn_rate": burn, "slo_error_budget_remaining": remaining},
                    now,
                    labels={"slo": objective.name},
                )
        self.last_results = results
        self._last_eval_at = now
        return results

    @staticmethod
    def _error_rate(events, since: float) -> float:
        total = bad = 0
        for t, is_bad in reversed(events):
            if t < since:
                break
            total += 1
            bad += is_bad
        return bad / total if total else 0.0

    # -- alert integration -------------------------------------------------

    def compile_rules(self, alerts: AlertManager) -> list[AlertRule]:
        """Register one burn-rate threshold rule per objective on the
        existing manager (which must read this tracker's TSDB)."""
        rules = []
        for objective in self.objectives:
            rule = AlertRule(
                name=f"slo-burn:{objective.name}",
                measurement="slo_burn_rate",
                op=">",
                threshold=objective.burn_threshold,
                for_seconds=objective.for_seconds,
                labels={"slo": objective.name},
                severity=objective.severity,
            )
            alerts.add_rule(rule)
            rules.append(rule)
        return rules

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Last evaluation results (empty until :meth:`evaluate` runs)."""
        return {name: dict(vals) for name, vals in self.last_results.items()}
