"""Alerting: threshold and absence rules with firing state.

The ops-team surface from paper §2.5: "They must be able to track QPU
health in real time, detect degradation trends and schedule
maintenance."  Rules are evaluated against the TSDB on demand (or from
the scraper cadence); transitions PENDING -> FIRING after ``for_seconds``
of continuous violation, mirroring Prometheus alert semantics.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..errors import AlertError, TSDBError
from .metrics import MetricRegistry
from .tsdb import TimeSeriesDB

__all__ = ["Alert", "AlertManager", "AlertRule", "AlertState"]


class AlertState(enum.Enum):
    INACTIVE = "inactive"
    PENDING = "pending"
    FIRING = "firing"


#: gauge encoding of alert states in the exposition output
_STATE_VALUES = {AlertState.INACTIVE: 0.0, AlertState.PENDING: 1.0, AlertState.FIRING: 2.0}


@dataclass(frozen=True)
class AlertRule:
    """Threshold rule: fire when ``measurement OP threshold`` holds for
    ``for_seconds`` continuously.  ``op`` is one of < <= > >= ==.

    ``absent_seconds`` (optional) turns it into an absence rule: fire if
    no point arrived within that horizon (dead exporter / offline QPU).
    """

    name: str
    measurement: str
    op: str = "<"
    threshold: float = 0.0
    for_seconds: float = 0.0
    labels: Mapping[str, str] | None = None
    severity: str = "warning"
    absent_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.op not in ("<", "<=", ">", ">=", "=="):
            raise AlertError(f"unsupported operator {self.op!r}")
        if self.for_seconds < 0:
            raise AlertError("for_seconds must be >= 0")

    def _violates(self, value: float) -> bool:
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        return value == self.threshold


@dataclass
class Alert:
    """Mutable evaluation state of one rule."""

    rule: AlertRule
    state: AlertState = AlertState.INACTIVE
    violating_since: float | None = None
    fired_at: float | None = None
    resolved_at: float | None = None
    history: list[tuple[float, str]] = field(default_factory=list)

    def _record(self, now: float, state: AlertState) -> None:
        if state is not self.state:
            self.state = state
            self.history.append((now, state.value))


class AlertManager:
    """Evaluates rules against the TSDB; tracks firing states."""

    def __init__(self, tsdb: TimeSeriesDB) -> None:
        self.tsdb = tsdb
        self._alerts: dict[str, Alert] = {}

    def add_rule(self, rule: AlertRule) -> None:
        if rule.name in self._alerts:
            raise AlertError(f"alert rule {rule.name!r} already exists")
        self._alerts[rule.name] = Alert(rule=rule)

    def evaluate(self, now: float) -> list[Alert]:
        """Evaluate all rules at ``now``; returns alerts currently firing."""
        for alert in self._alerts.values():
            self._evaluate_one(alert, now)
        return self.firing()

    def _evaluate_one(self, alert: Alert, now: float) -> None:
        rule = alert.rule
        try:
            t_last, value = self.tsdb.latest(rule.measurement, rule.labels)
        except TSDBError:
            t_last, value = None, None

        if rule.absent_seconds is not None:
            absent = t_last is None or (now - t_last) > rule.absent_seconds
            self._apply(alert, absent, now)
            return
        if value is None:
            self._apply(alert, False, now)
            return
        self._apply(alert, rule._violates(value), now)

    def _apply(self, alert: Alert, violating: bool, now: float) -> None:
        rule = alert.rule
        if not violating:
            if alert.state is not AlertState.INACTIVE:
                alert.resolved_at = now
            alert.violating_since = None
            alert._record(now, AlertState.INACTIVE)
            return
        if alert.violating_since is None:
            alert.violating_since = now
        elapsed = now - alert.violating_since
        if elapsed >= rule.for_seconds:
            if alert.state is not AlertState.FIRING:
                alert.fired_at = now
            alert._record(now, AlertState.FIRING)
        else:
            alert._record(now, AlertState.PENDING)

    def firing(self) -> list[Alert]:
        return [a for a in self._alerts.values() if a.state is AlertState.FIRING]

    def get(self, name: str) -> Alert:
        if name not in self._alerts:
            raise AlertError(f"unknown alert {name!r}")
        return self._alerts[name]

    def names(self) -> list[str]:
        return sorted(self._alerts)

    def attach_registry(self, registry: MetricRegistry) -> None:
        """Serve an ``alert_state`` gauge per rule in ``registry``, set
        from the rules' states at each read."""
        gauge = registry.gauge(
            "alert_state", "Alert rule state (0=inactive, 1=pending, 2=firing)", label_names=("rule", "severity")
        )

        def read() -> None:
            for name, alert in self._alerts.items():
                gauge.set(_STATE_VALUES[alert.state], labels={"rule": name, "severity": alert.rule.severity})

        registry.add_read_hook(read)

    @classmethod
    def with_default_qpu_rules(cls, tsdb: TimeSeriesDB, device_label: str) -> "AlertManager":
        """The default QPU rule pack."""
        labels = {"device": device_label}
        manager = cls(tsdb)
        manager.add_rule(
            AlertRule(
                name=f"{device_label}-degraded",
                measurement="qpu_fidelity_proxy",
                op="<",
                threshold=0.85,
                for_seconds=60.0,
                labels=labels,
                severity="warning",
            )
        )
        manager.add_rule(
            AlertRule(
                name=f"{device_label}-offline",
                measurement="qpu_online",
                op="<",
                threshold=0.5,
                for_seconds=0.0,
                labels=labels,
                severity="critical",
            )
        )
        manager.add_rule(
            AlertRule(
                name=f"{device_label}-telemetry-absent",
                measurement="qpu_fidelity_proxy",
                labels=labels,
                severity="critical",
                absent_seconds=120.0,
            )
        )
        return manager
