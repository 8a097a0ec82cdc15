"""The scraper: polls collectors into the TSDB on a simulated cadence.

A *collector* is any callable ``(now) -> dict[str, float]`` (plus
optional labels).  The built-in QPU collector adapts
:meth:`repro.qpu.QPUDevice.telemetry`.  This is the moving part that
turns device state into history the dashboards/alerting/drift layers
consume.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from ..errors import ObservabilityError
from ..simkernel import Simulator, Timeout
from .profiling import scoped
from .tsdb import TimeSeriesDB

__all__ = ["Scraper"]


@dataclass
class _Target:
    name: str
    collect: Callable[[float], Mapping[str, float]]
    labels: dict[str, str] = field(default_factory=dict)
    scrapes: int = 0
    errors: int = 0

    @property
    def self_labels(self) -> dict[str, str]:
        """Labels of the scraper's own series about this target."""
        return {"target": self.name}


class Scraper:
    """Periodic collector -> TSDB pump, running as a simulated process."""

    def __init__(self, sim: Simulator, tsdb: TimeSeriesDB, interval: float = 15.0) -> None:
        if interval <= 0:
            raise ObservabilityError("scrape interval must be positive")
        self.sim = sim
        self.tsdb = tsdb
        self.interval = interval
        self._targets: list[_Target] = []
        self._process = None
        #: sim time of the last completed scrape (None before the first)
        self.last_scrape_at: float | None = None

    def add_target(
        self,
        name: str,
        collect: Callable[[float], Mapping[str, float]],
        labels: Mapping[str, str] | None = None,
    ) -> None:
        if any(t.name == name for t in self._targets):
            raise ObservabilityError(f"scrape target {name!r} already registered")
        self._targets.append(_Target(name, collect, dict(labels or {})))

    def add_qpu(self, device, name: str | None = None) -> None:
        """Convenience: scrape a :class:`~repro.qpu.QPUDevice`."""
        label = name or device.specs.name

        def collect(now: float) -> Mapping[str, float]:
            return device.telemetry(now).to_metrics()

        self.add_target(label, collect, labels={"device": label})

    def start(self) -> None:
        if self._process is not None:
            raise ObservabilityError("scraper already started")
        self._process = self.sim.spawn(self._run(), name="scraper", background=True)

    # the scrape IS the TSDB write hot path
    @scoped("tsdb.flush")
    def scrape_once(self, now: float) -> None:
        tsdb = self.tsdb
        for target in self._targets:
            try:
                values = target.collect(now)
            except Exception:
                target.errors += 1
                tsdb.write("scrape_error", now, 1.0, labels=target.self_labels)
            else:
                target.scrapes += 1
                tsdb.write_many(values, now, labels=target.labels)
            # self-metrics: a broken collector is visible as a flat
            # scrapes curve + rising errors curve, per target
            tsdb.write_many(
                {
                    "scrape_target_scrapes": float(target.scrapes),
                    "scrape_target_errors": float(target.errors),
                },
                now,
                labels=target.self_labels,
            )
        self.last_scrape_at = now

    def _run(self):
        while True:
            yield Timeout(self.interval)
            self.scrape_once(self.sim.now)

    def targets(self) -> list[str]:
        return [t.name for t in self._targets]
