"""Utilization / wait / makespan of a daemon run, folded from the task
transitions on its lifecycle bus.

All Table-1 and Figure-2 numbers flow through here, so every benchmark
reports metrics with identical definitions.  A serving daemon keeps no
record of them; analysis code attaches a :class:`TransitionCollector`
before the run:

* **QPU utilization** — fraction of the horizon covered by a
  resource's runs, each from ``running`` to the task's next
  ``preempted`` or terminal transition,
* **QPU idle time** — the complement, in seconds,
* **classical utilization** — allocated-cpu-seconds over capacity,
* **wait statistics** — per priority class, one per run start: the
  start minus the task's first ``queued``,
* **makespan** — last ``completed``/``failed`` minus first ``queued``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..simkernel import TraceRecorder

__all__ = ["SchedulingMetrics", "TransitionCollector", "qpu_busy_fraction"]


class TransitionCollector:
    """One daemon's task transitions, folded as they are published.
    Attach it before the run, once the daemon is on its bus (a federated
    site's daemon publishes on the broker's)."""

    def __init__(self, daemon: Any) -> None:
        self._queue = daemon.queue
        #: resource -> ``(start, end, task id)`` of each run
        self.busy: dict[str, list[tuple[float, float, str]]] = {}
        #: priority class -> the queue wait of each run start, in order
        self.waits: dict[str, list[float]] = {}
        #: times of the first ``queued``, of the last ``completed`` or
        #: ``failed`` and of the last ``completed`` transition
        self.first_queued = self.last_end = self.last_completed = None
        self.completed = 0
        self._running: dict[str, tuple[float, str]] = {}  # task id -> (start, resource)
        daemon.events.subscribe(
            self._on_transition,
            kinds=("queued", "running", "preempted", "completed", "failed"),
            site=daemon.site,
        )

    def _on_transition(self, event: Any) -> None:
        kind, now = event.kind, event.time
        if kind == "queued":
            if self.first_queued is None:
                self.first_queued = now
        elif kind == "running":
            task = self._queue.get(event.task_id)
            self._running[task.task_id] = (now, task.resource)
            self.waits.setdefault(task.priority.label, []).append(task.wait_time())
        else:
            start, resource = self._running.pop(event.task_id)
            self.busy.setdefault(resource, []).append((start, now, event.task_id))
            if kind != "preempted":
                self.last_end = now
            if kind == "completed":
                self.completed += 1
                self.last_completed = now


def qpu_busy_fraction(collector: TransitionCollector, resource: str, horizon: float) -> float:
    """Fraction of [0, horizon] the QPU ``resource`` spent executing tasks."""
    return TraceRecorder.busy_fraction(collector.busy.get(resource, []), horizon)


@dataclass
class SchedulingMetrics:
    """One experiment run's scheduling outcomes."""

    horizon: float
    qpu_utilization: float
    qpu_idle_seconds: float
    makespan: float
    tasks_completed: int
    wait_by_class: dict[str, dict[str, float]] = field(default_factory=dict)
    classical_utilization: float | None = None

    @classmethod
    def from_transitions(
        cls,
        collector: TransitionCollector,
        resource: str,
        horizon: float | None = None,
        classical_utilization: float | None = None,
    ) -> "SchedulingMetrics":
        """The metrics of ``collector``'s run; utilization is the QPU
        ``resource``'s, and the horizon defaults to the last
        ``completed``/``failed``."""
        if horizon is None:
            horizon = collector.last_end or 0.0
        makespan = 0.0
        if collector.last_end is not None and collector.first_queued is not None:
            makespan = collector.last_end - collector.first_queued
        util = qpu_busy_fraction(collector, resource, horizon) if horizon > 0 else 0.0
        wait_stats = {}
        for cls_name, waits in collector.waits.items():
            arr = np.asarray(waits)
            wait_stats[cls_name] = {
                "count": int(arr.size),
                "mean": float(arr.mean()),
                "p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95)),
                "max": float(arr.max()),
            }
        return cls(
            horizon=horizon,
            qpu_utilization=util,
            qpu_idle_seconds=horizon * (1.0 - util),
            makespan=makespan,
            tasks_completed=collector.completed,
            wait_by_class=wait_stats,
            classical_utilization=classical_utilization,
        )

    def row(self, label: str) -> dict:
        """Flat dict for table rendering."""
        out = {
            "scenario": label,
            "qpu_util_%": round(100 * self.qpu_utilization, 1),
            "qpu_idle_s": round(self.qpu_idle_seconds, 1),
            "makespan_s": round(self.makespan, 1),
            "tasks": self.tasks_completed,
        }
        if self.classical_utilization is not None:
            out["classical_util_%"] = round(100 * self.classical_utilization, 1)
        for cls_name, stats in sorted(self.wait_by_class.items()):
            out[f"wait_p50_{cls_name}"] = round(stats["p50"], 1)
        return out
