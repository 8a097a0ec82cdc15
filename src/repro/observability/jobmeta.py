"""Per-job metadata, read from the daemon's task table.

Paper §2.5: "For end-users, transparent reporting—such as per-job
metadata on qubit performance can assist in interpreting noisy results
and guide adaptive workflows."

Every completed task has a metadata record: the calibration parameters
baked into its result, scheduling info (queue wait, priority class),
and backend diagnostics (bond dimension, truncation).  Users query by
task id; admins by time range.  A record is built on read from the
completed task and its result, which the daemon keeps anyway.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from ..errors import ObservabilityError, QueueError

__all__ = ["JobMetadataRecord", "JobMetadataView", "job_metadata_record"]

#: the calibration of a result that carries none
_NO_CALIBRATION: Mapping[str, float] = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class JobMetadataRecord:
    task_id: str
    time: float
    user: str = ""
    resource: str = ""
    priority_class: str = ""
    queue_wait_s: float = 0.0
    execution_s: float = 0.0
    shots: int = 0
    backend: str = ""
    #: read-only; a QPU result's mapping is shared by every record of
    #: its calibration version
    calibration: Mapping[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def job_metadata_record(task: Any) -> JobMetadataRecord:
    """The record of a completed :class:`~repro.daemon.queue.QueuedTask`
    and its result.  A read-only calibration mapping (a QPU result's
    :meth:`~repro.qpu.calibration.CalibrationState.snapshot_view`) is
    kept as it is; any other is copied into a read-only one."""
    result = task.result
    meta = result.metadata
    calibration = meta.get("calibration", _NO_CALIBRATION)
    if not isinstance(calibration, MappingProxyType):
        calibration = MappingProxyType(dict(calibration))
    return JobMetadataRecord(
        task_id=task.task_id,
        time=task.finished_at,
        user=task.user,
        resource=str(meta.get("resource", meta.get("device", ""))),
        priority_class=task.priority.label,
        queue_wait_s=task.wait_time() or 0.0,
        execution_s=float(meta.get("execution_seconds", 0.0)),
        shots=result.shots,
        backend=result.backend,
        calibration=calibration,
        diagnostics={k: v for k, v in meta.items() if k not in ("calibration", "resource", "device", "execution_seconds")},
    )


class JobMetadataView:
    """Per-task metadata with id and range queries, over a task table:
    the daemon's :class:`~repro.daemon.queue.MiddlewareQueue`
    (``get(task_id)`` and ``completed_tasks()``, in completion order).
    Every completed task with a result has a record."""

    def __init__(self, tasks: Any) -> None:
        self._tasks = tasks

    def _records(self) -> list[JobMetadataRecord]:
        return [job_metadata_record(t) for t in self._tasks.completed_tasks() if t.result is not None]

    def get(self, task_id: str) -> JobMetadataRecord:
        try:
            task = self._tasks.get(task_id)
        except QueueError:
            task = None
        if task is None or task.result is None:  # unknown, unfinished or failed
            raise ObservabilityError(f"no metadata for task {task_id!r}")
        return job_metadata_record(task)

    def __len__(self) -> int:
        return len(self._records())

    def for_user(self, user: str) -> list[JobMetadataRecord]:
        return [r for r in self._records() if r.user == user]

    def in_window(self, since: float, until: float) -> list[JobMetadataRecord]:
        return [r for r in self._records() if since <= r.time <= until]
