"""Per-job metadata store.

Paper §2.5: "For end-users, transparent reporting—such as per-job
metadata on qubit performance can assist in interpreting noisy results
and guide adaptive workflows."

Every executed task gets a metadata record: the device telemetry
snapshot at execution time, the calibration parameters baked into the
result, scheduling info (queue wait, priority class), and backend
diagnostics (bond dimension, truncation).  Users query by task id;
admins by time range.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from ..errors import ObservabilityError

__all__ = ["JobMetadataStore", "JobMetadataRecord"]

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
    #: read-only when built from a result; a QPU result's mapping is
    #: shared by every record of its calibration version
    calibration: Mapping[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


class JobMetadataStore:
    """Append-only per-task metadata with id and range queries."""

    def __init__(self) -> None:
        self._records: dict[str, JobMetadataRecord] = {}
        self._order: list[str] = []

    def record(self, record: JobMetadataRecord) -> None:
        if record.task_id in self._records:
            raise ObservabilityError(f"metadata for task {record.task_id!r} already recorded")
        self._records[record.task_id] = record
        self._order.append(record.task_id)

    def record_from_result(
        self,
        task_id: str,
        time: float,
        result,
        user: str = "",
        priority_class: str = "",
        queue_wait_s: float = 0.0,
    ) -> JobMetadataRecord:
        """Build a record from an :class:`~repro.emulators.base.EmulationResult`.

        A read-only calibration mapping (a QPU result's
        :meth:`~repro.qpu.calibration.CalibrationState.snapshot_view`)
        is kept as it is; any other is copied into a read-only one."""
        meta = result.metadata
        calibration = meta.get("calibration", _NO_CALIBRATION)
        if not isinstance(calibration, MappingProxyType):
            calibration = MappingProxyType(dict(calibration))
        record = JobMetadataRecord(
            task_id=task_id,
            time=time,
            user=user,
            resource=str(meta.get("resource", meta.get("device", ""))),
            priority_class=priority_class,
            queue_wait_s=queue_wait_s,
            execution_s=float(meta.get("execution_seconds", 0.0)),
            shots=result.shots,
            backend=result.backend,
            calibration=calibration,
            diagnostics={
                k: v
                for k, v in meta.items()
                if k not in ("calibration", "resource", "device", "execution_seconds")
            },
        )
        self.record(record)
        return record

    def get(self, task_id: str) -> JobMetadataRecord:
        if task_id not in self._records:
            raise ObservabilityError(f"no metadata for task {task_id!r}")
        return self._records[task_id]

    def __len__(self) -> int:
        return len(self._records)

    def for_user(self, user: str) -> list[JobMetadataRecord]:
        return [self._records[t] for t in self._order if self._records[t].user == user]

    def in_window(self, since: float, until: float) -> list[JobMetadataRecord]:
        return [
            self._records[t]
            for t in self._order
            if since <= self._records[t].time <= until
        ]
