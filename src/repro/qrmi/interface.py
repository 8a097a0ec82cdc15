"""The QRMI trait: acquire/release + asynchronous task lifecycle."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from ..errors import AcquisitionError, TaskError
from ..qpu.specs import DeviceSpecs
from ..sdk.ir import AnalogProgram

__all__ = ["QRMITask", "QuantumResource", "TaskStatus"]


class TaskStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (TaskStatus.COMPLETED, TaskStatus.FAILED, TaskStatus.CANCELLED)


@dataclass
class QRMITask:
    """Bookkeeping record for one submitted task."""

    task_id: str
    program: AnalogProgram
    status: TaskStatus = TaskStatus.QUEUED
    result: Any = None
    error: str = ""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)


class QuantumResource:
    """Base class for QRMI resources.

    Subclasses implement :meth:`_execute` (synchronous result
    computation) and may override timing/locality behaviour.  The base
    class provides token accounting and the task table.
    """

    resource_type = "abstract"

    def __init__(self, name: str) -> None:
        self.name = name
        self._tokens: set[str] = set()
        self._token_counter = itertools.count(1)
        self._task_counter = itertools.count(1)
        self.tasks: dict[str, QRMITask] = {}

    # -- accessibility / acquisition ---------------------------------------

    def is_accessible(self) -> bool:
        """Can tasks be started right now? (device online, creds valid...)"""
        return True

    def acquire(self) -> str:
        """Obtain an access token.  QRMI semantics: acquisition can fail
        when the resource is offline or the caller is not entitled."""
        if not self.is_accessible():
            raise AcquisitionError(f"resource {self.name!r} is not accessible")
        token = f"{self.name}-token-{next(self._token_counter)}"
        self._tokens.add(token)
        return token

    def release(self, token: str) -> None:
        if token not in self._tokens:
            raise AcquisitionError(f"unknown token {token!r} for resource {self.name!r}")
        self._tokens.discard(token)

    def active_tokens(self) -> int:
        return len(self._tokens)

    # -- tasks ------------------------------------------------------------

    def task_start(self, program: AnalogProgram, now: float = 0.0) -> str:
        """Submit a program; returns the task id.

        The base implementation executes eagerly (synchronous backends);
        device-attached backends override to queue into the simulation.
        """
        task = self._new_task(program, now)
        self._run_task(task, now)
        return task.task_id

    def _new_task(self, program: AnalogProgram, now: float) -> QRMITask:
        task_id = f"{self.name}-task-{next(self._task_counter)}"
        task = QRMITask(task_id=task_id, program=program, submitted_at=now)
        self.tasks[task_id] = task
        return task

    def _run_task(self, task: QRMITask, now: float) -> None:
        task.status = TaskStatus.RUNNING
        task.started_at = now
        try:
            task.result = self._execute(task.program)
            task.status = TaskStatus.COMPLETED
        except Exception as exc:  # surface backend failures as task state
            task.status = TaskStatus.FAILED
            task.error = f"{type(exc).__name__}: {exc}"
        task.finished_at = now

    def _execute(self, program: AnalogProgram) -> Any:
        raise NotImplementedError

    def task_status(self, task_id: str) -> TaskStatus:
        return self._get_task(task_id).status

    def task_stop(self, task_id: str) -> None:
        task = self._get_task(task_id)
        if not task.status.is_terminal:
            task.status = TaskStatus.CANCELLED

    def task_result(self, task_id: str) -> Any:
        task = self._get_task(task_id)
        if task.status is TaskStatus.FAILED:
            raise TaskError(f"task {task_id} failed: {task.error}")
        if task.status is not TaskStatus.COMPLETED:
            raise TaskError(f"task {task_id} not finished (status {task.status.value})")
        return task.result

    def _get_task(self, task_id: str) -> QRMITask:
        if task_id not in self.tasks:
            raise TaskError(f"unknown task {task_id!r} on resource {self.name!r}")
        return self.tasks[task_id]

    # -- introspection ---------------------------------------------------

    def specs(self) -> DeviceSpecs:
        """Current device specifications (validation input).  Drift
        replaces the object rather than mutating it, so validating
        against the object returned here is validating against the
        device as it is now."""
        raise NotImplementedError

    def target(self) -> dict:
        """:meth:`specs` as a document (the REST form)."""
        return self.specs().to_dict()

    def metadata(self) -> dict:
        return {
            "name": self.name,
            "type": self.resource_type,
            "accessible": self.is_accessible(),
        }
