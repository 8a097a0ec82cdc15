"""The middleware task queue with the paper's priority classes.

Paper §3.3 — "A priority queue is implemented, for example we can
envision several classes of user jobs:

    (1) production jobs (top priority)
    (2) test runs / scalability tests (medium priority)
    (3) development runs (low priority)"

The queue files tasks; the second-level scheduler's algorithm picks
the next one (by default in (class, FIFO) order).  The queue also
implements the initial-implementation sharing policy from the same
section: non-production tasks get their shot counts capped and their
batching disabled so "the waiting time for production jobs will be
low".
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..errors import QueueError
from ..sdk.ir import AnalogProgram

__all__ = ["MiddlewareQueue", "PriorityClass", "QueuedTask", "TaskState"]


class PriorityClass(enum.IntEnum):
    """Lower value = higher priority."""

    PRODUCTION = 0
    TEST = 1
    DEVELOPMENT = 2

    @property
    def label(self) -> str:
        """The lower-case name (``"production"``): one string per class,
        shared by every trace row and record that names it."""
        return _LABELS[self]

    @classmethod
    def parse(cls, value: str) -> "PriorityClass":
        try:
            return cls[value.upper()]
        except KeyError:
            raise QueueError(
                f"unknown priority class {value!r}; "
                f"valid: {[m.label for m in cls]}"
            ) from None

    @classmethod
    def from_partition(cls, partition: str) -> "PriorityClass":
        """Paper §3.3: 'The daemon retrieves the job's priority from
        Slurm' — partition names map onto classes."""
        lowered = partition.lower()
        if "prod" in lowered:
            return cls.PRODUCTION
        if "test" in lowered:
            return cls.TEST
        return cls.DEVELOPMENT


_LABELS = {p: p.name.lower() for p in PriorityClass}


class TaskState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    PREEMPTED = "preempted"  # transient: returns to QUEUED


@dataclass(slots=True)
class QueuedTask:
    """One task in the middleware queue."""

    task_id: str
    session_id: str
    user: str
    program: AnalogProgram
    priority: PriorityClass
    resource: str
    enqueued_at: float
    state: TaskState = TaskState.QUEUED
    started_at: float | None = None
    finished_at: float | None = None
    result: Any = None
    error: str = ""
    preempt_count: int = 0
    batched: bool = True
    metadata: dict[str, Any] = field(default_factory=dict)
    #: while the task is queued, the queue sequence of its latest
    #: (re)queueing — the FIFO tiebreak scheduling algorithms sort on; a
    #: requeued task gets a fresh number, sending it to the back of its
    #: priority class.  Once it has completed, its place in completion
    #: order (see :meth:`MiddlewareQueue.completed_tasks`)
    _seq: int = field(default=0, init=False, repr=False, compare=False)
    #: the task's scheduling view at that sequence number, kept by
    #: :func:`~repro.scheduling.algorithms.daemon_views` while the task
    #: is queued; dropped when it leaves the queue
    _pending_view: Any = field(default=None, init=False, repr=False, compare=False)

    def wait_time(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.enqueued_at


@dataclass(frozen=True)
class ShotCapPolicy:
    """The §3.3 initial sharing policy: 'non-production jobs configured
    with a low number of shots and without batched submission'."""

    test_max_shots: int = 500
    dev_max_shots: int = 100
    disable_batching_below_production: bool = True

    def apply(self, task: QueuedTask) -> None:
        if task.priority is PriorityClass.PRODUCTION:
            return
        cap = (
            self.test_max_shots
            if task.priority is PriorityClass.TEST
            else self.dev_max_shots
        )
        if task.program.shots > cap:
            task.metadata["shots_capped_from"] = task.program.shots
            task.program = task.program.with_shots(cap)
        if self.disable_batching_below_production:
            task.batched = False


class MiddlewareQueue:
    """The task table and its live queued set over :class:`QueuedTask`."""

    def __init__(self, shot_cap: ShotCapPolicy | None = None) -> None:
        self._tasks: dict[str, QueuedTask] = {}
        self._seq = itertools.count(1)
        self._completions = itertools.count(1)
        self._id_counter = itertools.count(1)
        self.shot_cap = shot_cap
        # queued tasks per class, maintained on every state transition:
        # depth introspection (site snapshots poll it on every federation
        # sweep) must not scan the ever-growing terminal-task table
        self._queued_counts: dict[PriorityClass, int] = {
            p: 0 for p in PriorityClass
        }
        # live queued tasks (insertion-ordered), maintained on every
        # state transition: scheduling algorithms read the eligible set
        # per selection, which must not scan the terminal-task table
        self._queued: dict[str, QueuedTask] = {}
        # push-based lifecycle: the owning daemon registers here (its
        # profile store and its one lifecycle-bus publisher) and hears
        # every task state transition at the simulated instant it
        # happens — the hook that replaces status polling
        self._transition_listeners: list = []

    def add_transition_listener(self, callback) -> None:
        """Register ``callback(task, old_state, new_state)`` for every
        task state transition (including the initial ``None -> QUEUED``
        at submit)."""
        self._transition_listeners.append(callback)

    def set_state(self, task: QueuedTask, state: TaskState, now: float | None) -> None:
        """The one place a task's state changes.  It stamps the
        transition's time first — ``started_at`` on RUNNING, cleared on
        a return to QUEUED, ``finished_at`` on COMPLETED/FAILED (a
        cancel keeps it unset) and a completed task's place in
        completion order — then files the task in the queued
        index and fires the transition listeners, so every listener
        reads a task whose timestamps match its new state.  A task
        leaving the queue drops its scheduling view: a requeue gets a
        new sequence number, so the view is never read again.  Setting
        the current state again is a no-op."""
        old = task.state
        if state is old:
            return
        if state is TaskState.RUNNING:
            task.started_at = now
        elif state is TaskState.QUEUED:
            task.started_at = None
        elif state is TaskState.COMPLETED or state is TaskState.FAILED:
            task.finished_at = now
            if state is TaskState.COMPLETED:
                task._seq = next(self._completions)
        task.state = state
        if old is TaskState.QUEUED:
            self._queued_counts[task.priority] -= 1
            self._queued.pop(task.task_id, None)
            task._pending_view = None
        self._entered(task, old, state)

    def _entered(self, task: QueuedTask, old: TaskState | None, new: TaskState) -> None:
        if new is TaskState.QUEUED:
            self._queued_counts[task.priority] += 1
            self._queued[task.task_id] = task
        for callback in self._transition_listeners:
            callback(task, old, new)

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        session_id: str,
        user: str,
        program: AnalogProgram,
        priority: PriorityClass,
        resource: str,
        now: float,
        metadata: dict[str, Any] | None = None,
        admit: Callable[[QueuedTask], None] | None = None,
    ) -> QueuedTask:
        """Enqueue one task; ``metadata`` lands on it before its
        ``queued`` transition reaches the listeners.  ``admit(task)``
        sees the task after the shot cap, before it is filed: if it
        raises, the task is neither stored nor announced."""
        task = QueuedTask(
            task_id=f"mw-task-{next(self._id_counter)}",
            session_id=session_id,
            user=user,
            program=program,
            priority=priority,
            resource=resource,
            enqueued_at=now,
        )
        if self.shot_cap is not None:
            self.shot_cap.apply(task)
        if admit is not None:
            admit(task)
        if metadata:
            task.metadata.update(metadata)
        self._tasks[task.task_id] = task
        self._entered(task, None, TaskState.QUEUED)
        task._seq = next(self._seq)
        return task

    # -- preemption and cancellation ------------------------------------------

    def requeue(self, task: QueuedTask, now: float) -> None:
        """Return a preempted task to the queue (keeps original class)."""
        if task.state is not TaskState.PREEMPTED:
            raise QueueError(
                f"only preempted tasks can be requeued, {task.task_id} is {task.state.value}"
            )
        self.set_state(task, TaskState.QUEUED, now)
        task._seq = next(self._seq)

    def cancel(self, task_id: str) -> None:
        task = self.get(task_id)
        if task.state in (TaskState.QUEUED, TaskState.PREEMPTED):
            self.set_state(task, TaskState.CANCELLED, None)

    # -- queries ------------------------------------------------------------------

    def get(self, task_id: str) -> QueuedTask:
        if task_id not in self._tasks:
            raise QueueError(f"unknown task {task_id!r}")
        return self._tasks[task_id]

    def queued_count(self, priority: PriorityClass | None = None) -> int:
        if priority is not None:
            return self._queued_counts[priority]
        return sum(self._queued_counts.values())

    def depth_by_class(self) -> dict[str, int]:
        return {p.label: self.queued_count(p) for p in PriorityClass}

    def all_tasks(self) -> list[QueuedTask]:
        return list(self._tasks.values())

    def completed_tasks(self) -> list[QueuedTask]:
        """Completed tasks in the order they completed."""
        done = (t for t in self._tasks.values() if t.state is TaskState.COMPLETED)
        return sorted(done, key=lambda t: t._seq)

    def queued_tasks(self) -> list[QueuedTask]:
        """Live queued tasks, O(queued) — the eligible set scheduling
        algorithms select from."""
        return list(self._queued.values())
