"""The second-level scheduler: daemon queue -> QPU.

This is the layer the paper inserts *between* Slurm and the QPU
(abstract: "a second layer of scheduling after the main HPC resource
manager in order to improve the utilization of the QPU").  One worker
process drains the :class:`~repro.daemon.queue.MiddlewareQueue` into a
QRMI resource, in the order its scheduling algorithm picks (by default
``fifo-priority``: class, then FIFO).

Two sharing modes, both from §3.3:

* :attr:`SharingMode.SHOT_CAP` — the paper's initial implementation:
  non-production tasks run with capped shots and unbatched submission,
  so the QPU frees up quickly for production arrivals (no preemption
  machinery needed),
* :attr:`SharingMode.PREEMPT` — "the production job should always be
  able to pre-empt running jobs of lower priority automatically": an
  arriving production task interrupts a running test/dev task, which is
  requeued and restarted later.

Any :class:`~repro.scheduling.algorithms.SchedulingAlgorithm`, by
registry name or as an instance, picks the next task: the §3.5
weighted-fair timeshare
(:class:`~repro.scheduling.timeshare.WeightedFairPolicy`) is one.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from ..emulators.base import ReadOnlyMetadata
from ..errors import DaemonError
from ..observability.profiling import scoped
from ..qrmi.interface import QuantumResource
from ..scheduling.algorithms import SchedulingAlgorithm, daemon_views, resolve
from ..simkernel import Interrupt, Simulator, Store
from .queue import MiddlewareQueue, PriorityClass, QueuedTask, TaskState

__all__ = ["SecondLevelScheduler", "SharingMode"]


class SharingMode(enum.Enum):
    SHOT_CAP = "shot-cap"
    PREEMPT = "preempt"


class SecondLevelScheduler:
    """Single-QPU worker draining the middleware queue."""

    def __init__(
        self,
        sim: Simulator,
        queue: MiddlewareQueue,
        resources: dict[str, QuantumResource],
        mode: SharingMode = SharingMode.SHOT_CAP,
        on_task_done: Callable[[QueuedTask], None] | None = None,
        algorithm: SchedulingAlgorithm | str | None = None,
    ) -> None:
        self.sim = sim
        self.queue = queue
        self.resources = resources
        self.mode = mode
        self.on_task_done = on_task_done
        self.algorithm: SchedulingAlgorithm
        self.use_algorithm(algorithm)
        self.current: QueuedTask | None = None
        #: the id of the task whose arrival preempted the last preempted
        #: run, set before its PREEMPTED transition is published (the
        #: daemon's publisher puts it on the ``preempted`` event)
        self.preempted_by: str | None = None
        #: the site label of the daemon's lifecycle events (kept equal by
        #: ``MiddlewareDaemon.attach_bus``); with a tracer on the
        #: simulator, each execution runs under a "dispatch" span
        #: keyed by it
        self.site = "local"
        self._wake = Store(name="scheduler-wake")
        self._worker = sim.spawn(self._run(), name="second-level-scheduler")
        self.tasks_completed = 0
        self.tasks_preempted = 0

    # -- algorithm selection ----------------------------------------------------

    def use_algorithm(self, algorithm: SchedulingAlgorithm | str | None) -> None:
        """Swap the queue discipline by registry name (or instance);
        ``None`` restores ``fifo-priority``."""
        self.algorithm = resolve(algorithm, "fifo-priority")

    # -- notification -----------------------------------------------------------

    def notify_submit(self, task: QueuedTask) -> None:
        """Called by the daemon after each queue submission."""
        if (
            self.mode is SharingMode.PREEMPT
            and self.current is not None
            and task.priority < self.current.priority
        ):
            # production arrival preempts the running lower-class task
            self._worker.interrupt(cause=("mw-preempt", task.task_id))
        self._wake.put("task")

    # -- the worker -----------------------------------------------------------

    @scoped("scheduler.select")
    def _select(self) -> QueuedTask | None:
        eligible = self.queue.queued_tasks()
        if not eligible:
            return None
        pending, resources, system = daemon_views(eligible, self.sim.now)
        chosen = None
        for decision in self.algorithm.schedule(pending, resources, system):
            if decision.kind in ("start", "backfill"):
                chosen = self.queue.get(decision.job_id)
                break
        if chosen is None:
            return None
        if chosen.state is not TaskState.QUEUED:
            raise DaemonError("scheduling algorithm returned a non-queued task")
        self.queue.set_state(chosen, TaskState.RUNNING, self.sim.now)
        return chosen

    def _run(self):
        while True:
            yield self._wake.get()
            while True:
                task = self._select()
                if task is None:
                    break
                yield from self._run_task(task)

    def _run_task(self, task: QueuedTask):
        # started_at was stamped by the RUNNING transition in _select,
        # before the queue listeners heard it
        self.current = task
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.start_task_span(
                self.site, task.task_id, "dispatch", self.sim.now,
                resource=task.resource,
            )
        resource = self.resources.get(task.resource)
        try:
            if resource is None:
                raise DaemonError(f"task routed to unknown resource {task.resource!r}")
            if hasattr(resource, "execute_in_sim"):
                result = yield from resource.execute_in_sim(
                    self.sim, task.program, **self._exec_kwargs(resource, task)
                )
            else:
                # local emulator: synchronous, zero simulated QPU time
                result = resource._execute(task.program)
        except Interrupt as intr:
            cause = intr.cause if isinstance(intr.cause, tuple) else (intr.cause,)
            if cause and cause[0] == "mw-preempt":
                task.preempt_count += 1
                self.preempted_by = cause[1]
                self.queue.set_state(task, TaskState.PREEMPTED, self.sim.now)
                self.tasks_preempted += 1
                self._end_span(span, "preempted")
                self.queue.requeue(task, self.sim.now)
                self.current = None
                return
            self._end_span(span, "failed")
            task.error = f"interrupted: {intr.cause!r}"
            self.queue.set_state(task, TaskState.FAILED, self.sim.now)
            self.current = None
            self._finish(task)
            return
        except Exception as err:
            self._end_span(span, "failed")
            task.error = f"{type(err).__name__}: {err}"
            self.queue.set_state(task, TaskState.FAILED, self.sim.now)
            self.current = None
            self._finish(task)
            return
        self._end_span(span, "ok")
        # every in-process reader gets this one object, and job metadata
        # is read from it: from here on its metadata is read-only
        result.metadata = ReadOnlyMetadata(result.metadata)
        task.result = result
        self.queue.set_state(task, TaskState.COMPLETED, self.sim.now)
        self.current = None
        self.tasks_completed += 1
        self._finish(task)

    def _end_span(self, span, status: str) -> None:
        if span is not None:
            self.sim.tracer.end_span(span, self.sim.now, status=status)

    def _exec_kwargs(self, resource: QuantumResource, task: QueuedTask) -> dict:
        # only QPU-backed resources understand batching
        if hasattr(resource, "device"):
            return {"batched": task.batched}
        return {}

    def _finish(self, task: QueuedTask) -> None:
        if self.on_task_done is not None:
            self.on_task_done(task)

    # -- introspection ----------------------------------------------------------

    def wait_times_by_class(self) -> dict[str, list[float]]:
        """Observed queue waits per priority class (finished tasks only)."""
        out: dict[str, list[float]] = {p.label: [] for p in PriorityClass}
        for task in self.queue.all_tasks():
            wait = task.wait_time()
            if wait is not None and task.state in (
                TaskState.COMPLETED,
                TaskState.RUNNING,
            ):
                out[task.priority.label].append(wait)
        return out
