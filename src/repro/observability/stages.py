"""One lifecycle record: stage intervals folded from the lifecycle bus.

The stage-latency histogram, the tracer's stage spans, the phase
profiles and the SLO samples are *views* of the one :class:`StageTracker`
each :class:`~repro.federation.events.LifecycleBus` folds its events
into.  The tracker logs each :class:`StageInterval` record as it closes
(and as it opens, while a view folds opens), and
:meth:`StageTracker.drain` folds the log into every view: at each read
point of a view, when the log reaches :data:`LOG_BOUND` entries, when no
job is left in flight, and before a view is attached or detached.

Records are keyed by ``(job, unit)``.  A broker job announces itself
with ``job_submitted``/``job_held`` and claims each site task with one
``job_placed`` per dispatch (``unit`` in the payload).  A site task that
no placement claims — a daemon-only submission, through REST or a
:class:`~repro.session.Session` — is its own one-unit job: its ``job``
is its task id, its tenant and program signature ride its ``queued``
payload, and its job record runs from its first ``queued`` to its
terminal transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["LOG_BOUND", "STAGES", "StageInterval", "StageTracker", "program_signature"]

#: the stages a record can measure
STAGES = ("queue-wait", "execute", "classical-pre", "job")

#: log entries that trigger a drain, so a log nobody reads stays bounded
LOG_BOUND = 1024

#: site-task transition kinds (the daemon queue's states)
_TASK_KINDS = frozenset(("queued", "running", "preempted", "completed", "failed", "cancelled"))


def program_signature(program: Any) -> str:
    """``<name>/q<qubits>`` for any program shape the stack submits
    (AnalogProgram, IR dict, or anything register-bearing)."""
    name = getattr(program, "name", None)
    register = getattr(program, "register", None)
    if isinstance(program, dict):
        name = program.get("name", name)
        register = program.get("register", register)
    try:
        qubits = len(register)
    except TypeError:
        qubits = 0
    return f"{name or 'program'}/q{qubits}"


@dataclass(slots=True, eq=False)
class StageInterval:
    """The time one unit of one job spent in one stage.

    * ``queue-wait`` — a site task waiting in its queue: from ``queued``
      (or from a preemption, which puts the task back in the queue) to
      ``running``;
    * ``execute`` — one run of a site task: from ``running`` to the next
      ``preempted`` or terminal transition;
    * ``classical-pre`` — a broker job's intake up to the first dispatch
      of the unit (admission, holds, placement), on no site;
    * ``job`` — submission to the job's terminal transition.

    **A preempted run** is one ``execute`` record with status
    ``preempted``, and the task's next ``queue-wait`` record starts at
    the preemption.  Every view counts both: a task's records tile its
    life from queued to terminal, and each queue wait is measured from
    the task's latest return to the queue, never from its first
    enqueue.

    ``status`` is ``open`` until the record closes, then ``ok`` for a
    stage that ended normally (a wait that ended in a run, a run that
    completed, a completed job), ``preempted``, or the failing terminal
    state (``failed``, ``cancelled``).  ``tenant`` is ``None`` when no
    publisher named one.  ``resizes`` counts the resize events a job
    record saw while open.
    """

    job: str
    unit: int
    tenant: str | None
    signature: str
    site: str
    task: str
    stage: str
    start: float
    end: float | None = None
    status: str = "open"
    resizes: int = 0


class StageTracker:
    """Folds one bus's events into :class:`StageInterval` records and
    logs them for its views.

    A view has ``fold(entries)``, each entry a ``(record, opened)`` pair
    in log order; opens are logged only while a view with a true
    ``folds_opens`` is attached, and a record logged as opened may have
    closed since.  A task's first queue-wait record opens once its job
    is known: when a placement claims the task, or when the task moves
    on unclaimed as its own job.
    """

    def __init__(self) -> None:
        self._views: list[Any] = []
        #: ``(record, opened)`` entries not yet folded into the views
        self._log: list[tuple[StageInterval, bool]] = []
        self._log_opens = False
        #: view folds that raised (isolated: the drain goes on)
        self.dropped = 0
        #: broker job id -> (its open job record, units dispatched so far)
        self._jobs: dict[str, tuple[StageInterval, set[int]]] = {}
        #: (site, task) -> the task's open queue-wait or execute record
        self._tasks: dict[tuple[str, str], StageInterval] = {}
        #: (site, task) -> the open job record of a task that is its own job
        self._own_jobs: dict[tuple[str, str], StageInterval] = {}

    # -- views ------------------------------------------------------------

    def attach(self, view: Any) -> None:
        """Fold every record logged from now on into ``view``."""
        self.drain()
        self._views.append(view)
        self._log_opens = self._log_opens or getattr(view, "folds_opens", False)

    def detach(self, view: Any) -> None:
        """Fold what is logged into ``view``, then stop folding into it."""
        self.drain()
        self._views.remove(view)
        self._log_opens = any(getattr(v, "folds_opens", False) for v in self._views)

    def drain(self) -> None:
        """Fold the log into every view, in log order, and clear it.  A
        view whose fold raises is counted in :attr:`dropped`, once per
        drain, and the views after it still fold."""
        log = self._log
        if not log:
            return
        self._log = []
        for view in self._views:
            try:
                view.fold(log)
            except Exception:
                self.dropped += 1

    def open_records(self, site: str, task: str) -> list[StageInterval]:
        """The open records of one site task: its own job record, if it
        is its own job, then its queue-wait or execute record."""
        key = (site, task)
        return [r for r in (self._own_jobs.get(key), self._tasks.get(key)) if r is not None]

    def open_jobs(self) -> int:
        """Job records open on this bus."""
        return len(self._jobs) + len(self._own_jobs)

    def _append(self, record: StageInterval, opened: bool) -> None:
        self._log.append((record, opened))
        if len(self._log) >= LOG_BOUND:
            self.drain()

    def _open(self, record: StageInterval) -> None:
        if self._log_opens:
            self._append(record, True)

    def _close(self, record: StageInterval, now: float, status: str) -> None:
        record.end, record.status = now, status
        self._append(record, False)
        if not (self._jobs or self._own_jobs):
            self.drain()  # no job in flight: keep no finished job's records

    # -- the fold ---------------------------------------------------------

    def on_event(self, event: Any) -> None:
        kind, now = event.kind, event.time
        if kind in _TASK_KINDS:
            self._on_task(event, kind, now)
        elif kind == "job_placed":
            self._on_placed(event, now)
        elif kind == "job_submitted" or kind == "job_held":
            if event.job_id not in self._jobs:
                payload = event.payload
                signature = f"{payload.get('program', 'program')}/q{int(payload.get('qubits', 0))}"
                job = StageInterval(event.job_id, 0, payload.get("tenant"), signature, "", "", "job", now)
                self._jobs[event.job_id] = (job, set())
                self._open(job)
        elif kind == "job_completed" or kind == "job_failed":
            entry = self._jobs.pop(event.job_id, None)
            if entry is not None:
                self._close(entry[0], now, "ok" if kind == "job_completed" else "failed")
        elif kind == "resize":
            entry = self._jobs.get(event.job_id)
            if entry is not None:
                entry[0].resizes += 1

    def _on_placed(self, event: Any, now: float) -> None:
        """One dispatch: close the unit's classical-pre on its first
        dispatch, then claim the task for the job."""
        unit = event.payload.get("unit", 0)
        entry = self._jobs.get(event.job_id)
        job = None
        if entry is not None:
            job, dispatched = entry
            if unit not in dispatched:
                dispatched.add(unit)
                pre = StageInterval(job.job, unit, job.tenant, job.signature, "", "", "classical-pre", job.start)
                self._open(pre)
                self._close(pre, now, "ok")
        if not event.task_id:
            return
        key = (event.site, event.task_id)
        record = self._tasks.get(key)
        if record is None:  # the site has not announced the task yet: it waits from now
            record = self._tasks[key] = StageInterval("", 0, None, "program/q0", *key, "queue-wait", now)
        elif record.job != record.task:
            return  # already claimed and announced
        record.job, record.unit = event.job_id, unit
        if job is not None:
            record.tenant, record.signature = job.tenant, job.signature
        self._open(record)

    def _on_task(self, event: Any, kind: str, now: float) -> None:
        key = (event.site, event.task_id)
        record = self._tasks.get(key)
        if kind == "queued":
            if record is None:  # a requeue already opened its wait at the preemption
                payload = event.payload
                self._tasks[key] = StageInterval(
                    event.task_id, 0, payload.get("tenant"), payload.get("signature", "program/q0"), *key,
                    "queue-wait", now,
                )
            return
        if record is None:
            return  # a task this bus never saw queued
        if record.job == record.task and key not in self._own_jobs:
            # past its queueing instant and still unclaimed: its own job
            own = self._own_jobs[key] = StageInterval(
                record.job, 0, record.tenant, record.signature, *key, "job", record.start
            )
            self._open(own)
            self._open(record)
        if kind == "running" or kind == "preempted":
            running = kind == "running"
            nxt = self._tasks[key] = StageInterval(
                record.job, record.unit, record.tenant, record.signature, *key, "execute" if running else "queue-wait", now
            )
            self._close(record, now, "ok" if running else "preempted")
            self._open(nxt)
        else:
            del self._tasks[key]
            status = "ok" if kind == "completed" else kind
            self._close(record, now, status)
            own = self._own_jobs.pop(key, None)
            if own is not None:
                self._close(own, now, status)
