"""Push-based lifecycle events: the federation's nervous system.

The *producers* of state transitions (each middleware queue, the
broker itself, the resize loop) publish a :class:`JobEvent` onto a
:class:`LifecycleBus` at the simulated instant the transition happens,
and consumers subscribe.  Nothing in the federation asks a site for
task status.

Publishers on a :class:`FederationBroker
<repro.federation.broker.FederationBroker>`'s bus:

* **site task transitions** — each site's daemon is the one publisher
  of its queue's QUEUED -> RUNNING -> COMPLETED/FAILED/CANCELLED
  transitions (kind = the state name), tagged with the site; one
  daemon per site label (:attr:`LifecycleBus.publishers`),
* **broker job lifecycle** — ``job_submitted`` / ``job_held`` /
  ``job_completed`` / ``job_failed``, keyed by the federation-stable job
  id, and one ``job_placed`` per dispatch — every placement of a
  one-unit job and every unit dispatch of a multi-unit job — naming the
  site task and its ``unit``,
* **resize decisions** — kind ``resize`` with the action
  (grow/shrink/retire/reclaim) in the payload.

**Delivery contract** (the only one): every event reaches every
matching subscriber in global publish order, run to completion.  A
publish appends to the pending queue and, unless a drain is already
running, drains it at once; an event published from inside a
subscriber joins the running drain, so it is delivered after the event
being handled has reached all of its subscribers, never in between.
Per event, the bus's one :class:`~repro.observability.stages.StageTracker`
(:attr:`LifecycleBus.stages`) folds it first and logs the stage records
it closes or opens; then the subscribers run in subscription order
(wildcards first, then job-filtered), so runs replay bit-for-bit.  The
stage views (histogram, tracer, profiles, SLOs) fold that log when one
of them is read, when it is full or no job is in flight, never late
enough to change what a read returns.
Subscriber and stage-view exceptions are isolated and counted in
:attr:`LifecycleBus.dropped`: a broken observer must never break the
scheduler hot path.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from ..observability.stages import StageTracker, program_signature
from ..simkernel import Event

__all__ = [
    "EVENT_SCHEMAS",
    "JobEvent",
    "LifecycleBus",
    "TERMINAL_JOB_KINDS",
    "TERMINAL_TASK_KINDS",
    "publish_task_transition",
    "wait_for",
]

#: site-task kinds that end a task's life
TERMINAL_TASK_KINDS = ("completed", "failed", "cancelled")

#: broker-job kinds that end a federated job's life
TERMINAL_JOB_KINDS = ("job_completed", "job_failed")

#: payload keys shared by every site task transition (see
#: :func:`publish_task_transition` — the one publisher of these kinds);
#: ``queued`` also names the task's tenant and program signature
_TASK_PAYLOAD = ("state", "started_at", "finished_at", "priority")

#: The declared event vocabulary: every ``kind`` the federation may
#: publish, mapped to the payload keys that kind is allowed to carry
#: (``site``/``task_id``/``job_id`` ride as :class:`JobEvent` fields,
#: not payload).  This registry is the contract archlint's *bus-schema*
#: rule enforces statically: a ``publish``/``_publish`` call site or a
#: subscriber ``kinds=`` filter naming a kind absent here fails lint,
#: as does a payload key the kind never declared.  Add the kind (and
#: its keys) HERE, next to the bus, before publishing it anywhere.
EVENT_SCHEMAS: dict[str, tuple[str, ...]] = {
    # -- site task transitions (kind = TaskState.value) ----------------
    "queued": _TASK_PAYLOAD + ("tenant", "signature"),
    "running": _TASK_PAYLOAD,
    "completed": _TASK_PAYLOAD,
    "failed": _TASK_PAYLOAD,
    "cancelled": _TASK_PAYLOAD,
    "preempted": _TASK_PAYLOAD + ("by",),
    # -- broker job lifecycle ------------------------------------------
    "job_submitted": ("tenant", "program", "qubits"),
    "job_held": ("tenant", "program", "qubits"),
    "job_placed": ("unit",),
    "job_completed": ("error",),
    "job_failed": ("error",),
    "job_rerouted": ("reason", "unit"),
    "job_converted": ("units", "shots_per_unit", "tenant"),
    "admission": ("decision",),
    "jobs_evicted": ("count",),
    # -- malleable resize plane ----------------------------------------
    "resize": ("action", "unit", "reason", "weight_before", "weight_after"),
    "rebalance": (),
    "unit_completed": ("unit",),
    "slots_agreed": ("transfers",),
}


@dataclass(frozen=True)
class JobEvent:
    """One state transition, published at the simulated time it happened.

    ``job_id`` keys subscriptions: for site task transitions it is the
    site-local task id, for broker lifecycle events the federation job
    id.  ``payload`` carries transition detail (state, started_at,
    finished_at, resize action/weights, ...).
    """

    time: float
    kind: str
    job_id: str
    site: str = ""
    task_id: str = ""
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class _Subscription:
    handle: int
    callback: Callable[[JobEvent], None]
    job_id: str | None
    kinds: tuple[str, ...] | None
    site: str | None

    def matches(self, event: JobEvent) -> bool:
        if self.job_id is not None and event.job_id != self.job_id:
            return False
        if self.kinds is not None and event.kind not in self.kinds:
            return False
        if self.site is not None and event.site != self.site:
            return False
        return True


class LifecycleBus:
    """Run-to-completion pub/sub over :class:`JobEvent`.

    Job-filtered subscriptions are indexed by job id so a busy
    federation dispatches each event to the subscribers that asked for
    it, not to everyone.
    """

    def __init__(self) -> None:
        self._handles = itertools.count(1)
        #: wildcard subscribers (no job filter)
        self._wildcard: list[_Subscription] = []
        #: job-filtered subscribers, indexed by job id
        self._by_job: dict[str, list[_Subscription]] = {}
        self._where: dict[int, str | None] = {}  # handle -> index key
        #: kind -> the wildcard subscribers whose kind filter admits it
        #: (memoized; any subscription change clears it)
        self._by_kind: dict[str, list[_Subscription]] = {}
        #: events published so far
        self.published = 0
        #: subscriber callbacks that raised (isolated, never re-raised)
        self._subscriber_drops = 0
        #: site label -> the daemon publishing task transitions under it
        #: (one per label; see ``MiddlewareDaemon.attach_bus``)
        self.publishers: dict[str, Any] = {}
        #: published events not yet delivered (non-empty only mid-drain)
        self._pending: deque[JobEvent] = deque()
        self._draining = False
        #: this bus's one stage tracker; it hears every event before any
        #: subscriber does
        self.stages = StageTracker()

    @property
    def dropped(self) -> int:
        """Observer errors, isolated and never re-raised: one per
        subscriber call that raised, and one per stage-view fold that
        raised in a drain of the stage log, which reading this runs
        first (one fold covers every record logged since the last)."""
        self.stages.drain()
        return self._subscriber_drops + self.stages.dropped

    # -- subscription ---------------------------------------------------------

    def subscribe(
        self,
        callback: Callable[[JobEvent], None],
        job_id: str | None = None,
        kinds: tuple[str, ...] | None = None,
        site: str | None = None,
    ) -> int:
        """Register ``callback`` for events matching the filters;
        returns the handle :meth:`unsubscribe` takes.

        Task ids are only unique *per daemon* (every middleware queue
        numbers its tasks ``mw-task-N``), so a task-transition
        subscription on a bus fed by several sites must also pass
        ``site=`` — a bare ``job_id`` filter would hear every
        same-numbered task in the federation."""
        sub = _Subscription(next(self._handles), callback, job_id, kinds, site)
        if job_id is None:
            self._wildcard.append(sub)
            self._by_kind.clear()
        else:
            self._by_job.setdefault(job_id, []).append(sub)
        self._where[sub.handle] = job_id
        return sub.handle

    def unsubscribe(self, handle: int) -> None:
        key = self._where.pop(handle, None)
        bucket = self._wildcard if key is None else self._by_job.get(key, [])
        self._by_kind.clear()
        bucket[:] = [s for s in bucket if s.handle != handle]
        if key is not None and not bucket:
            self._by_job.pop(key, None)

    def subscriber_count(self) -> int:
        """Subscriptions on this bus; its stage tracker is not one."""
        return len(self._wildcard) + sum(len(v) for v in self._by_job.values())

    # -- publication ----------------------------------------------------------

    def publish(self, event: JobEvent) -> None:
        """Queue ``event`` and deliver it via :meth:`flush` — at once,
        or after the events ahead of it when a subscriber publishes
        from inside a running drain."""
        self.published += 1
        self._pending.append(event)
        self.flush()

    def flush(self) -> None:
        """Drain the pending queue: each event goes to every matching
        subscriber (wildcards first, then job-filtered, each in
        subscription order) before the next event is touched.  A no-op
        inside a running drain, which picks new events up itself."""
        if self._draining:
            return
        self._draining = True
        pending = self._pending
        try:
            while pending:
                event = pending.popleft()
                kind = event.kind
                wildcard = self._by_kind.get(kind)
                if wildcard is None:
                    wildcard = self._by_kind[kind] = [
                        sub for sub in self._wildcard if sub.kinds is None or kind in sub.kinds
                    ]
                targets = [self.stages.on_event]
                for sub in wildcard:
                    if sub.site is None or sub.site == event.site:
                        targets.append(sub.callback)
                for sub in self._by_job.get(event.job_id, ()):
                    if sub.matches(event):
                        targets.append(sub.callback)
                for callback in targets:
                    try:
                        callback(event)
                    except Exception:
                        self._subscriber_drops += 1
        finally:
            self._draining = False


def publish_task_transition(
    bus: LifecycleBus, now: float, site: str, task: Any, new_state: Any, by: str | None = None
) -> None:
    """The one way a middleware-queue task transition becomes a
    :class:`JobEvent` (kind = the state's value), called by each
    daemon's one queue publisher.  ``queued`` also carries the task's
    tenant (its spec's, else its session user) and program signature:
    a task no broker placement claims is its own job.  ``preempted``
    also carries ``by``, the id of the task whose arrival preempted it."""
    state = new_state.value
    payload = {"state": state, "started_at": task.started_at, "finished_at": task.finished_at,
               "priority": task.priority.label}
    if state == "queued":
        payload["tenant"] = task.metadata.get("tenant", task.user)
        payload["signature"] = program_signature(task.program)
    elif state == "preempted":
        payload["by"] = by
    bus.publish(
        JobEvent(
            time=now, kind=state, job_id=task.task_id, site=site, task_id=task.task_id, payload=payload
        )
    )


def wait_for(sim: Any, bus: LifecycleBus, job_id: str, kinds: tuple[str, ...], site: str | None = None):
    """Generator: suspend the calling simulated process until ``bus``
    publishes one of ``kinds`` for ``job_id`` (on ``site``, when given),
    and return that event.  No timer and no status read: while armed,
    the waiter holds the simulator's foreground count (see
    :meth:`~repro.simkernel.EventQueue.hold`) until the event fires or
    the waiting process is interrupted."""
    queue = sim.events
    wake = Event(name=f"wait-{job_id}")

    def fire(event: JobEvent) -> None:
        bus.unsubscribe(handle)
        wake.trigger(event)
        sim.schedule(wake)
        queue.release()

    handle = bus.subscribe(fire, job_id=job_id, kinds=kinds, site=site)
    queue.hold()
    try:
        return (yield wake)
    finally:
        if not wake.triggered:  # interrupted while armed
            bus.unsubscribe(handle)
            queue.release()
