"""Adapter views: each scheduling loop's state in the common vocabulary.

Two builders, one per loop.  Both duck-type their inputs — this
module imports nothing from ``daemon``/``federation``, so the
algorithms package stays import-light and cycle-free:

* :func:`daemon_views` — queued ``QueuedTask``s in front of the single
  second-level worker slot,
* :func:`federation_views` — one ``FederatedJob`` over candidate
  ``SiteSnapshot``s, with each site's backlog synthesized as one
  running unit that drains in ``queue_depth`` time units (so shadow
  reservations rank sites by how soon their backlog clears).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from .base import PendingJob, ResourceView, RunningUnit, SystemView

__all__ = ["daemon_views", "federation_views"]

DAEMON_WORKER = "qpu-worker"


def daemon_views(
    tasks: Sequence[Any], now: float
) -> tuple[tuple[PendingJob, ...], tuple[ResourceView, ...], SystemView]:
    """Queued daemon tasks in front of one free worker slot.

    ``submit_seq`` is the queue's sequence number of the task's latest
    (re)queueing, so FIFO order sends a requeued preempted task to the
    back of its class.  A task keeps its view (``task._pending_view``)
    across calls until a requeue gives it a new sequence number.
    """
    pending = tuple(map(_daemon_view, tasks))
    resources = (ResourceView(name=DAEMON_WORKER, total_units=1, free_units=1),)
    return pending, resources, SystemView(now=now)


def _daemon_view(task: Any) -> PendingJob:
    view = task._pending_view
    if view is None or view.submit_seq != task._seq:
        view = task._pending_view = PendingJob(
            job_id=task.task_id,
            priority=int(task.priority),
            submit_seq=task._seq,
            units=1,
            tenant=task.user,
            native=task,
        )
    return view


def federation_views(
    job: Any, candidates: Iterable[Any], now: float
) -> tuple[tuple[PendingJob, ...], tuple[ResourceView, ...], SystemView]:
    """One federated job over its candidate site snapshots."""
    spec = getattr(job, "spec", None)
    pending = (
        PendingJob(
            job_id=job.job_id,
            units=1,
            tenant=getattr(job, "owner", ""),
            malleable=bool(getattr(spec, "malleable", False)),
            min_units=getattr(spec, "min_units", None),
            max_units=getattr(spec, "max_units", None),
            native=job,
        ),
    )
    resources = tuple(
        ResourceView(
            name=snap.name,
            total_units=snap.max_queue_depth,
            free_units=snap.headroom,
            running=(
                (RunningUnit("backlog", snap.queue_depth, now + snap.queue_depth),)
                if snap.queue_depth
                else ()
            ),
            native=snap,
        )
        for snap in candidates
    )
    return pending, resources, SystemView(now=now)
