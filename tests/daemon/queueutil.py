"""Drain a middleware queue in the order the daemon's worker does."""

from repro.daemon.queue import TaskState
from repro.scheduling.algorithms import FifoPriority, daemon_views


def take_next(queue, now=0.0):
    """The task the daemon's default algorithm (``fifo-priority`` over
    ``daemon_views``) starts next, marked RUNNING at ``now``; ``None``
    when nothing is queued."""
    eligible = queue.queued_tasks()
    if not eligible:
        return None
    (start, *_) = FifoPriority().schedule(*daemon_views(eligible, now))
    task = queue.get(start.job_id)
    queue.set_state(task, TaskState.RUNNING, now)
    return task
