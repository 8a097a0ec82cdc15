"""FIFO-within-priority-class: the daemon queue's default discipline.

The next job is the queued one with the lowest ``(priority,
submit_seq)`` key — priority classes strictly ordered, FIFO inside a
class, and a requeued (preempted) task goes to the *back* of its class
because the queue assigns it a fresh sequence number on requeue.

Generalized to many resources for the sweep simulator: strict
non-skipping FCFS — fill resources in order until the first job that
fits nowhere, then stop (no backfilling; that is EASY's job).
"""

from __future__ import annotations

from .base import Decision, PendingJob, ResourceView, SchedulingAlgorithm, SystemView, register

__all__ = ["FifoPriority"]


@register
class FifoPriority(SchedulingAlgorithm):

    name = "fifo-priority"

    def schedule(
        self,
        pending: tuple[PendingJob, ...],
        resources: tuple[ResourceView, ...],
        system: SystemView,
    ) -> list[Decision]:
        free = {r.name: r.free_units for r in resources}
        decisions: list[Decision] = []
        for job in sorted(pending, key=lambda j: (j.priority, j.submit_seq)):
            placed = False
            for resource in resources:
                if free[resource.name] >= job.units:
                    free[resource.name] -= job.units
                    decisions.append(
                        Decision(kind="start", job_id=job.job_id, resource=resource.name, units=job.units)
                    )
                    placed = True
                    break
            if not placed:
                # strict FIFO: the head blocks everything behind it
                break
        return decisions
