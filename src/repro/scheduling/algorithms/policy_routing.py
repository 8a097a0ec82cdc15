"""The federation broker's legacy placement, as an algorithm.

Wraps any federation routing policy (round-robin / least-queue /
calibration-aware / sticky — anything with ``choose(job, candidates,
now)``) so the broker's placement step goes through the common
:class:`~repro.scheduling.algorithms.base.SchedulingAlgorithm` surface.
The policy is called exactly once per pending job with the *native*
job and candidate snapshots, so stateful policies (the round-robin
cursor, sticky affinity tables) advance exactly as they did when the
broker called them directly — bit-identical routing.

Without a wrapped policy it falls back to least-loaded routing over
the generic view, which keeps the algorithm usable from the sweep
simulator where no federation objects exist.
"""

from __future__ import annotations

from typing import Any

from .base import Decision, PendingJob, ResourceView, SchedulingAlgorithm, SystemView, register

__all__ = ["PolicyRouting"]


@register
class PolicyRouting(SchedulingAlgorithm):

    name = "policy-routing"
    handles_dispatch = False

    def __init__(
        self, policy: Any = None, convert_when_saturated: bool = False
    ) -> None:
        self.policy = policy
        self.convert_when_saturated = convert_when_saturated

    def schedule(
        self,
        pending: tuple[PendingJob, ...],
        resources: tuple[ResourceView, ...],
        system: SystemView,
    ) -> list[Decision]:
        decisions: list[Decision] = []
        natives = [r.native for r in resources if r.native is not None]
        for job in pending:
            if self.policy is not None and job.native is not None and natives:
                choice = self.policy.choose(job.native, natives, system.now)
                target = choice.name
            else:
                target = min(
                    resources,
                    key=lambda r: (r.total_units - r.free_units, r.name),
                ).name
            decisions.append(Decision(kind="place", job_id=job.job_id, resource=target))
        return decisions
