"""Fractional QPU shares (paper §3.5).

"Without requiring changes to Slurm, we could in both cases assign 10
licenses/GRES units, corresponding to timeshares of the QPU in
increments of 10 percentage points."

Two cooperating pieces:

* :class:`TimeshareAllocator` — the bookkeeping of the 10-unit pool:
  tenants hold integer unit counts; maps directly onto Slurm licenses
  (:class:`~repro.cluster.licenses.LicensePool`) or a GRES pool.
* :class:`WeightedFairPolicy` — a deficit-weighted scheduling algorithm
  for the daemon's second-level scheduler: tenants receive QPU time in
  proportion to their held units.  It needs an allocator, so it is
  not in the registry; pass an instance as ``algorithm=`` to
  :class:`~repro.daemon.service.MiddlewareDaemon` (or
  :class:`~repro.daemon.scheduler.SecondLevelScheduler`).
"""

from __future__ import annotations

from ..errors import SchedulerError
from .algorithms.base import Decision, PendingJob, ResourceView, SchedulingAlgorithm, SystemView

__all__ = ["TimeshareAllocator", "WeightedFairPolicy"]


class TimeshareAllocator:
    """Integer unit pool (default 10 units = 10% increments)."""

    def __init__(self, total_units: int = 10) -> None:
        if total_units < 1:
            raise SchedulerError("total_units must be >= 1")
        self.total_units = total_units
        self._held: dict[str, int] = {}

    def grant(self, tenant: str, units: int) -> None:
        if units < 1:
            raise SchedulerError("must grant >= 1 unit")
        if self.allocated + units > self.total_units:
            raise SchedulerError(
                f"only {self.available} units free, requested {units}"
            )
        self._held[tenant] = self._held.get(tenant, 0) + units

    def revoke(self, tenant: str) -> int:
        return self._held.pop(tenant, 0)

    @property
    def allocated(self) -> int:
        return sum(self._held.values())

    @property
    def available(self) -> int:
        return self.total_units - self.allocated

    def share(self, tenant: str) -> float:
        """Tenant's fraction of the QPU (0 if none held)."""
        return self._held.get(tenant, 0) / self.total_units

    def holdings(self) -> dict[str, int]:
        return dict(self._held)

    def as_slurm_licenses(self, name: str = "qpu_share") -> dict[str, int]:
        """License-pool definition for the cluster config (§3.5)."""
        return {name: self.total_units}


class WeightedFairPolicy(SchedulingAlgorithm):
    """Deficit-weighted task selection over tenants (users).

    Each tenant accrues credit proportional to its share; selecting a
    tenant's task spends credit equal to the task's estimated QPU
    seconds.  The eligible tenant with the largest credit balance goes
    next, so long-run QPU time converges to the granted shares — the
    fairness property tested in ``tests/scheduling`` and measured by
    the C5 bench.  Only the most urgent priority class waiting competes,
    so a pick never undoes the preemption a production arrival made.

    ``estimate_seconds`` takes the queued task (``PendingJob.native``);
    the default is its shot count.
    """

    name = "weighted-fair"
    handles_placement = False

    def __init__(
        self,
        allocator: TimeshareAllocator,
        estimate_seconds=None,
    ) -> None:
        self.allocator = allocator
        self.estimate_seconds = estimate_seconds or (lambda task: float(task.program.shots))
        self._credit: dict[str, float] = {}
        self._last_time: float | None = None
        self.served_seconds: dict[str, float] = {}

    def _accrue(self, now: float) -> None:
        if self._last_time is None:
            self._last_time = now
            return
        elapsed = now - self._last_time
        self._last_time = now
        if elapsed <= 0:
            return
        for tenant in self.allocator.holdings():
            self._credit[tenant] = (
                self._credit.get(tenant, 0.0) + elapsed * self.allocator.share(tenant)
            )

    def _credit_of(self, tenant: str) -> float:
        # only tenants holding shares compete on credit; others are
        # best-effort and go last (zero credit)
        return self._credit.get(tenant, 0.0) + 1e-9 * self.allocator.share(tenant)

    def schedule(
        self,
        pending: tuple[PendingJob, ...],
        resources: tuple[ResourceView, ...],
        system: SystemView,
    ) -> list[Decision]:
        """Start the richest tenant's oldest task of the most urgent class
        on the first free resource; nothing when no task waits or no
        unit is free."""
        self._accrue(system.now)
        slot = next((r.name for r in resources if r.free_units > 0), None)
        if not pending or slot is None:
            return []
        urgent = min(job.priority for job in pending)
        by_tenant: dict[str, list[PendingJob]] = {}
        for job in pending:
            if job.priority == urgent:
                by_tenant.setdefault(job.tenant, []).append(job)
        tenant = max(sorted(by_tenant), key=self._credit_of)
        job = min(by_tenant[tenant], key=_submission_order)
        cost = self.estimate_seconds(job.native)
        self._credit[tenant] = self._credit.get(tenant, 0.0) - cost
        self.served_seconds[tenant] = self.served_seconds.get(tenant, 0.0) + cost
        return [Decision(kind="start", job_id=job.job_id, resource=slot)]

    def observed_shares(self) -> dict[str, float]:
        total = sum(self.served_seconds.values())
        if total == 0:
            return {}
        return {tenant: s / total for tenant, s in self.served_seconds.items()}


def _submission_order(job: PendingJob) -> tuple[float, bool, int]:
    """A tenant's oldest task first; ties on ``enqueued_at`` go to the
    task submitted first.  A requeued task (``preempt_count > 0``)
    precedes every unstarted task it ties with: this order picked it
    while they waited, or before they arrived.  Unstarted tasks keep
    their submission sequence (``submit_seq``)."""
    task = job.native
    return (task.enqueued_at, task.preempt_count == 0, job.submit_seq)
