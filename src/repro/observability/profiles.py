"""Per-workload phase profiles: what does this *kind* of job look like?

The profile-guided co-scheduling arc (ROADMAP, after Uberun) needs a
measured signature per workload class before any packing algorithm can
use one: how long does this tenant's VQE wait in queue, how much
classical time passes between submit and placement, how long does the
QPU hold it, how often does the resize loop churn it.  A
:class:`ProfileStore` is a sink of a lifecycle bus's stage tracker
(:mod:`repro.observability.stages`): every closed
:class:`~repro.observability.stages.StageInterval` is one phase
observation, so the profiles read the same records as the stage
histogram, the tracer and the SLOs, and profiling adds no
instrumentation points to the schedulers.

A :class:`ProfileStore` keys profiles by ``(tenant, program signature)``
where the signature is ``<program name>/q<qubit count>`` — distinct
program classes (VQE vs SQD vs QAA, 4-qubit vs 16-qubit) land in
distinct profiles even under one tenant.  Phase estimates update by
EWMA so the profile tracks the workload as it drifts, without storing
per-job history.  Exposure: ``broker.stats()["profiles"]`` carries the
summary, the daemon's ``GET /profiles`` REST route serves the full
snapshot of the records at its site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ObservabilityError
from .stages import program_signature

__all__ = ["PhaseProfile", "ProfileStore", "program_signature"]

#: phases a profile tracks (per-record observations, EWMA-smoothed)
PHASES = (
    "queue_wait_s",     # site queue: each wait for a (re)start
    "classical_pre_s",  # broker intake -> a unit's first dispatch
    "execute_s",        # each run on the site (a preempted run counts)
    "job_s",            # end to end, submit -> terminal
    "resize_churn",     # resize events the job attracted
)

#: stage record -> the phase it feeds
_PHASE_OF = {
    "queue-wait": "queue_wait_s",
    "classical-pre": "classical_pre_s",
    "execute": "execute_s",
    "job": "job_s",
}


@dataclass
class PhaseProfile:
    """EWMA phase estimates of one (tenant, signature) workload class."""

    tenant: str
    signature: str
    samples: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    #: per-phase observation counts (phases arrive independently: a job
    #: that failed before running contributes queue_wait but no execute)
    counts: dict[str, int] = field(default_factory=dict)

    def observe(self, phase: str, value: float, alpha: float) -> None:
        if phase not in PHASES:
            raise ObservabilityError(f"unknown profile phase {phase!r}")
        prev = self.phases.get(phase)
        self.phases[phase] = (
            value if prev is None else alpha * value + (1.0 - alpha) * prev
        )
        self.counts[phase] = self.counts.get(phase, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "signature": self.signature,
            "samples": self.samples,
            "phases": dict(self.phases),
            "counts": dict(self.counts),
        }


class ProfileStore:
    """Phase-signature registry fed by stage records.

    :meth:`attach_bus` registers the store on a lifecycle bus's stage
    tracker; a site daemon registers its own store for the records at
    its site.  Records without a tenant (no publisher named one) are
    not profiled.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ObservabilityError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self._profiles: dict[tuple[str, str], PhaseProfile] = {}
        #: stage trackers of the buses this store is attached to
        self._trackers: list[Any] = []

    # -- core -------------------------------------------------------------

    def observe(self, tenant: str, signature: str, phase: str, value: float) -> None:
        """One phase observation (also the synthetic-test entry point)."""
        key = (tenant, signature)
        profile = self._profiles.get(key) or self._new_profile(key)
        profile.observe(phase, float(value), self.alpha)

    def _new_profile(self, key: tuple[str, str]) -> PhaseProfile:
        profile = self._profiles[key] = PhaseProfile(*key)
        return profile

    # -- stage-tracker sink -----------------------------------------------

    def attach_bus(self, bus: Any) -> None:
        """Profile every stage record of a lifecycle bus (subscribe
        once per store and bus)."""
        bus.stages.add_sink(self.on_closed)
        self._trackers.append(bus.stages)

    def on_closed(self, record: Any) -> None:
        if record.tenant is None:
            return
        key = (record.tenant, record.signature)
        profile = self._profiles.get(key) or self._new_profile(key)
        profile.observe(_PHASE_OF[record.stage], record.end - record.start, self.alpha)
        if record.stage == "job":
            profile.observe("resize_churn", float(record.resizes), self.alpha)
            profile.samples += 1

    # -- queries -----------------------------------------------------------

    def get(self, tenant: str, signature: str) -> PhaseProfile:
        key = (tenant, signature)
        if key not in self._profiles:
            raise ObservabilityError(
                f"no profile for tenant {tenant!r} signature {signature!r}"
            )
        return self._profiles[key]

    def signatures(self) -> list[str]:
        """Distinct program signatures seen (across all tenants)."""
        return sorted({sig for _, sig in self._profiles})

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._profiles)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-able view keyed ``tenant|signature`` (the ``GET
        /profiles`` payload)."""
        return {
            f"{tenant}|{signature}": profile.to_dict()
            for (tenant, signature), profile in sorted(self._profiles.items())
        }

    def summary(self) -> dict[str, int]:
        """O(profiles) roll-up for ``broker.stats()``."""
        return {
            "keys": len(self._profiles),
            "signatures": len(self.signatures()),
            "jobs_profiled": sum(p.samples for p in self._profiles.values()),
            "live_jobs": sum(tracker.open_jobs() for tracker in self._trackers),
        }
