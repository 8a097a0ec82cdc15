"""Per-workload phase profiles: what does this *kind* of job look like?

The profile-guided co-scheduling arc (ROADMAP, after Uberun) needs a
measured signature per workload class before any packing algorithm can
use one: how long does this tenant's VQE wait in queue, how much
classical time passes between submit and placement, how long does the
QPU hold it, how often does the resize loop churn it.  This module
derives exactly that from streams the stack already produces — the
:class:`~repro.federation.events.LifecycleBus` on the federation side,
the middleware queue's transition listeners on the daemon side — so
profiling adds no new instrumentation points to the schedulers.

A :class:`ProfileStore` keys profiles by ``(tenant, program signature)``
where the signature is ``<program name>/q<qubit count>`` — distinct
program classes (VQE vs SQD vs QAA, 4-qubit vs 16-qubit) land in
distinct profiles even under one tenant.  Phase estimates update by
EWMA so the profile tracks the workload as it drifts, without storing
per-job history.  Exposure: ``broker.stats()["profiles"]`` carries the
summary, the daemon's ``GET /profiles`` REST route serves the full
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ObservabilityError

__all__ = ["PhaseProfile", "ProfileStore", "program_signature"]

#: phases a profile tracks (per-job observations, EWMA-smoothed)
PHASES = (
    "queue_wait_s",     # site queue: QUEUED -> RUNNING
    "classical_pre_s",  # broker intake -> first placement (admission etc.)
    "execute_s",        # RUNNING -> terminal (QPU + classical shot loop)
    "job_s",            # end to end, submit -> terminal
    "resize_churn",     # resize events the job attracted
)


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
    """Phase-signature registry fed by lifecycle events.

    Two equivalent inputs:

    * :meth:`attach_bus` — federation side: job identity rides the
      broker's enriched ``job_submitted`` payload, task transitions
      resolve through the ``job_placed`` (site, task_id) binding,
    * :meth:`queue_listener` — daemon side: every middleware-queue task
      transition maps directly (tenant from the task's spec metadata,
      falling back to the session user).
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ObservabilityError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self._profiles: dict[tuple[str, str], PhaseProfile] = {}
        #: live fixed-size/malleable jobs: job_id -> mutable tracking
        self._jobs: dict[str, dict[str, Any]] = {}
        #: (site, task_id) -> job_id for bus task transitions
        self._task_to_job: dict[tuple[str, str], str] = {}
        #: open task-stage timestamps, buffered independently of the
        #: job binding: sites publish the "queued" transition *before*
        #: the broker's "job_placed" establishes the binding
        self._task_times: dict[tuple[str, str], dict[str, float]] = {}
        #: daemon-side per-task tracking: task_id -> (tenant, signature)
        self._queue_tasks: dict[str, tuple[str, str]] = {}

    # -- core -------------------------------------------------------------

    def observe(self, tenant: str, signature: str, phase: str, value: float) -> None:
        """One phase observation (also the synthetic-test entry point)."""
        key = (tenant, signature)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles[key] = PhaseProfile(tenant, signature)
        profile.observe(phase, float(value), self.alpha)

    def _finish_job(self, tenant: str, signature: str) -> None:
        key = (tenant, signature)
        profile = self._profiles.get(key)
        if profile is not None:
            profile.samples += 1

    # -- LifecycleBus adapter ---------------------------------------------

    def attach_bus(self, bus: Any) -> None:
        """Subscribe to a federation lifecycle bus (idempotent per
        store-and-bus pair is not tracked — subscribe once)."""
        bus.subscribe(self._on_event)

    def _on_event(self, event: Any) -> None:
        kind = event.kind
        if event.task_id and not kind.startswith("job_"):
            self._on_task_event(event, kind)
            return
        if kind in ("job_submitted", "job_held"):
            tenant = event.payload.get("tenant")
            if tenant is None:
                return  # pre-enrichment publisher: nothing to key on
            signature = (
                f"{event.payload.get('program', 'program')}"
                f"/q{int(event.payload.get('qubits', 0))}"
            )
            self._jobs.setdefault(
                event.job_id,
                {
                    "tenant": tenant,
                    "signature": signature,
                    "submitted_at": event.time,
                    "placed": False,
                    "resizes": 0,
                },
            )
        elif kind == "job_placed":
            job = self._jobs.get(event.job_id)
            if job is None:
                return
            if not job["placed"]:
                job["placed"] = True
                self.observe(
                    job["tenant"],
                    job["signature"],
                    "classical_pre_s",
                    event.time - job["submitted_at"],
                )
            if event.site and event.task_id:
                self._task_to_job[(event.site, event.task_id)] = event.job_id
        elif kind == "resize":
            job = self._jobs.get(event.job_id)
            if job is not None:
                job["resizes"] += 1
        elif kind in ("job_completed", "job_failed"):
            job = self._jobs.pop(event.job_id, None)
            if job is None:
                return
            tenant, signature = job["tenant"], job["signature"]
            self.observe(tenant, signature, "job_s", event.time - job["submitted_at"])
            self.observe(tenant, signature, "resize_churn", float(job["resizes"]))
            self._finish_job(tenant, signature)

    def _job_for(self, key: tuple[str, str]) -> dict[str, Any] | None:
        job_id = self._task_to_job.get(key)
        return None if job_id is None else self._jobs.get(job_id)

    def _on_task_event(self, event: Any, kind: str) -> None:
        key = (event.site, event.task_id)
        times = self._task_times.setdefault(key, {})
        if kind == "queued":
            times["queued"] = event.time
            return
        job = self._job_for(key)
        if kind == "running":
            queued_at = times.pop("queued", None)
            if job is not None and queued_at is not None:
                self.observe(
                    job["tenant"], job["signature"], "queue_wait_s",
                    event.time - queued_at,
                )
            times["running"] = event.time
        elif kind == "preempted":
            times.pop("running", None)
        elif kind in ("completed", "failed", "cancelled"):
            running_at = times.pop("running", None)
            if job is not None and running_at is not None:
                self.observe(
                    job["tenant"], job["signature"], "execute_s",
                    event.time - running_at,
                )
            self._task_times.pop(key, None)
            self._task_to_job.pop(key, None)

    # -- middleware-queue adapter -----------------------------------------

    def queue_listener(self):
        """A :meth:`MiddlewareQueue.add_transition_listener` callback
        feeding this store from daemon task transitions."""

        def on_transition(task: Any, old: Any, new: Any) -> None:
            state = getattr(new, "value", new)
            if state == "queued":
                tenant = task.metadata.get("tenant", task.user)
                self._queue_tasks[task.task_id] = (
                    tenant, program_signature(task.program)
                )
                return
            ident = self._queue_tasks.get(task.task_id)
            if ident is None:
                return
            tenant, signature = ident
            if state == "running":
                wait = task.wait_time()
                if wait is not None:
                    self.observe(tenant, signature, "queue_wait_s", wait)
            elif state in ("completed", "failed", "cancelled"):
                if task.started_at is not None and task.finished_at is not None:
                    self.observe(
                        tenant, signature, "execute_s",
                        task.finished_at - task.started_at,
                    )
                if task.finished_at is not None:
                    self.observe(
                        tenant, signature, "job_s",
                        task.finished_at - task.enqueued_at,
                    )
                self._finish_job(tenant, signature)
                self._queue_tasks.pop(task.task_id, None)

        return on_transition

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
            "live_jobs": len(self._jobs),
        }
