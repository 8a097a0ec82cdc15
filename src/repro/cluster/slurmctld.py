"""The cluster controller (slurmctld analogue).

Event-driven facade over the scheduling algorithms: owns nodes,
partitions, the license pool, the pending queue and running set, and
drives job lifecycles as simulated processes.  Public methods mirror the
Slurm user tools:

* :meth:`submit` / :meth:`submit_script`  — ``sbatch``
* :meth:`cancel`                          — ``scancel``
* :meth:`squeue` / :meth:`sinfo`          — introspection
* :attr:`accounting`                      — ``sacct``

The controller fires SPANK hooks at submit/start/end/preempt, which is
where the QRMI Slurm plugin (``repro.qrmi.slurm_plugin``) attaches.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from ..errors import (
    JobError,
    PartitionError,
    ResourceUnavailable,
)
from ..simkernel import Interrupt, Simulator, Timeout, TraceRecorder
from .accounting import AccountingDB
from .job import Job, JobSpec, JobState
from .jobscript import JobScript
from .licenses import LicensePool
from .node import Node
from .partition import Partition, PreemptMode
from .scheduler import Scheduler
from .spank import SpankHook, SpankRegistry

__all__ = ["JobContext", "SlurmController"]


@dataclass
class JobContext:
    """Execution context handed to a hybrid job's payload generator."""

    sim: Simulator
    job: Job
    controller: "SlurmController"

    @property
    def env(self) -> dict[str, str]:
        return self.job.env

    @property
    def now(self) -> float:
        return self.sim.now


class SlurmController:
    """Discrete-event Slurm-like controller."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Iterable[Node],
        partitions: Iterable[Partition],
        licenses: LicensePool | None = None,
        scheduler: Scheduler | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.nodes = {node.name: node for node in nodes}
        self.partitions = {p.name: p for p in partitions}
        if not self.partitions:
            raise PartitionError("controller needs at least one partition")
        for partition in self.partitions.values():
            for node in partition.nodes:
                if node.name not in self.nodes:
                    raise PartitionError(
                        f"partition {partition.name!r} references unknown node {node.name!r}"
                    )
        self.licenses = licenses or LicensePool()
        self.scheduler = scheduler or Scheduler()
        self.trace = trace if trace is not None else TraceRecorder()
        self.spank = SpankRegistry()
        self.accounting = AccountingDB()
        self.jobs: dict[int, Job] = {}
        self._pending: list[Job] = []
        self._running: dict[int, Job] = {}
        self._job_ids = itertools.count(1)
        self._job_processes: dict[int, Any] = {}
        self._watchdogs: dict[int, Any] = {}
        self._schedule_armed = False

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> int:
        """Submit a job; returns its id.  Raises if the spec can never run."""
        if spec.partition not in self.partitions:
            raise PartitionError(f"unknown partition {spec.partition!r}")
        partition = self.partitions[spec.partition]
        job = Job(next(self._job_ids), spec, submit_time=self.sim.now)
        job.effective_time_limit = partition.clamp_time_limit(spec.time_limit)
        if not Scheduler.feasible(job, partition, self.licenses):
            raise ResourceUnavailable(
                f"job {spec.name!r} can never be satisfied by partition {spec.partition!r}"
            )
        # SPANK submit hooks may veto (raise) or mutate job.env.
        self.spank.fire(SpankHook.JOB_SUBMIT, job, self)
        self.jobs[job.job_id] = job
        self._pending.append(job)
        self.trace.emit(
            self.sim.now,
            "slurm",
            "job_submit",
            job_id=job.job_id,
            name=spec.name,
            user=spec.user,
            partition=spec.partition,
        )
        self._arm_schedule()
        return job.job_id

    def submit_script(self, text: str, user: str = "user", duration: float | None = None) -> int:
        """``sbatch``-style submission from a batch script."""
        return self.submit(JobScript(text).to_spec(user=user, duration=duration))

    def cancel(self, job_id: int) -> None:
        job = self._get_job(job_id)
        if job.is_terminal:
            return
        if job.is_pending or job.state is JobState.PREEMPTED:
            if job in self._pending:
                self._pending.remove(job)
            job.transition(JobState.CANCELLED, self.sim.now)
            self._finalize(job)
        elif job.is_running:
            process = self._job_processes.get(job_id)
            if process is not None and process.alive:
                process.interrupt(cause=("cancelled",))
        self.trace.emit(self.sim.now, "slurm", "job_cancel", job_id=job_id)

    # -- queries -------------------------------------------------------------

    def squeue(self) -> list[dict[str, Any]]:
        rows = []
        for job in sorted(self.jobs.values(), key=lambda j: j.job_id):
            if job.is_terminal:
                continue
            rows.append(
                {
                    "job_id": job.job_id,
                    "name": job.spec.name,
                    "user": job.spec.user,
                    "partition": job.spec.partition,
                    "state": job.state.value,
                    "nodes": list(job.allocated_nodes),
                    "submit_time": job.submit_time,
                }
            )
        return rows

    def sinfo(self) -> list[dict[str, Any]]:
        rows = []
        for partition in self.partitions.values():
            for node in partition.nodes:
                rows.append(
                    {
                        "partition": partition.name,
                        "node": node.name,
                        "state": node.state.value,
                        "cpus": f"{node.cpus_allocated}/{node.schedulable_cpus}",
                        "gres": {g: f"{p.allocated}/{p.total}" for g, p in node.gres.items()},
                    }
                )
        return rows

    def _get_job(self, job_id: int) -> Job:
        if job_id not in self.jobs:
            raise JobError(f"unknown job {job_id}", job_id=job_id)
        return self.jobs[job_id]

    # -- scheduling loop -------------------------------------------------

    def _arm_schedule(self) -> None:
        """Coalesce multiple triggers into one pass at the current time."""
        if self._schedule_armed:
            return
        self._schedule_armed = True
        self.sim.call_in(0.0, self._run_schedule_pass, name="sched-pass")

    def _run_schedule_pass(self) -> None:
        self._schedule_armed = False
        decision = self.scheduler.plan(
            self._pending,
            list(self._running.values()),
            self.partitions,
            self.licenses,
            self.sim.now,
        )
        started_ids = set()
        for placement in decision.starts:
            job = self.jobs[placement.job_id]
            self._start_job(job, list(placement.node_names))
            started_ids.add(job.job_id)
            if placement.job_id in decision.backfilled:
                self.trace.emit(
                    self.sim.now, "slurm", "job_backfilled", job_id=job.job_id
                )
        # Preemption: if the head is still blocked, try to free capacity.
        if (
            self.scheduler.preemption
            and decision.head_blocked is not None
            and decision.head_blocked not in started_ids
        ):
            head = self.jobs[decision.head_blocked]
            if head.is_pending:
                partition = self.partitions[head.spec.partition]
                victims = self.scheduler.plan_preemption(
                    head,
                    partition,
                    self.partitions,
                    list(self._running.values()),
                    self.licenses,
                )
                if victims:
                    for victim in victims:
                        self._preempt_job(victim, beneficiary=head.job_id)
                    # Resources release asynchronously; a new pass is armed
                    # by each victim's teardown.

    def _start_job(self, job: Job, node_names: list[str]) -> None:
        spec = job.spec
        nodes = [self.nodes[name] for name in node_names]
        for node in nodes:
            node.allocate(job.job_id, spec.cpus, spec.memory_mb, spec.gres)
        self.licenses.acquire(job.job_id, dict(spec.licenses))
        job.allocated_nodes = node_names
        self._pending.remove(job)
        job.transition(JobState.RUNNING, self.sim.now)
        self._running[job.job_id] = job
        self.spank.fire(SpankHook.JOB_START, job, self)
        self.trace.emit(
            self.sim.now,
            "slurm",
            "job_start",
            job_id=job.job_id,
            nodes=tuple(node_names),
            partition=spec.partition,
        )
        process = self.sim.spawn(self._job_runner(job), name=f"job-{job.job_id}")
        self._job_processes[job.job_id] = process
        # Wall-clock limit watchdog.
        limit = job.effective_time_limit
        entry = self.sim.call_in(
            limit, lambda: self._fire_watchdog(job.job_id), name=f"watchdog-{job.job_id}"
        )
        self._watchdogs[job.job_id] = entry

    def _fire_watchdog(self, job_id: int) -> None:
        job = self.jobs.get(job_id)
        if job is None or not job.is_running:
            return
        process = self._job_processes.get(job_id)
        if process is not None and process.alive:
            process.interrupt(cause=("timeout",))

    def _job_runner(self, job: Job):
        """The simulated process executing one job."""
        outcome = JobState.COMPLETED
        try:
            if job.spec.payload is not None:
                context = JobContext(sim=self.sim, job=job, controller=self)
                job.result = yield from job.spec.payload(context)
            else:
                yield Timeout(job.spec.duration)
        except Interrupt as intr:
            cause = intr.cause if isinstance(intr.cause, tuple) else (intr.cause,)
            kind = cause[0] if cause else None
            if kind == "timeout":
                outcome = JobState.TIMEOUT
                job.exit_info = "wall-clock limit exceeded"
            elif kind == "cancelled":
                outcome = JobState.CANCELLED
            elif kind == "preempted":
                self._teardown_preempted(job)
                return
            else:
                outcome = JobState.FAILED
                job.exit_info = f"interrupted: {intr.cause!r}"
        except Exception as err:  # payload bug or deliberate failure
            outcome = JobState.FAILED
            job.exit_info = f"{type(err).__name__}: {err}"
        job.transition(outcome, self.sim.now)
        self._release_resources(job)
        self._finalize(job)

    def _preempt_job(self, victim: Job, beneficiary: int) -> None:
        partition = self.partitions[victim.spec.partition]
        self.trace.emit(
            self.sim.now,
            "slurm",
            "job_preempt",
            job_id=victim.job_id,
            beneficiary=beneficiary,
            mode=partition.preempt_mode.value,
        )
        self.spank.fire(SpankHook.JOB_PREEMPT, victim, self)
        process = self._job_processes.get(victim.job_id)
        if process is not None and process.alive:
            process.interrupt(cause=("preempted", beneficiary))

    def _teardown_preempted(self, job: Job) -> None:
        """Finish preemption bookkeeping inside the victim's runner frame."""
        partition = self.partitions[job.spec.partition]
        job.transition(JobState.PREEMPTED, self.sim.now)
        self._release_resources(job)
        requeue = (
            partition.preempt_mode is PreemptMode.REQUEUE and job.spec.requeue_on_preempt
        )
        if requeue:
            job.transition(JobState.PENDING, self.sim.now)
            job.allocated_nodes = []
            self._pending.append(job)
            self.trace.emit(self.sim.now, "slurm", "job_requeue", job_id=job.job_id)
        else:
            job.transition(JobState.CANCELLED, self.sim.now)
            job.exit_info = "preempted (cancel mode)"
            self._finalize(job)
        self._arm_schedule()

    def _release_resources(self, job: Job) -> None:
        for node_name in job.allocated_nodes:
            self.nodes[node_name].release(job.job_id)
        self.licenses.release(job.job_id)
        self._running.pop(job.job_id, None)
        self._job_processes.pop(job.job_id, None)
        watchdog = self._watchdogs.pop(job.job_id, None)
        if watchdog is not None:
            self.sim.events.cancel(watchdog)

    def _finalize(self, job: Job) -> None:
        self.spank.fire(SpankHook.JOB_END, job, self)
        self.accounting.record(job)
        self.trace.emit(
            self.sim.now,
            "slurm",
            "job_end",
            job_id=job.job_id,
            state=job.state.value,
            partition=job.spec.partition,
        )
        self._arm_schedule()

    # -- admin ----------------------------------------------------------------

    def drain_node(self, name: str) -> None:
        self.nodes[name].set_drain()
        self.trace.emit(self.sim.now, "slurm", "node_drain", node=name)

    def resume_node(self, name: str) -> None:
        self.nodes[name].resume()
        self.trace.emit(self.sim.now, "slurm", "node_resume", node=name)
        self._arm_schedule()
