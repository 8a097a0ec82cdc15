"""The cluster planner: multifactor priority, first-fit placement, EASY
backfill and partition-tier preemption.

Pure algorithmic layer: :class:`Scheduler` reads cluster state (nodes,
jobs, licenses) and produces *decisions*; the controller in
:mod:`repro.cluster.slurmctld` applies them.  Keeping the policy pure
makes the Table-1 / ablation experiments easy to run: swap the policy
object, replay the same arrival trace.

"Does this job fit on these nodes?" has one answer,
:meth:`OccupancyLedger.fits`, over one node-keyed ledger of free
capacity seeded from live node state.  The three planning steps differ
only in what they move through it:

* :meth:`Scheduler.plan` commits each start of the pass,
* :meth:`Scheduler.shadow_reservation` releases completions in
  time-limit order until the blocked head fits (Wagomu's
  ``delays_head`` in node-exact form),
* :meth:`Scheduler.plan_preemption` releases victims in tier order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..errors import LicenseError
from .job import Job
from .licenses import LicensePool
from .node import Node
from .partition import Partition, PreemptMode

__all__ = [
    "OccupancyLedger",
    "PriorityCalculator",
    "Placement",
    "Scheduler",
    "SchedulingDecision",
]


@dataclass(frozen=True)
class Placement:
    """A concrete allocation decision for one job."""

    job_id: int
    node_names: tuple[str, ...]


@dataclass
class SchedulingDecision:
    """Output of one scheduling pass."""

    starts: list[Placement] = field(default_factory=list)
    backfilled: list[int] = field(default_factory=list)  # job ids started via backfill
    preemptions: list[tuple[int, int]] = field(default_factory=list)  # (victim, beneficiary)
    shadow_time: float | None = None  # reservation time for the blocked head job
    head_blocked: int | None = None


class PriorityCalculator:
    """Slurm-like multifactor priority.

    ``priority = tier_weight * partition_tier + prio_weight * job_priority
    + age_weight * min(age, max_age)``; higher is better.  FIFO tiebreak
    by job id (earlier submission wins).
    """

    def __init__(
        self,
        tier_weight: float = 10_000.0,
        prio_weight: float = 100.0,
        age_weight: float = 0.01,
        max_age: float = 86_400.0,
    ) -> None:
        self.tier_weight = tier_weight
        self.prio_weight = prio_weight
        self.age_weight = age_weight
        self.max_age = max_age

    def score(self, job: Job, partition: Partition, now: float) -> float:
        age = min(max(0.0, now - job.submit_time), self.max_age)
        return (
            self.tier_weight * partition.priority_tier
            + self.prio_weight * job.spec.priority
            + self.age_weight * age
        )

    def sort_pending(
        self, jobs: Iterable[Job], partitions: dict[str, Partition], now: float
    ) -> list[Job]:
        """Jobs in scheduling order: score desc, then submit order."""
        return sorted(
            jobs,
            key=lambda j: (-self.score(j, partitions[j.spec.partition], now), j.job_id),
        )


@dataclass
class OccupancyLedger:
    """Free cpus, memory and GRES per schedulable node, and free license
    counts: one planning step's virtual copy of cluster occupancy.

    ``commit`` and ``release`` move it without touching the cluster, so
    a plan never double-spends live capacity.  Nodes that are not
    schedulable are absent and never fit.
    """

    cpus: dict[str, int]
    memory: dict[str, int]
    gres: dict[str, dict[str, int]]
    licenses: dict[str, int]

    @classmethod
    def live(cls, nodes: Iterable[Node], licenses: LicensePool) -> OccupancyLedger:
        """Seed from the nodes' and the pool's current free capacity."""
        nodes = [node for node in nodes if node.is_schedulable()]
        return cls(
            cpus={node.name: node.cpus_available for node in nodes},
            memory={node.name: node.memory_available for node in nodes},
            gres={
                node.name: {g: pool.available for g, pool in node.gres.items()}
                for node in nodes
            },
            licenses={name: licenses.available(name) for name in licenses.names()},
        )

    def copy(self) -> OccupancyLedger:
        return OccupancyLedger(
            dict(self.cpus),
            dict(self.memory),
            {name: dict(gres) for name, gres in self.gres.items()},
            dict(self.licenses),
        )

    def fits(
        self, job: Job, partition: Partition, exclude: frozenset[str] = frozenset()
    ) -> list[str] | None:
        """First-fit nodes for ``job`` in ``partition`` (skipping
        ``exclude``), or None.  Each chosen node must fit the job's
        per-node cpus, memory and GRES; its licenses must be free."""
        spec = job.spec
        if not self.has_licenses(job):
            return None
        chosen: list[str] = []
        for node in partition.nodes:
            name = node.name
            if name in exclude or name not in self.cpus:
                continue
            if self.cpus[name] < spec.cpus or self.memory[name] < spec.memory_mb:
                continue
            free_gres = self.gres[name]
            if any(free_gres.get(g.name, 0) < g.count for g in spec.gres):
                continue
            chosen.append(name)
            if len(chosen) == spec.num_nodes:
                return chosen
        return None

    def has_licenses(self, job: Job) -> bool:
        return all(self.licenses.get(name, 0) >= count for name, count in job.spec.licenses)

    def commit(self, job: Job, node_names: Iterable[str]) -> None:
        self._move(job, node_names, -1)

    def release(self, job: Job, node_names: Iterable[str]) -> None:
        self._move(job, node_names, +1)

    def _move(self, job: Job, node_names: Iterable[str], sign: int) -> None:
        spec = job.spec
        for name in node_names:
            if name not in self.cpus:
                continue
            self.cpus[name] += sign * spec.cpus
            self.memory[name] += sign * spec.memory_mb
            free_gres = self.gres[name]
            for g in spec.gres:
                free_gres[g.name] = free_gres.get(g.name, 0) + sign * g.count
        for name, count in spec.licenses:
            if name in self.licenses:
                self.licenses[name] += sign * count


def _holds(
    running: Sequence[Job], started: Sequence[tuple[Job, list[str]]], now: float
) -> list[tuple[float, Job, list[str]]]:
    """Every allocation with its expected end, in end order: running jobs
    end at start + time limit, a pass's own starts at now + time limit."""
    holds = [
        (job.start_time + job.effective_time_limit, job, job.allocated_nodes)
        for job in running
    ]
    holds += [(now + job.effective_time_limit, job, nodes) for job, nodes in started]
    holds.sort(key=lambda hold: (hold[0], hold[1].job_id))
    return holds


class Scheduler:
    """Placement + EASY backfill + preemption planning."""

    def __init__(
        self,
        priority: PriorityCalculator | None = None,
        backfill: bool = True,
        preemption: bool = True,
    ) -> None:
        self.priority = priority or PriorityCalculator()
        self.backfill = backfill
        self.preemption = preemption

    @staticmethod
    def feasible(job: Job, partition: Partition, licenses: LicensePool) -> bool:
        """Could the job *ever* run on an empty partition? Used to fail
        impossible submissions fast instead of queueing them forever."""
        spec = job.spec
        fitting = [
            n
            for n in partition.nodes
            if n.could_ever_fit(spec.cpus, spec.memory_mb, spec.gres)
        ]
        if len(fitting) < spec.num_nodes:
            return False
        for name, count in spec.licenses:
            try:
                if count > licenses.total(name):
                    return False
            except LicenseError:  # an unknown license never fits
                return False
        return True

    # -- shadow-time computation (EASY backfill) ---------------------------

    def shadow_reservation(
        self,
        head: Job,
        partition: Partition,
        running: Sequence[Job],
        licenses: LicensePool,
        now: float,
    ) -> tuple[float, frozenset[str]]:
        """Earliest time the blocked head job could start on live
        occupancy, and the nodes it would then occupy (see
        :meth:`_reserve`)."""
        ledger = OccupancyLedger.live(partition.nodes, licenses)
        when, nodes, _ = self._reserve(head, partition, ledger, _holds(running, (), now), now)
        return when, nodes

    @staticmethod
    def _reserve(
        head: Job,
        partition: Partition,
        ledger: OccupancyLedger,
        holds: list[tuple[float, Job, list[str]]],
        now: float,
    ) -> tuple[float, frozenset[str], OccupancyLedger]:
        """Release ``holds`` (see :func:`_holds`) into ``ledger`` in end
        order; the first instant the head fits is the shadow time.

        Returns that time (infinite when the head never fits), the nodes
        the head would then occupy, and ``ledger`` as of that instant.
        """
        when, nodes = now, ledger.fits(head, partition)
        for end, job, held in holds:
            if nodes is not None:
                break
            ledger.release(job, held)
            when, nodes = max(now, end), ledger.fits(head, partition)
        if nodes is None:
            return float("inf"), frozenset(), ledger
        return when, frozenset(nodes), ledger

    # -- preemption planning ------------------------------------------------

    def plan_preemption(
        self,
        head: Job,
        partition: Partition,
        partitions: dict[str, Partition],
        running: Sequence[Job],
        licenses: LicensePool,
    ) -> list[Job] | None:
        """Pick victims so that ``head`` could start after their removal.

        Victims must be in strictly lower-tier partitions with a
        preemption mode other than OFF.  Preference: lowest tier first,
        then most recently started (minimizing lost work).  Returns the
        victim list, or None if no sufficient victim set exists.
        """
        head_tier = partition.priority_tier
        head_nodes = set(partition.node_names())
        candidates = [
            job
            for job in running
            if partitions[job.spec.partition].priority_tier < head_tier
            and partitions[job.spec.partition].preempt_mode is not PreemptMode.OFF
            # Victim must share at least one node with the head's partition
            and not head_nodes.isdisjoint(job.allocated_nodes)
        ]
        if not candidates:
            return None
        candidates.sort(
            key=lambda j: (
                partitions[j.spec.partition].priority_tier,
                -(j.start_time or 0.0),
            )
        )
        # Greedily add victims until the head fits on the freed capacity.
        ledger = OccupancyLedger.live(partition.nodes, licenses)
        victims: list[Job] = []
        for victim in candidates:
            if ledger.fits(head, partition) is not None:
                break
            victims.append(victim)
            ledger.release(victim, victim.allocated_nodes)
        return victims if ledger.fits(head, partition) is not None else None

    # -- the full pass ------------------------------------------------------

    def plan(
        self,
        pending: Sequence[Job],
        running: Sequence[Job],
        partitions: dict[str, Partition],
        licenses: LicensePool,
        now: float,
    ) -> SchedulingDecision:
        """One scheduling pass: priority order + EASY backfill.

        Jobs start first-fit in priority order until one does not fit:
        the head.  Its reservation is replayed from this pass's ledger,
        so the pass's own starts count.  A later job is backfilled only
        if it cannot delay the head: it ends by the shadow time, or it
        avoids the reserved nodes (whatever its partition) and leaves
        the head's licenses free at the shadow time.

        Does NOT mutate cluster state; the controller applies the
        decision (and re-invokes planning after preemption completes,
        since victims release resources asynchronously).
        """
        decision = SchedulingDecision()
        ledger = OccupancyLedger.live(
            (node for partition in partitions.values() for node in partition.nodes),
            licenses,
        )
        started: list[tuple[Job, list[str]]] = []
        reserved: frozenset[str] = frozenset()
        at_shadow = ledger  # set with the reservation: occupancy at the shadow time

        for job in self.priority.sort_pending(pending, partitions, now):
            partition = partitions[job.spec.partition]
            if decision.head_blocked is None:
                nodes = ledger.fits(job, partition)
                if nodes is None:
                    decision.head_blocked = job.job_id
                    if not self.backfill:
                        break
                    decision.shadow_time, reserved, at_shadow = self._reserve(
                        job, partition, ledger.copy(), _holds(running, started, now), now
                    )
                    at_shadow.commit(job, reserved)
                    continue
            else:
                runs_past = now + job.effective_time_limit > decision.shadow_time
                nodes = None
                if not runs_past or at_shadow.has_licenses(job):
                    nodes = ledger.fits(job, partition, reserved)
                if nodes is None and not runs_past:
                    nodes = ledger.fits(job, partition)
                if nodes is None:
                    continue
                if runs_past:
                    at_shadow.commit(job, nodes)
                decision.backfilled.append(job.job_id)
            decision.starts.append(Placement(job.job_id, tuple(nodes)))
            ledger.commit(job, nodes)
            started.append((job, nodes))
        return decision
