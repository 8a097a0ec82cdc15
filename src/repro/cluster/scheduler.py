"""Scheduling algorithms: multifactor priority, placement, EASY backfill,
and partition-tier preemption.

Pure algorithmic layer: these classes read cluster state (nodes, jobs,
licenses) and produce *decisions*; the controller in
:mod:`repro.cluster.slurmctld` applies them.  Keeping the policy pure
makes the Table-1 / ablation experiments easy to run: swap the policy
object, replay the same arrival trace.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..errors import LicenseError
from ..scheduling.algorithms import SchedulingAlgorithm, SystemView, cluster_views, resolve
from .job import Job
from .licenses import LicensePool
from .node import Node
from .partition import Partition, PreemptMode

__all__ = [
    "AlgorithmScheduler",
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


class _VirtualOccupancy:
    """One scheduling pass's virtual ledger: licenses and per-node
    cpu/mem/gres already committed to earlier decisions in the same
    pass, so one plan never double-spends live capacity."""

    def __init__(self, licenses: LicensePool) -> None:
        self.licenses = licenses
        self.taken_licenses: dict[str, int] = {}
        self.taken_nodes: dict[str, tuple[int, int, dict[str, int]]] = {}

    def fits(
        self, job: Job, partition: Partition, exclude: frozenset[str] = frozenset()
    ) -> list[str] | None:
        spec = job.spec
        for lname, lcount in spec.licenses:
            if self.licenses.available(lname) - self.taken_licenses.get(lname, 0) < lcount:
                return None
        chosen: list[str] = []
        for node in partition.schedulable_nodes():
            if node.name in exclude:
                continue
            taken_cpus, taken_mem, taken_gres = self.taken_nodes.get(
                node.name, (0, 0, {})
            )
            if node.cpus_available - taken_cpus < spec.cpus:
                continue
            if node.memory_available - taken_mem < spec.memory_mb:
                continue
            if any(
                g.name not in node.gres
                or node.gres[g.name].available - taken_gres.get(g.name, 0) < g.count
                for g in spec.gres
            ):
                continue
            chosen.append(node.name)
            if len(chosen) == spec.num_nodes:
                return chosen
        return None

    def commit(self, job: Job, node_names: list[str]) -> None:
        for lname, lcount in job.spec.licenses:
            self.taken_licenses[lname] = self.taken_licenses.get(lname, 0) + lcount
        for name in node_names:
            cpus, mem, gres = self.taken_nodes.get(name, (0, 0, {}))
            new_gres = dict(gres)
            for g in job.spec.gres:
                new_gres[g.name] = new_gres.get(g.name, 0) + g.count
            self.taken_nodes[name] = (
                cpus + job.spec.cpus,
                mem + job.spec.memory_mb,
                new_gres,
            )


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

    # -- placement --------------------------------------------------------

    @staticmethod
    def find_nodes(
        job: Job,
        candidates: Sequence[Node],
        exclude: frozenset[str] = frozenset(),
    ) -> list[Node] | None:
        """First-fit node selection for ``num_nodes`` nodes.

        Each selected node must fit ``cpus``/``memory``/GRES of the job
        (Slurm's per-node semantics for ``--nodes N --cpus-per-task c``).
        Returns None when no placement exists right now.
        """
        spec = job.spec
        chosen: list[Node] = []
        for node in candidates:
            if node.name in exclude:
                continue
            if node.can_fit(spec.cpus, spec.memory_mb, spec.gres):
                chosen.append(node)
                if len(chosen) == spec.num_nodes:
                    return chosen
        return None

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
        """Earliest time the blocked head job could start, and the nodes
        it would then occupy.

        We replay expected completions (start + effective time limit) in
        order on a virtual copy of node occupancy; the first instant the
        head fits is the shadow time.  Licenses are replayed the same way.
        """
        spec = head.spec
        # Virtual free capacity per node.
        free_cpus = {n.name: n.cpus_available for n in partition.nodes if n.is_schedulable()}
        free_mem = {n.name: n.memory_available for n in partition.nodes if n.is_schedulable()}
        free_gres = {
            n.name: {g: p.available for g, p in n.gres.items()}
            for n in partition.nodes
            if n.is_schedulable()
        }
        lic_free = {name: licenses.available(name) for name in licenses.names()}
        node_by_name = {n.name: n for n in partition.nodes}

        def head_fits() -> frozenset[str] | None:
            chosen: list[str] = []
            for name in free_cpus:
                node = node_by_name[name]
                if free_cpus[name] < spec.cpus or free_mem[name] < spec.memory_mb:
                    continue
                if any(
                    g.name not in node.gres or free_gres[name].get(g.name, 0) < g.count
                    for g in spec.gres
                ):
                    continue
                chosen.append(name)
                if len(chosen) == spec.num_nodes:
                    break
            if len(chosen) < spec.num_nodes:
                return None
            for lname, lcount in spec.licenses:
                if lic_free.get(lname, 0) < lcount:
                    return None
            return frozenset(chosen)

        nodes_now = head_fits()
        if nodes_now is not None:
            return now, nodes_now

        events = sorted(
            (
                (job.start_time or now) + job.effective_time_limit,
                job.job_id,
                job,
            )
            for job in running
        )
        for end_time, _, job in events:
            for node_name in job.allocated_nodes:
                if node_name in free_cpus:
                    free_cpus[node_name] += job.spec.cpus
                    free_mem[node_name] += job.spec.memory_mb
                    for g in job.spec.gres:
                        free_gres[node_name][g.name] = (
                            free_gres[node_name].get(g.name, 0) + g.count
                        )
            for lname, lcount in job.spec.licenses:
                if lname in lic_free:
                    lic_free[lname] += lcount
            nodes_then = head_fits()
            if nodes_then is not None:
                return max(now, end_time), nodes_then
        # Infeasible even when everything drains — report "infinite" shadow.
        return float("inf"), frozenset()

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
        candidates = [
            job
            for job in running
            if partitions[job.spec.partition].priority_tier < head_tier
            and partitions[job.spec.partition].preempt_mode is not PreemptMode.OFF
            # Victim must share at least one node with the head's partition
            and any(n in {pn.name for pn in partition.nodes} for n in job.allocated_nodes)
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
        spec = head.spec
        free_cpus = {n.name: n.cpus_available for n in partition.nodes if n.is_schedulable()}
        free_mem = {n.name: n.memory_available for n in partition.nodes if n.is_schedulable()}
        free_gres = {
            n.name: {g: p.available for g, p in n.gres.items()}
            for n in partition.nodes
            if n.is_schedulable()
        }
        lic_free = {name: licenses.available(name) for name in licenses.names()}
        node_by_name = {n.name: n for n in partition.nodes}

        def fits() -> bool:
            count = 0
            for name in free_cpus:
                node = node_by_name[name]
                if free_cpus[name] < spec.cpus or free_mem[name] < spec.memory_mb:
                    continue
                if any(
                    g.name not in node.gres or free_gres[name].get(g.name, 0) < g.count
                    for g in spec.gres
                ):
                    continue
                count += 1
                if count >= spec.num_nodes:
                    break
            if count < spec.num_nodes:
                return False
            return all(lic_free.get(ln, 0) >= lc for ln, lc in spec.licenses)

        victims: list[Job] = []
        for victim in candidates:
            if fits():
                break
            victims.append(victim)
            for node_name in victim.allocated_nodes:
                if node_name in free_cpus:
                    free_cpus[node_name] += victim.spec.cpus
                    free_mem[node_name] += victim.spec.memory_mb
                    for g in victim.spec.gres:
                        free_gres[node_name][g.name] = (
                            free_gres[node_name].get(g.name, 0) + g.count
                        )
            for lname, lcount in victim.spec.licenses:
                if lname in lic_free:
                    lic_free[lname] += lcount
        return victims if fits() else None

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

        Does NOT mutate cluster state; the controller applies the
        decision (and re-invokes planning after preemption completes,
        since victims release resources asynchronously).
        """
        decision = SchedulingDecision()
        ordered = self.priority.sort_pending(pending, partitions, now)
        virtual = _VirtualOccupancy(licenses)
        virtually_fits = virtual.fits
        commit_virtual = virtual.commit

        blocked_head: Job | None = None
        shadow_time: float | None = None
        reserved_nodes: frozenset[str] = frozenset()

        for job in ordered:
            partition = partitions[job.spec.partition]
            if blocked_head is None:
                nodes = virtually_fits(job, partition, frozenset())
                if nodes is not None:
                    decision.starts.append(Placement(job.job_id, tuple(nodes)))
                    commit_virtual(job, nodes)
                    continue
                # This is the head job: reserve for it.
                blocked_head = job
                decision.head_blocked = job.job_id
                if not self.backfill:
                    break
                shadow_time, reserved_nodes = self.shadow_reservation(
                    job, partition, running, licenses, now
                )
                decision.shadow_time = shadow_time
                continue
            if not self.backfill:
                continue
            # Backfill candidates: start only if they cannot delay the head.
            same_partition = partition.name == blocked_head.spec.partition
            exclude = reserved_nodes if same_partition else frozenset()
            nodes = virtually_fits(job, partition, exclude)
            if nodes is not None:
                decision.starts.append(Placement(job.job_id, tuple(nodes)))
                decision.backfilled.append(job.job_id)
                commit_virtual(job, nodes)
                continue
            if same_partition and shadow_time is not None:
                limit = job.effective_time_limit
                if now + limit <= shadow_time:
                    nodes = virtually_fits(job, partition, frozenset())
                    if nodes is not None:
                        decision.starts.append(Placement(job.job_id, tuple(nodes)))
                        decision.backfilled.append(job.job_id)
                        commit_virtual(job, nodes)
        return decision


class AlgorithmScheduler(Scheduler):
    """A :class:`Scheduler` whose planning pass is a pluggable
    :class:`~repro.scheduling.algorithms.base.SchedulingAlgorithm`.

    The default algorithm (``"cluster-legacy"``) delegates to a plain
    :class:`Scheduler`'s :meth:`~Scheduler.plan` and carries the exact
    placements back through decision payloads, so the controller's
    decisions are bit-identical to the pre-refactor path.  Generic
    algorithms (e.g. ``"easy-backfill"``) see node-granular views and
    their start decisions are materialized onto concrete nodes here;
    that view is exact for whole-node workloads and conservative for
    heterogeneous per-cpu packing.  Preemption planning stays native
    (inherited) — it is not part of the ``schedule`` vocabulary.
    """

    def __init__(
        self,
        algorithm: SchedulingAlgorithm | str | None = None,
        priority: PriorityCalculator | None = None,
        backfill: bool = True,
        preemption: bool = True,
    ) -> None:
        super().__init__(priority=priority, backfill=backfill, preemption=preemption)
        #: the delegate engine handed to the legacy adapter through
        #: ``system.native`` — a plain Scheduler sharing our config
        self.engine = Scheduler(
            priority=self.priority, backfill=backfill, preemption=preemption
        )
        self.algorithm: SchedulingAlgorithm
        self.use_algorithm(algorithm)

    def use_algorithm(self, algorithm: SchedulingAlgorithm | str | None) -> None:
        self.algorithm = resolve(algorithm, "cluster-legacy")

    def plan(
        self,
        pending: Sequence[Job],
        running: Sequence[Job],
        partitions: dict[str, Partition],
        licenses: LicensePool,
        now: float,
    ) -> SchedulingDecision:
        ordered = self.priority.sort_pending(pending, partitions, now)
        views_pending, resources, _ = cluster_views(ordered, running, partitions, now)
        system = SystemView(
            now=now,
            native={
                "engine": self.engine,
                "pending": pending,
                "running": running,
                "partitions": partitions,
                "licenses": licenses,
            },
        )
        raw = self.algorithm.schedule(views_pending, resources, system)
        decision = SchedulingDecision()
        by_id = {job.job_id: job for job in pending}
        virtual = _VirtualOccupancy(licenses)
        for item in raw:
            if item.kind in ("start", "backfill"):
                placement = item.payload.get("placement")
                if placement is None:
                    # generic decision: materialize partition-level units
                    # onto concrete nodes, first-fit on virtual occupancy
                    job = by_id.get(int(item.job_id))
                    if job is None:
                        continue
                    partition = partitions.get(item.resource or job.spec.partition)
                    if partition is None:
                        continue
                    nodes = virtual.fits(job, partition)
                    if nodes is None:
                        continue
                    virtual.commit(job, nodes)
                    placement = Placement(job.job_id, tuple(nodes))
                decision.starts.append(placement)
                if item.kind == "backfill":
                    decision.backfilled.append(placement.job_id)
            elif item.kind == "reserve":
                decision.head_blocked = int(item.job_id)
                shadow = item.payload.get("shadow_time")
                decision.shadow_time = shadow
        return decision
