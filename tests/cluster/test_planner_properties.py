"""EASY and preemption safety of the cluster planner, checked against an
independent replay.

The oracle below is Wagomu's ``delays_head`` in node-exact form, written
here from the cluster model alone (``Node`` free capacity, the license
pool, job time limits) and sharing no code with
:mod:`repro.cluster.scheduler`: release every allocation at its
expected end, in end order, and report the first instant the head fits.
The clusters are random, and their partitions share nodes.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    GresRequest,
    Job,
    JobSpec,
    JobState,
    LicensePool,
    Node,
    Partition,
    PreemptMode,
)
from repro.cluster.scheduler import Scheduler


def _job(job_id, **spec):
    spec.setdefault("name", f"j{job_id}")
    spec.setdefault("duration", 1.0)
    job = Job(job_id, JobSpec(**spec), submit_time=0.0)
    job.effective_time_limit = spec.get("time_limit") or 100.0
    return job


def _run(job, node_names, start, nodes, licenses):
    """Put ``job`` on ``node_names`` through the cluster model itself."""
    for name in node_names:
        nodes[name].allocate(job.job_id, job.spec.cpus, job.spec.memory_mb, job.spec.gres)
    licenses.acquire(job.job_id, dict(job.spec.licenses))
    job.transition(JobState.RUNNING, start)
    job.allocated_nodes = list(node_names)


# -- the oracle ---------------------------------------------------------------


def _free(nodes, licenses):
    cap = {
        n.name: [n.cpus_available, n.memory_available, {g: p.available for g, p in n.gres.items()}]
        for n in nodes.values()
        if n.is_schedulable()
    }
    return cap, {name: licenses.available(name) for name in licenses.names()}


def _head_fits(head, partition, cap, lic):
    spec = head.spec
    if any(lic.get(name, 0) < count for name, count in spec.licenses):
        return False
    room = 0
    for node in partition.nodes:
        if node.name not in cap:
            continue
        cpus, mem, gres = cap[node.name]
        if cpus >= spec.cpus and mem >= spec.memory_mb and all(
            gres.get(g.name, 0) >= g.count for g in spec.gres
        ):
            room += 1
    return room >= spec.num_nodes


def _give_back(job, node_names, cap, lic):
    for name in node_names:
        if name in cap:
            cap[name][0] += job.spec.cpus
            cap[name][1] += job.spec.memory_mb
            for g in job.spec.gres:
                cap[name][2][g.name] = cap[name][2].get(g.name, 0) + g.count
    for name, count in job.spec.licenses:
        if name in lic:
            lic[name] += count


def earliest_start(head, partition, nodes, licenses, running, now):
    """First instant ``head`` fits when every running job ends at its
    start + time limit (infinite if it never fits)."""
    cap, lic = _free(nodes, licenses)
    ends = sorted(running, key=lambda j: j.start_time + j.effective_time_limit)
    when = now
    for job in ends:
        if _head_fits(head, partition, cap, lic):
            return when
        _give_back(job, job.allocated_nodes, cap, lic)
        when = max(now, job.start_time + job.effective_time_limit)
    return when if _head_fits(head, partition, cap, lic) else math.inf


# -- regressions ----------------------------------------------------------------


class TestEasyRegressions:
    def test_same_pass_starts_count_in_the_shadow(self):
        """A and B start in this pass and H (2 nodes) is blocked: its
        shadow is A's end, so C (ending at 1000) must not take the last
        free node, which H needs at t=100."""
        nodes = {f"n{i}": Node(f"n{i}", cpus=8) for i in range(3)}
        partitions = {"batch": Partition("batch", nodes.values())}
        pending = [
            _job(1, cpus=8, time_limit=100.0),
            _job(2, cpus=8, time_limit=1000.0),
            _job(3, cpus=8, num_nodes=2, time_limit=100.0),
            _job(4, cpus=8, time_limit=1000.0),
        ]
        decision = Scheduler().plan(pending, [], partitions, LicensePool(), now=0.0)
        assert [p.job_id for p in decision.starts] == [1, 2]
        assert decision.head_blocked == 3
        assert decision.shadow_time == 100.0
        assert decision.backfilled == []

    def test_reservation_is_held_on_nodes_across_partitions(self):
        """H (partition a) is reserved on both nodes from t=100; C in
        partition b shares those nodes and would hold n1 until 1000."""
        nodes = {f"n{i}": Node(f"n{i}", cpus=8) for i in range(2)}
        partitions = {
            "a": Partition("a", nodes.values()),
            "b": Partition("b", nodes.values()),
        }
        licenses = LicensePool()
        holder = _job(1, cpus=8, partition="a", time_limit=100.0)
        _run(holder, ["n0"], 0.0, nodes, licenses)
        head = _job(2, cpus=8, num_nodes=2, partition="a", time_limit=100.0)
        other = _job(3, cpus=8, partition="b", time_limit=1000.0)
        decision = Scheduler().plan([head, other], [holder], partitions, licenses, now=0.0)
        assert decision.head_blocked == 2
        assert decision.shadow_time == 100.0
        assert decision.starts == []

    def test_backfill_leaves_the_heads_licenses(self):
        """H needs 4 of 4 licenses at t=100; C runs past that on another
        node but would hold one of them."""
        nodes = {f"n{i}": Node(f"n{i}", cpus=8) for i in range(2)}
        partitions = {"batch": Partition("batch", nodes.values())}
        licenses = LicensePool({"qpu_share": 4})
        holder = _job(1, cpus=8, time_limit=100.0, licenses=(("qpu_share", 2),))
        _run(holder, ["n0"], 0.0, nodes, licenses)
        head = _job(2, cpus=1, licenses=(("qpu_share", 4),))
        late = _job(3, cpus=1, time_limit=1000.0, licenses=(("qpu_share", 1),))
        short = _job(4, cpus=1, time_limit=50.0, licenses=(("qpu_share", 1),))
        decision = Scheduler().plan(
            [head, late, short], [holder], partitions, licenses, now=0.0
        )
        assert decision.head_blocked == 2
        assert decision.shadow_time == 100.0
        assert decision.backfilled == [4]

    def test_running_job_started_at_zero_ends_at_its_limit(self):
        nodes = {"n0": Node("n0", cpus=8)}
        partition = Partition("p", nodes.values())
        licenses = LicensePool()
        holder = _job(1, cpus=8, time_limit=100.0)
        _run(holder, ["n0"], 0.0, nodes, licenses)
        when, reserved = Scheduler().shadow_reservation(
            _job(2, cpus=8), partition, [holder], licenses, now=40.0
        )
        assert (when, reserved) == (100.0, frozenset({"n0"}))


class TestPreemptionRegressions:
    @staticmethod
    def _site():
        """A tier-2 ``prod`` partition on p0 and a tier-0 REQUEUE ``dev``
        partition on d0, sharing no node, and 4 ``qpu_share`` licenses,
        all held by a ``dev`` job on d0."""
        nodes = {name: Node(name, cpus=8) for name in ("p0", "d0")}
        partitions = {
            "prod": Partition("prod", [nodes["p0"]], priority_tier=2),
            "dev": Partition("dev", [nodes["d0"]], preempt_mode=PreemptMode.REQUEUE),
        }
        licenses = LicensePool({"qpu_share": 4})
        holder = _job(1, partition="dev", cpus=8, licenses=(("qpu_share", 4),))
        _run(holder, ["d0"], 0.0, nodes, licenses)
        return nodes, partitions, licenses, holder

    def test_license_only_blocker_is_preempted(self):
        nodes, partitions, licenses, holder = self._site()
        head = _job(2, partition="prod", cpus=8, licenses=(("qpu_share", 4),))
        victims = Scheduler().plan_preemption(head, partitions["prod"], partitions, [holder], licenses)
        assert victims == [holder]

    def test_victim_outside_the_partition_frees_only_its_licenses(self):
        """p0 is also full, held by a job nothing may preempt: the license
        holder's node d0 is no room for the head, so no victim set helps."""
        nodes, partitions, licenses, holder = self._site()
        partitions["ops"] = Partition("ops", [nodes["p0"]], priority_tier=1, preempt_mode=PreemptMode.OFF)
        blocker = _job(3, partition="ops", cpus=8)
        _run(blocker, ["p0"], 0.0, nodes, licenses)
        head = _job(2, partition="prod", cpus=8, licenses=(("qpu_share", 4),))
        running = [holder, blocker]
        assert Scheduler().plan_preemption(head, partitions["prod"], partitions, running, licenses) is None


# -- properties -----------------------------------------------------------------


@st.composite
def clusters(draw):
    """Nodes, partitions over shared node subsets, a license pool, running
    jobs placed through the cluster model, and a pending queue."""
    now = draw(st.sampled_from([0.0, 10.0, 60.0]))
    nodes = {}
    for i in range(draw(st.integers(min_value=2, max_value=5))):
        gpus = draw(st.sampled_from([0, 0, 1, 2]))
        nodes[f"n{i}"] = Node(
            f"n{i}",
            cpus=draw(st.sampled_from([4, 8])),
            memory_mb=draw(st.sampled_from([4_000, 8_000])),
            gres={"gpu": gpus} if gpus else None,
        )
    names = list(nodes)
    partitions = {}
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        members = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        partitions[f"p{i}"] = Partition(
            f"p{i}",
            [nodes[name] for name in members],
            priority_tier=draw(st.integers(min_value=0, max_value=2)),
            preempt_mode=draw(st.sampled_from([PreemptMode.OFF, PreemptMode.REQUEUE])),
        )
    licenses = LicensePool({"qpu_share": draw(st.integers(min_value=1, max_value=6))})

    def draw_spec():
        return dict(
            partition=draw(st.sampled_from(sorted(partitions))),
            cpus=draw(st.sampled_from([1, 2, 4, 8])),
            memory_mb=draw(st.sampled_from([500, 2_000, 4_000])),
            num_nodes=draw(st.sampled_from([1, 1, 2])),
            priority=draw(st.integers(min_value=0, max_value=3)),
            gres=(GresRequest("gpu"),) if draw(st.integers(min_value=0, max_value=3)) == 0 else (),
            licenses=(
                (("qpu_share", draw(st.integers(min_value=1, max_value=3))),)
                if draw(st.booleans())
                else ()
            ),
        )

    running = []
    for job_id in range(1, draw(st.integers(min_value=0, max_value=6)) + 1):
        start = draw(st.floats(min_value=0.0, max_value=now))
        limit = draw(st.floats(min_value=now - start + 1.0, max_value=now - start + 300.0))
        job = _job(job_id, time_limit=limit, **draw_spec())
        spec = job.spec
        chosen = [
            n.name
            for n in partitions[spec.partition].nodes
            if n.can_fit(spec.cpus, spec.memory_mb, spec.gres)
        ][: spec.num_nodes]
        if len(chosen) < spec.num_nodes or not licenses.can_acquire(dict(spec.licenses)):
            continue
        _run(job, chosen, start, nodes, licenses)
        running.append(job)
    for name in draw(st.lists(st.sampled_from(names), max_size=1)):
        nodes[name].set_drain()  # keeps its jobs, takes no new ones
    pending = [
        _job(job_id, time_limit=draw(st.floats(min_value=1.0, max_value=400.0)), **draw_spec())
        for job_id in range(100, 100 + draw(st.integers(min_value=1, max_value=10)))
    ]
    return nodes, partitions, licenses, running, pending, now


class TestPlannerProperties:
    @settings(max_examples=200, deadline=None)
    @given(cluster=clusters())
    def test_backfill_never_delays_the_head(self, cluster):
        """The shadow time is the head's true earliest start given the
        starts ahead of it, and the pass's backfills do not move it."""
        nodes, partitions, licenses, running, pending, now = cluster
        decision = Scheduler().plan(pending, running, partitions, licenses, now)
        if decision.head_blocked is None:
            return
        by_id = {job.job_id: job for job in pending}
        head = by_id[decision.head_blocked]
        partition = partitions[head.spec.partition]
        placed = {p.job_id: p.node_names for p in decision.starts}
        ahead = [job_id for job_id in placed if job_id not in decision.backfilled]
        holds = list(running)

        def start(job_ids):
            for job_id in job_ids:
                _run(by_id[job_id], placed[job_id], now, nodes, licenses)
                holds.append(by_id[job_id])
            return earliest_start(head, partition, nodes, licenses, holds, now)

        assert start(ahead) == decision.shadow_time
        assert start(decision.backfilled) <= decision.shadow_time

    @settings(max_examples=150, deadline=None)
    @given(cluster=clusters(), pick=st.integers(min_value=0), license_bound=st.booleans())
    def test_preemption_victims_are_enough_and_minimal(self, cluster, pick, license_bound):
        """The victims free enough for the head and the list without its
        last victim does not; None means even every eligible victim
        would not.  Eligible: a lower-tier preemptable job holding a node
        of the head's partition or a license the head requests."""
        nodes, partitions, licenses, running, pending, now = cluster
        head = pending[pick % len(pending)]
        if license_bound:
            # a one-node head in a new top tier, asking for every license
            # of the pool: whoever holds them, on any node, is in its way
            node = nodes[sorted(nodes)[pick % len(nodes)]]
            partitions = {**partitions, "top": Partition("top", [node], priority_tier=3)}
            whole = (("qpu_share", licenses.total("qpu_share")),)
            head = _job(head.job_id, **{**vars(head.spec), "partition": "top", "num_nodes": 1, "licenses": whole})
        partition = partitions[head.spec.partition]
        if earliest_start(head, partition, nodes, licenses, [], now) == now:
            return  # the head fits without preempting anyone
        victims = Scheduler().plan_preemption(head, partition, partitions, running, licenses)

        def fits_without(gone):
            cap, lic = _free(nodes, licenses)
            for job in gone:
                _give_back(job, job.allocated_nodes, cap, lic)
            return _head_fits(head, partition, cap, lic)

        if victims is None:
            wanted = {name for name, _ in head.spec.licenses}
            eligible = [
                job
                for job in running
                if partitions[job.spec.partition].priority_tier < partition.priority_tier
                and partitions[job.spec.partition].preempt_mode is not PreemptMode.OFF
                and (
                    set(job.allocated_nodes) & set(partition.node_names())
                    or wanted & {name for name, _ in job.spec.licenses}
                )
            ]
            assert not fits_without(eligible)
            return
        assert victims
        assert fits_without(victims)
        assert not fits_without(victims[:-1])
