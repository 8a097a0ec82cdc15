"""Each scheduling loop keeps its recorded decisions.

Three equivalence proofs, one per scheduling loop:

* daemon — ``FifoPriority`` over ``daemon_views`` consumes the queue in
  exactly ``MiddlewareQueue.pop`` order, including requeued preempted
  tasks going to the back of their class,
* cluster — the one planner, ``Scheduler.plan``, reproduces a golden
  record of its decisions (starts with node lists, backfilled ids, head
  and shadow time) on eight randomized clusters,
* broker — the default ``PolicyRouting`` adapter routes through the
  wrapped policy verbatim, preserving stateful cursors (round-robin).
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "federation"))

from repro.cluster import Job, LicensePool, Node, Partition
from repro.cluster import JobSpec as ClusterJobSpec
from repro.cluster.scheduler import Scheduler
from repro.daemon.queue import MiddlewareQueue, PriorityClass, TaskState
from repro.scheduling.algorithms import FifoPriority, daemon_views
from repro.spec import JobSpec


def _mk_program():
    # the queue never executes in these tests; a light stub suffices
    class _P:
        shots = 10

        def to_dict(self):
            return {}

    return _P()


def _fill_queue(queue, spec, now=0.0, preempt=3):
    """Submit per the priority script, then preempt + requeue the first
    ``preempt`` tasks in pop order — mirroring the real daemon flow
    (only a popped/running task can be preempted), so requeued tasks
    must fall to the back of their priority class in both disciplines."""
    tasks = []
    for i, priority in enumerate(spec):
        task = queue.submit(
            f"s{i}", "u", _mk_program(), priority, "qpu", now=now + i
        )
        tasks.append(task)
    for _ in range(min(preempt, len(tasks))):
        task = queue.pop()
        queue.set_state(task, TaskState.RUNNING, 49.0)
        task.preempt_count += 1
        queue.set_state(task, TaskState.PREEMPTED, 50.0)
        queue.requeue(task, now=50.0)
    return tasks


class TestDaemonPopOrderEquivalence:
    def _drain_by_pop(self, queue):
        order = []
        while True:
            task = queue.pop()
            if task is None:
                return order
            order.append(task.task_id)
            queue.set_state(task, TaskState.RUNNING, 0.0)

    def _drain_by_algorithm(self, queue):
        algorithm = FifoPriority()
        order = []
        while True:
            eligible = queue.queued_tasks()
            if not eligible:
                return order
            pending, resources, system = daemon_views(eligible, now=0.0)
            decisions = algorithm.schedule(pending, resources, system)
            starts = [d for d in decisions if d.kind in ("start", "backfill")]
            if not starts:
                return order
            chosen = queue.get(starts[0].job_id)
            order.append(chosen.task_id)
            queue.set_state(chosen, TaskState.RUNNING, 0.0)
            queue.prune()

    @pytest.mark.parametrize("seed", range(5))
    def test_algorithm_order_equals_pop_order(self, seed):
        rng = random.Random(seed)
        spec = [rng.choice(list(PriorityClass)) for _ in range(12)]
        q1, q2 = MiddlewareQueue(), MiddlewareQueue()
        _fill_queue(q1, spec)
        _fill_queue(q2, spec)
        assert self._drain_by_pop(q1) == self._drain_by_algorithm(q2)

    def test_views_are_kept_until_a_requeue(self):
        queue = MiddlewareQueue()
        first, second = (
            queue.submit(f"s{i}", "u", _mk_program(), PriorityClass.TEST, "qpu", now=0.0)
            for i in range(2)
        )
        before, _, _ = daemon_views(queue.queued_tasks(), now=0.0)
        again, _, _ = daemon_views(queue.queued_tasks(), now=1.0)
        assert all(a is b for a, b in zip(before, again, strict=True))
        queue.set_state(first, TaskState.RUNNING, 1.0)
        queue.set_state(first, TaskState.PREEMPTED, 2.0)
        queue.requeue(first, now=2.0)
        after, _, _ = daemon_views(queue.queued_tasks(), now=2.0)
        by_id = {view.job_id: view for view in after}
        assert by_id[second.task_id] is before[1]
        assert by_id[first.task_id] is not before[0]
        assert by_id[first.task_id].submit_seq == first._seq > second._seq


def _random_cluster(seed):
    rng = random.Random(seed)
    nodes = {
        "batch": [Node(f"b{i}", cpus=8) for i in range(4)],
        "debug": [Node(f"d{i}", cpus=4) for i in range(2)],
    }
    partitions = {
        "batch": Partition("batch", nodes["batch"], priority_tier=1),
        "debug": Partition("debug", nodes["debug"], priority_tier=0),
    }
    licenses = LicensePool({"qpu_share": 20})
    pending = []
    for i in range(rng.randint(4, 12)):
        part = rng.choice(["batch", "debug"])
        spec = ClusterJobSpec(
            name=f"j{i}",
            cpus=rng.choice([1, 2, 4]),
            num_nodes=rng.choice([1, 1, 1, 2]),
            duration=rng.uniform(5.0, 50.0),
            time_limit=rng.uniform(50.0, 200.0),
            partition=part,
            priority=rng.randint(0, 10),
            licenses=(
                (("qpu_share", rng.randint(1, 3)),) if rng.random() < 0.5 else ()
            ),
        )
        pending.append(Job(100 + i, spec, submit_time=float(i)))
    # some running occupancy so backfill and shadow paths trigger
    running = []
    for i in range(rng.randint(0, 3)):
        node = rng.choice(nodes["batch"])
        spec = ClusterJobSpec(
            name=f"r{i}", cpus=4, duration=100.0, time_limit=100.0, partition="batch"
        )
        job = Job(i + 1, spec, submit_time=0.0)
        from repro.cluster import JobState as CJS

        job.transition(CJS.RUNNING, 0.0)
        job.allocated_nodes = [node.name]
        job.effective_time_limit = 100.0
        node.allocate(job.job_id, 4, 1_000)
        running.append(job)
    return pending, running, partitions, licenses


#: ``Scheduler.plan`` on ``_random_cluster(seed)`` at t=10: starts (job,
#: nodes), backfilled ids, blocked head, shadow time.  For seeds 0, 3, 4
#: and 7 the shadow replay counts the pass's own starts, so the blocked
#: head's shadow is its true earliest start (not t=10) and, on seed 0,
#: job 104 is no longer backfilled onto a node the head needs.
GOLDEN_PLANS = {
    0: (
        [(106, ("b0",)), (108, ("b0",)), (105, ("b1", "b2")), (103, ("b0", "b1")),
         (102, ("d0",)), (109, ("d1",)), (100, ("d1",))],
        [], 101, 132.8891544844219,
    ),
    1: (
        [(100, ("b0",)), (101, ("b0",)), (102, ("b0", "b1")), (104, ("d0",)),
         (103, ("d1",)), (105, ("d1",))],
        [], None, None,
    ),
    2: (
        [(100, ("b0",)), (103, ("b0", "b1")), (102, ("d0",)), (101, ("d1",))],
        [], None, None,
    ),
    3: (
        [(103, ("b0",)), (105, ("b0",)), (100, ("b1", "b2")), (106, ("d0",)),
         (101, ("d1",)), (102, ("d1",))],
        [], 104, 185.02156799942207,
    ),
    4: (
        [(101, ("b0",)), (106, ("d0", "d1"))],
        [], 104, 81.75941392475241,
    ),
    5: (
        [(104, ("b0",)), (106, ("b0",)), (101, ("b0",)), (102, ("b1",)), (105, ("b1",)),
         (103, ("b2", "b3")), (107, ("d0",)), (100, ("d1",))],
        [], None, None,
    ),
    6: (
        [(104, ("b0",)), (102, ("b0",)), (100, ("d0",)), (103, ("d0",)), (101, ("d1",))],
        [], None, None,
    ),
    7: (
        [(102, ("b1",)), (107, ("b1",)), (100, ("b2",)), (101, ("b2",)), (104, ("b3",)),
         (105, ("b3",)), (106, ("d0", "d1"))],
        [], 108, 129.8402798759511,
    ),
}


class TestClusterPlanEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_plan_matches_golden_record(self, seed):
        pending, running, partitions, licenses = _random_cluster(seed)
        decision = Scheduler().plan(pending, running, partitions, licenses, now=10.0)
        starts, backfilled, head, shadow = GOLDEN_PLANS[seed]
        assert [(p.job_id, p.node_names) for p in decision.starts] == starts
        assert decision.backfilled == backfilled
        assert decision.head_blocked == head
        assert decision.shadow_time == shadow


class TestBrokerRoutingEquivalence:
    def _build(self, policy):
        from fedutil import build_federation

        return build_federation(n_sites=3, policy=policy)

    def test_round_robin_cursor_preserved(self):
        """The adapter path must advance a stateful policy exactly as
        the direct call did: round-robin keeps strict rotation."""
        from repro.federation.policies import RoundRobinPolicy

        sys_policy = RoundRobinPolicy()
        sim, registry, broker, sites = self._build(sys_policy)
        from fedutil import make_program

        chosen = []
        for _ in range(6):
            job_id = broker.submit_spec(JobSpec(program=make_program(shots=1)))
            chosen.append(broker.job(job_id).current.site)
        # strict rotation over the healthy candidate set
        assert chosen == [f"site-{i % 3}" for i in range(6)]

    def test_adapter_matches_direct_policy_choice(self):
        """Same trace through the algorithm adapter and through a twin
        broker whose _choose_site is forced to the direct policy call."""
        from repro.federation.policies import LeastQueuePolicy

        sim_a, _, broker_a, _ = self._build(LeastQueuePolicy())
        sim_b, _, broker_b, _ = self._build(LeastQueuePolicy())
        broker_b._choose_site = lambda job, candidates: broker_b.policy.choose(
            job, candidates, broker_b.sim.now
        )
        from fedutil import make_program

        for step in range(8):
            program = make_program(shots=5)
            id_a = broker_a.submit_spec(JobSpec(program=program))
            id_b = broker_b.submit_spec(JobSpec(program=program))
            assert (
                broker_a.job(id_a).current.site == broker_b.job(id_b).current.site
            ), step
            sim_a.run(until=float(step + 1))
            sim_b.run(until=float(step + 1))


class TestNumpySeedIsolation:
    def test_module_does_not_touch_global_rng(self):
        # the adapters must not consume numpy's global stream
        state = np.random.get_state()[1].copy()
        q = MiddlewareQueue()
        _fill_queue(q, [PriorityClass.PRODUCTION, PriorityClass.DEVELOPMENT])
        assert (np.random.get_state()[1] == state).all()
