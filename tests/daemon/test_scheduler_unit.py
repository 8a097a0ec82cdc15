"""Unit tests for the SecondLevelScheduler in isolation."""

import numpy as np
import pytest

from repro.daemon.queue import MiddlewareQueue, PriorityClass, TaskState
from repro.daemon.scheduler import SecondLevelScheduler, SharingMode
from repro.qpu import ConstantWaveform, QPUDevice, Register, ShotClock
from repro.qrmi import LocalEmulatorResource, OnPremQPUResource
from repro.scheduling import TimeshareAllocator, WeightedFairPolicy
from repro.scheduling.algorithms import Decision, SchedulingAlgorithm
from repro.sdk import Pulse, Sequence
from repro.simkernel import Simulator


def make_program(shots=20):
    seq = Sequence(Register.chain(2, spacing=6.0))
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


def build(mode=SharingMode.SHOT_CAP, algorithm=None, shot_rate=10.0):
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=shot_rate, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    queue = MiddlewareQueue(shot_cap=None)
    resources = {
        "qpu": OnPremQPUResource("qpu", device),
        "emu": LocalEmulatorResource("emu", emulator="emu-sv"),
    }
    scheduler = SecondLevelScheduler(
        sim, queue, resources, mode=mode, algorithm=algorithm
    )
    return sim, queue, scheduler, device


def submit(queue, scheduler, priority=PriorityClass.PRODUCTION, resource="qpu", shots=20, user="u"):
    task = queue.submit("s", user, make_program(shots), priority, resource, now=0.0)
    scheduler.notify_submit(task)
    return task


class TestBasicDraining:
    def test_single_task(self):
        sim, queue, scheduler, device = build()
        task = submit(queue, scheduler)
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert scheduler.tasks_completed == 1
        assert device.tasks_completed == 1

    def test_serial_execution_on_one_qpu(self):
        sim, queue, scheduler, device = build(shot_rate=1.0)
        t1 = submit(queue, scheduler, shots=10)
        t2 = submit(queue, scheduler, shots=10)
        sim.run()
        # strictly serialized: second starts when first ends
        assert t2.started_at == pytest.approx(t1.finished_at)

    def test_unknown_resource_fails_task(self):
        sim, queue, scheduler, _ = build()
        task = submit(queue, scheduler, resource="ghost")
        sim.run()
        assert task.state is TaskState.FAILED
        assert "unknown resource" in task.error

    def test_oversized_program_fails_task_not_scheduler(self):
        sim, queue, scheduler, _ = build()
        seq = Sequence(Register.chain(120, spacing=6.0))
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
        seq.measure()
        big = seq.build(shots=5)
        task = queue.submit("s", "u", big, PriorityClass.TEST, "qpu", now=0.0)
        scheduler.notify_submit(task)
        ok = submit(queue, scheduler)  # scheduler must survive and run this
        sim.run()
        assert task.state is TaskState.FAILED
        assert ok.state is TaskState.COMPLETED

    def test_emulator_resource_no_qpu_time(self):
        sim, queue, scheduler, device = build()
        task = submit(queue, scheduler, resource="emu")
        final = sim.run()
        assert task.state is TaskState.COMPLETED
        assert device.tasks_completed == 0
        assert final < 1.0


class TestPreemptionMode:
    def test_preempted_task_restarts_and_completes(self):
        sim, queue, scheduler, _ = build(mode=SharingMode.PREEMPT, shot_rate=1.0)
        dev_task = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=100)
        sim.run(until=5.0)
        prod_task = submit(queue, scheduler, priority=PriorityClass.PRODUCTION, shots=10)
        sim.run()
        assert prod_task.started_at == pytest.approx(5.0)
        assert dev_task.preempt_count == 1
        assert dev_task.state is TaskState.COMPLETED
        # the dev task restarted from scratch after the production task
        assert dev_task.finished_at == pytest.approx(5.0 + 10.0 + 100.0, abs=0.5)

    def test_no_preemption_between_equal_classes(self):
        sim, queue, scheduler, _ = build(mode=SharingMode.PREEMPT, shot_rate=1.0)
        t1 = submit(queue, scheduler, priority=PriorityClass.PRODUCTION, shots=50)
        sim.run(until=5.0)
        t2 = submit(queue, scheduler, priority=PriorityClass.PRODUCTION, shots=10)
        sim.run()
        assert t1.preempt_count == 0
        assert t2.started_at == pytest.approx(t1.finished_at)

    def test_shot_cap_mode_never_preempts(self):
        sim, queue, scheduler, _ = build(mode=SharingMode.SHOT_CAP, shot_rate=1.0)
        dev_task = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=100)
        sim.run(until=5.0)
        submit(queue, scheduler, priority=PriorityClass.PRODUCTION, shots=10)
        sim.run()
        assert dev_task.preempt_count == 0
        assert scheduler.tasks_preempted == 0


class TestSchedulingViews:
    def test_tasks_out_of_the_queue_keep_no_scheduling_view(self):
        """``daemon_views`` caches a scheduling view on each queued task;
        a task that leaves the queue (run, done, failed, cancelled or
        preempted) drops it, and a requeue builds a fresh one."""
        sim, queue, scheduler, _ = build(mode=SharingMode.PREEMPT, shot_rate=1.0)
        first = submit(queue, scheduler, priority=PriorityClass.TEST, shots=10)
        dev = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=100)
        doomed = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=10)
        ghost = submit(queue, scheduler, priority=PriorityClass.TEST, resource="ghost")
        sim.run(until=5.0)
        assert first.state is TaskState.RUNNING and first._pending_view is None
        assert dev._pending_view is not None and dev._pending_view.native is dev
        queue.cancel(doomed.task_id)
        assert doomed._pending_view is None
        sim.run(until=20.0)
        assert dev.state is TaskState.RUNNING
        prod = submit(queue, scheduler, priority=PriorityClass.PRODUCTION, shots=10)
        sim.run()
        assert dev.preempt_count == 1
        assert [t.state for t in (first, dev, doomed, ghost, prod)] == [
            TaskState.COMPLETED, TaskState.COMPLETED, TaskState.CANCELLED,
            TaskState.FAILED, TaskState.COMPLETED,
        ]
        assert all(t._pending_view is None for t in queue.all_tasks())


class _EnqueueOrder(SchedulingAlgorithm):
    """Start the earliest-enqueued task, whatever its class."""

    name = "enqueue-order"

    def schedule(self, pending, resources, system):
        job = min(pending, key=lambda j: j.native.enqueued_at)
        return [Decision(kind="start", job_id=job.job_id, resource=resources[0].name)]


class _Idle(SchedulingAlgorithm):
    """Start nothing, noting each time it is asked."""

    name = "idle"

    def __init__(self):
        self.calls = []

    def schedule(self, pending, resources, system):
        self.calls.append(system.now)
        return []


class TestSelectionPolicy:
    def test_custom_policy_overrides_class_order(self):
        """An algorithm instance selecting strictly by enqueue order
        ignores classes."""
        sim, queue, scheduler, _ = build(algorithm=_EnqueueOrder(), shot_rate=1.0)
        # occupy the QPU so ordering matters
        hold = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=30)
        dev = queue.submit("s", "u", make_program(10), PriorityClass.DEVELOPMENT, "qpu", 0.0)
        scheduler.notify_submit(dev)
        prod = queue.submit("s", "u", make_program(10), PriorityClass.PRODUCTION, "qpu", 0.0)
        scheduler.notify_submit(prod)
        sim.run()
        assert dev.started_at < prod.started_at  # FIFO beat the class order

    def test_policy_returning_none_idles(self):
        idle = _Idle()
        sim, queue, scheduler, _ = build(algorithm=idle)
        task = queue.submit("s", "u", make_program(5), PriorityClass.TEST, "qpu", 0.0)
        scheduler.notify_submit(task)
        sim.run()
        assert task.state is TaskState.QUEUED
        assert idle.calls  # the algorithm was consulted

    def test_weighted_fair_never_scans_the_task_table(self, monkeypatch):
        """The timeshare algorithm picks from the live queued set: a
        long-running daemon's pick does not grow with its history."""
        allocator = TimeshareAllocator()
        allocator.grant("alice", 7)
        allocator.grant("bob", 3)
        sim, queue, scheduler, _ = build(algorithm=WeightedFairPolicy(allocator))

        def all_tasks():
            raise AssertionError("the pick scanned every task ever held")

        monkeypatch.setattr(queue, "all_tasks", all_tasks)
        tasks = [submit(queue, scheduler, user=user) for user in ("alice", "bob") * 3]
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)

    def test_weighted_fair_restarts_the_requeued_task_on_a_tie(self):
        """Under PREEMPT, a requeued task and an unstarted task of one
        tenant with equal ``enqueued_at``: the requeued task, submitted
        first, goes first (the order recorded before the timeshare
        became a scheduling algorithm, when ties went by task table)."""
        allocator = TimeshareAllocator()
        allocator.grant("alice", 5)
        allocator.grant("bob", 5)
        sim, queue, scheduler, _ = build(
            mode=SharingMode.PREEMPT, algorithm=WeightedFairPolicy(allocator), shot_rate=1.0
        )
        dev = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=30, user="alice")
        sim.run(until=5.0)
        assert dev.state is TaskState.RUNNING
        unstarted = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=10, user="alice")
        prod = submit(queue, scheduler, priority=PriorityClass.PRODUCTION, shots=10, user="alice")
        sim.run()
        assert dev.preempt_count == 1
        # restarted at the preemption instant, ahead of the unstarted
        # task that the queue lists before it
        assert dev.started_at == 5.0
        assert dev.finished_at <= unstarted.started_at < prod.started_at

    def test_wait_times_by_class_shape(self):
        sim, queue, scheduler, _ = build(shot_rate=10.0)
        submit(queue, scheduler, priority=PriorityClass.PRODUCTION)
        submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT)
        sim.run()
        waits = scheduler.wait_times_by_class()
        assert set(waits) == {"production", "test", "development"}
        assert len(waits["production"]) == 1
        assert len(waits["development"]) == 1


class TestOneTransitionPoint:
    """Every task transition goes through ``MiddlewareQueue.set_state``,
    which stamps the task's timestamps before any listener hears it."""

    def test_listeners_see_stamped_timestamps_on_every_transition(self):
        sim, queue, scheduler, _ = build(mode=SharingMode.PREEMPT, shot_rate=1.0)
        seen = []

        def listener(task, old, new):
            seen.append(
                (task.task_id, old, new, sim.now, task.started_at, task.finished_at,
                 task.result, task.error)
            )

        queue.add_transition_listener(listener)
        dev = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT, shots=20)
        doomed = submit(queue, scheduler, priority=PriorityClass.TEST, resource="ghost")
        dropped = submit(queue, scheduler, priority=PriorityClass.DEVELOPMENT)
        queue.cancel(dropped.task_id)
        sim.run(until=5.0)
        submit(queue, scheduler, priority=PriorityClass.PRODUCTION, shots=10)
        sim.run()
        assert dev.preempt_count == 1 and doomed.state is TaskState.FAILED

        Q, R, P = TaskState.QUEUED, TaskState.RUNNING, TaskState.PREEMPTED
        C, F, X = TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED
        kinds = set()
        for task_id, old, new, now, started, finished, result, error in seen:
            kinds.add((old, new))
            if new is Q:
                assert started is None and finished is None, (task_id, old)
            elif new is R:
                assert started == now and finished is None, task_id
            elif new is P:
                assert started is not None and started < now and finished is None
            elif new is C:
                assert finished == now and started <= now and result is not None
            elif new is F:
                assert finished == now and error, task_id
            else:
                assert new is X and finished is None
        assert kinds == {(None, Q), (Q, R), (R, P), (P, Q), (R, C), (R, F), (Q, X)}
