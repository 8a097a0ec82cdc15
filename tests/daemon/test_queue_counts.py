"""The queue's maintained per-class queued counters must equal a scan.

``queued_count`` used to walk every task ever submitted (terminal tasks
stay in the table for status/result queries) — it is now a counter
updated on task state transitions, which all go through
``MiddlewareQueue.set_state``.  These tests drive every transition path
and compare against the brute-force recount.
"""

from repro.daemon.queue import (
    MiddlewareQueue,
    PriorityClass,
    TaskState,
)
from repro.sdk import AnalogCircuit
from repro.qpu import Register

from tests.daemon.queueutil import take_next


def make_program(shots=10):
    return (
        AnalogCircuit(Register.chain(2, spacing=6.0), name="qc")
        .rx_global(1.0, duration=0.3)
        .measure_all()
        .transpile(shots=shots)
    )


def brute_count(queue, priority=None):
    return sum(
        1
        for t in queue._tasks.values()
        if t.state is TaskState.QUEUED
        and (priority is None or t.priority is priority)
    )


def assert_counts_match(queue):
    assert queue.queued_count() == brute_count(queue)
    for p in PriorityClass:
        assert queue.queued_count(p) == brute_count(queue, p)
    assert queue.depth_by_class() == {
        p.name.lower(): brute_count(queue, p) for p in PriorityClass
    }


class TestQueuedCounters:
    def test_every_transition_path_keeps_counts_exact(self):
        q = MiddlewareQueue()
        program = make_program()
        tasks = [
            q.submit("s", "u", program, p, "qpu", now=float(i))
            for i, p in enumerate(
                [
                    PriorityClass.PRODUCTION,
                    PriorityClass.TEST,
                    PriorityClass.DEVELOPMENT,
                    PriorityClass.PRODUCTION,
                ]
            )
        ]
        assert_counts_match(q)
        assert q.queued_count() == 4

        running = take_next(q, now=5.0)
        assert_counts_match(q)

        q.cancel(tasks[1].task_id)
        assert_counts_match(q)

        running.preempt_count += 1
        q.set_state(running, TaskState.PREEMPTED, 10.0)
        q.requeue(running, now=10.0)
        assert_counts_match(q)

        running2 = take_next(q, now=11.0)
        q.set_state(running2, TaskState.COMPLETED, 12.0)
        assert_counts_match(q)

        # terminal flood: counts stay exact and cheap as history grows
        for i in range(50):
            t = q.submit("s", "u", program, PriorityClass.TEST, "qpu", now=20.0 + i)
            q.set_state(t, TaskState.RUNNING, 20.0 + i)
            q.set_state(t, TaskState.FAILED, 21.0 + i)
        assert_counts_match(q)

    def test_double_cancel_does_not_double_decrement(self):
        q = MiddlewareQueue()
        task = q.submit(
            "s", "u", make_program(), PriorityClass.TEST, "qpu", now=0.0
        )
        q.cancel(task.task_id)
        q.cancel(task.task_id)  # second cancel is a no-op state-wise
        assert_counts_match(q)
        assert q.queued_count() == 0
