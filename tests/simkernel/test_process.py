"""Tests for generator-based processes and the simulator loop."""

import gc
import weakref

import pytest

from repro.errors import ProcessError, SimulationError
from repro.simkernel import Interrupt, Simulator, Timeout, Wait
from repro.simkernel.events import Event


def test_single_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(5.0)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [5.0]


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    times = []

    def proc():
        for delay in (1.0, 2.0, 3.5):
            yield Timeout(delay)
            times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [1.0, 3.0, 6.5]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield Timeout(delay)
        order.append((name, sim.now))
        yield Timeout(delay)
        order.append((name, sim.now))

    sim.spawn(proc("a", 2.0))
    sim.spawn(proc("b", 3.0))
    sim.run()
    assert order == [("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0)]


def test_wait_on_event():
    sim = Simulator()
    gate = Event("gate")
    results = []

    def waiter():
        value = yield Wait(gate)
        results.append((sim.now, value))

    def opener():
        yield Timeout(4.0)
        gate.trigger("open!")
        sim.schedule(gate)

    sim.spawn(waiter())
    sim.spawn(opener())
    sim.run()
    assert results == [(4.0, "open!")]


def test_process_return_value_via_run_until_process():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        return 99

    proc = sim.spawn(child())
    assert sim.run_until_process(proc) == 99


def test_waiting_on_child_process():
    sim = Simulator()
    got = []

    def child():
        yield Timeout(2.0)
        return "child-result"

    def parent():
        value = yield sim.spawn(child())
        got.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert got == [(2.0, "child-result")]


def test_waiting_on_already_finished_process():
    sim = Simulator()
    got = []

    def child():
        yield Timeout(1.0)
        return 7

    child_proc = sim.spawn(child())

    def parent():
        yield Timeout(5.0)  # child finishes long before
        value = yield child_proc
        got.append(value)

    sim.spawn(parent())
    sim.run()
    assert got == [7]


def test_child_exception_propagates_to_parent():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise ValueError("boom")

    def parent():
        yield sim.spawn(child())

    proc = sim.spawn(parent())
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_process(proc)


def test_interrupt_during_timeout():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield Timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.spawn(sleeper())

    def interruptor():
        yield Timeout(3.0)
        proc.interrupt(cause="preemption")

    sim.spawn(interruptor())
    sim.run()
    assert log == [("interrupted", 3.0, "preemption")]


def test_interrupt_detaches_event_callback():
    """A later trigger of the waited-on event must not resume the frame."""
    sim = Simulator()
    gate = Event("gate")
    log = []

    def waiter():
        try:
            yield Wait(gate)
            log.append("resumed")  # must never happen
        except Interrupt:
            log.append("interrupted")
            yield Timeout(10.0)
            log.append("continued")

    proc = sim.spawn(waiter())

    def driver():
        yield Timeout(1.0)
        proc.interrupt()
        yield Timeout(1.0)
        gate.trigger("late")
        sim.schedule(gate)

    sim.spawn(driver())
    sim.run()
    assert log == ["interrupted", "continued"]


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick():
        yield Timeout(0.5)

    proc = sim.spawn(quick())
    sim.run()
    with pytest.raises(ProcessError):
        proc.interrupt()


def test_unsupported_yield_kills_process(process_failures):
    sim = Simulator()
    # the process dies at spawn, before run_until_process drives it
    process_failures(sim, 1)

    def bad():
        yield "not-a-command"

    proc = sim.spawn(bad())
    with pytest.raises(ProcessError):
        sim.run_until_process(proc)


def test_run_until_time_bound():
    sim = Simulator()

    def forever():
        while True:
            yield Timeout(1.0)

    sim.spawn(forever())
    final = sim.run(until=10.5)
    assert final == 10.5
    assert sim.now == 10.5


def test_call_at_and_call_in():
    sim = Simulator()
    hits = []
    sim.call_at(3.0, lambda: hits.append(("at", sim.now)))
    sim.call_in(1.0, lambda: hits.append(("in", sim.now)))
    sim.run()
    assert hits == [("in", 1.0), ("at", 3.0)]


def test_deadlock_detection():
    sim = Simulator()
    gate = Event("never")

    def stuck():
        yield Wait(gate)

    proc = sim.spawn(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(proc)


def test_timeout_event_helper():
    sim = Simulator()
    got = []

    def proc():
        value = yield Wait(sim.timeout_event(2.5, value="tick"))
        got.append((sim.now, value))

    sim.spawn(proc())
    sim.run()
    assert got == [(2.5, "tick")]


def test_hold_keeps_run_stepping_background_work_until_released():
    """A held wake has no heap entry; only background housekeeping can
    produce the push that ends it, so run() must keep stepping that
    housekeeping instead of stopping at zero foreground entries."""
    sim = Simulator()
    released_at = []

    def housekeeping():
        while True:
            yield Timeout(10.0)
            if sim.now == 50.0:
                sim.events.release()
                released_at.append(sim.now)

    sim.spawn(housekeeping(), background=True)
    sim.events.hold()
    assert sim.events.foreground_count() == 1
    sim.run()
    assert released_at == [50.0]
    assert sim.now == 50.0
    assert sim.events.foreground_count() == 0


def test_hold_with_empty_heap_still_deadlocks():
    sim = Simulator()

    def stuck():
        yield Wait(Event("pushed-never"))

    proc = sim.spawn(stuck())
    sim.events.hold()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(proc)
    assert sim.run() == 0.0  # an empty heap ends an unbounded run too


class TestLiveProcesses:
    """The simulator holds its live processes only: a finished one is
    freed with its return value, a suspended one stays strongly held."""

    def test_finished_process_is_freed(self):
        sim = Simulator()

        def job():
            yield Timeout(1.0)
            return ["result"]

        ref = weakref.ref(sim.spawn(job()))
        sim.run()
        gc.collect()
        assert ref() is None
        assert not sim._processes
        sim.events.check()

    def test_suspended_process_is_held_and_not_closed(self):
        """A suspended generator that nothing else references must not
        be collected: collection would run its ``finally`` at GC time."""
        sim = Simulator()
        unwound = []

        def waiter():
            try:
                yield Wait(Event("never"))
            finally:
                unwound.append(sim.now)

        ref = weakref.ref(sim.spawn(waiter()))
        sim.run()
        gc.collect()
        assert ref() is not None and ref().alive
        assert unwound == []
        assert ref() in sim._processes

    def test_heap_entries_take_no_stray_attributes(self):
        sim = Simulator()
        entry = sim.call_in(1.0, lambda: None)
        with pytest.raises(AttributeError):
            entry.pretriggered = True
        sim.run()
        sim.events.check()
