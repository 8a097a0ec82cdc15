"""Kernel batch fast path: pop_batch order equivalence, heap
compaction, and step_batch dispatch semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Event, EventQueue, Simulator


def _drain_pop(queue: EventQueue) -> list[tuple[float, int, int]]:
    out = []
    while queue:
        entry = queue.pop()
        out.append((entry.time, entry.priority, entry.seq))
    return out


def _drain_pop_batch(queue: EventQueue) -> list[tuple[float, int, int]]:
    out = []
    while queue:
        batch_time, batch = queue.pop_batch()
        for entry in batch:
            assert entry.time == batch_time
            queue.consume(entry)
            out.append((entry.time, entry.priority, entry.seq))
    return out


#: one schedule item: (time, priority, cancel?, pretriggered?)
_schedule = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.integers(min_value=-2, max_value=2),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200)
@given(_schedule)
def test_pop_batch_matches_repeated_pop(items):
    """pop_batch + consume yields the exact global (time, priority,
    seq) sequence repeated pop produces, on randomized schedules with
    cancellations and pretriggered entries."""
    reference = EventQueue()
    batched = EventQueue()
    for time, priority, cancel, pretriggered in items:
        event_a, event_b = Event(), Event()
        if pretriggered:
            event_a.trigger(None)
            event_b.trigger(None)
        ref_entry = reference.push(time, event_a, priority=priority)
        bat_entry = batched.push(time, event_b, priority=priority)
        if cancel:
            reference.cancel(ref_entry)
            batched.cancel(bat_entry)
    assert _drain_pop(reference) == _drain_pop_batch(batched)
    assert len(batched) == 0
    assert batched.foreground_count() == 0


@settings(max_examples=100)
@given(_schedule, st.data())
def test_pop_batch_requeue_roundtrip(items, data):
    """A partially dispatched batch requeues its tail and the global
    pop order is unchanged."""
    reference = EventQueue()
    batched = EventQueue()
    for time, priority, cancel, _ in items:
        ref_entry = reference.push(time, Event(), priority=priority)
        bat_entry = batched.push(time, Event(), priority=priority)
        if cancel:
            reference.cancel(ref_entry)
            batched.cancel(bat_entry)
    expected = _drain_pop(reference)
    out = []
    while batched:
        _, batch = batched.pop_batch()
        keep = data.draw(st.integers(min_value=0, max_value=len(batch)))
        for entry in batch[:keep]:
            batched.consume(entry)
            out.append((entry.time, entry.priority, entry.seq))
        batched.requeue(batch[keep:])
        if keep == 0 and batch:
            # avoid an infinite loop: dispatch at least one entry
            entry = batched.pop()
            out.append((entry.time, entry.priority, entry.seq))
    assert out == expected


def test_cancel_heavy_heap_compacts():
    """Regression: cancelled entries deep in the heap used to stay
    resident until they surfaced at the top; now the heap compacts once
    more than half of it is dead."""
    queue = EventQueue()
    entries = [queue.push(float(i), Event()) for i in range(200)]
    # cancel from the back so nothing ever reaches the heap top
    for entry in entries[60:]:
        queue.cancel(entry)
    assert len(queue._heap) <= 100, "heap kept its dead tail resident"
    assert len(queue) == 60
    assert [e.time for e in (queue.pop() for _ in range(60))] == [
        float(i) for i in range(60)
    ]


def test_small_heaps_skip_compaction():
    queue = EventQueue()
    entries = [queue.push(float(i), Event()) for i in range(10)]
    for entry in entries[1:]:
        queue.cancel(entry)
    # below the compaction floor the dead entries stay until popped over
    assert len(queue) == 1
    assert queue.pop().time == 0.0


def test_step_batch_preserves_interrupt_priority_order():
    """A callback scheduling a priority -1 entry at the current time
    (the interrupt machinery) must run it before the remaining batch
    entries, exactly as repeated step() would."""
    sim = Simulator()
    log = []

    def first():
        log.append("first")
        barge = Event()
        barge.trigger(None)
        sim.schedule_triggered(barge, delay=0.0, priority=-1)
        barge.callbacks.append(lambda ev: log.append("barge"))

    sim.call_at(5.0, first)
    sim.call_at(5.0, lambda: log.append("second"))
    sim.call_at(5.0, lambda: log.append("third"))
    sim.run()
    assert log == ["first", "barge", "second", "third"]


def test_step_batch_skips_entries_cancelled_mid_batch():
    sim = Simulator()
    log = []
    victim = sim.call_at(5.0, lambda: log.append("victim"))

    def assassin():
        log.append("assassin")
        sim.events.cancel(victim)

    # assassin was scheduled later but sorts first via priority
    entry = sim.events.push(5.0, Event(), priority=-1)
    entry.event.callbacks.append(lambda ev: assassin())
    sim.run()
    assert log == ["assassin"]
    assert len(sim.events) == 0
