"""Kernel batch dispatch: run() order equivalence, heap compaction,
and step_batch dispatch semantics."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Event, EventQueue, Simulator


#: one scheduled entry: (time, priority, action, cancelled before the
#: run?, pretriggered?) — the callback's action is nothing, "barge" (push
#: a same-time priority -1 entry, as interrupt delivery does) or an int
#: (cancel that initial entry if still queued)
_schedule = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5).map(float),
        st.integers(min_value=-2, max_value=2),
        st.one_of(st.none(), st.just("barge"), st.integers(min_value=0, max_value=59)),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def _reference_order(items) -> list[int]:
    """Dispatch order by the (time, priority, seq) rule alone, applying
    each callback's barge/cancel as its entry is dispatched."""
    seq = itertools.count()
    barges = itertools.count(len(items))
    live = {i: (time, priority, next(seq), action) for i, (time, priority, action, _, _) in enumerate(items)}
    for i, (*_, cancelled, _) in enumerate(items):
        if cancelled:
            del live[i]
    order: list[int] = []
    while live:
        entry_id = min(live, key=lambda k: live[k][:3])
        time, _, _, action = live.pop(entry_id)
        order.append(entry_id)
        if action == "barge":
            live[next(barges)] = (time, -1, next(seq), None)
        elif action is not None:
            live.pop(action % len(items), None)
    return order


@settings(max_examples=200, deadline=None)
@given(_schedule)
def test_run_dispatches_in_time_priority_seq_order(items):
    """run() dispatches in exactly the reference (time, priority, seq)
    order, with entries cancelled before the run, pretriggered ones,
    and callbacks that add same-time priority -1 entries mid-batch and
    cancel entries still queued."""
    sim = Simulator()
    order: list[int] = []
    entries = []
    barges = itertools.count(len(items))

    def dispatch(entry_id, action):
        order.append(entry_id)
        if action == "barge":
            barge_id = next(barges)
            barge = Event()
            barge.callbacks.append(lambda ev: dispatch(barge_id, None))
            sim.events.push(sim.now, barge, priority=-1)
        elif action is not None:
            target = action % len(items)
            if target not in order:
                sim.events.cancel(entries[target])

    for entry_id, (time, priority, action, _, pretriggered) in enumerate(items):
        event = Event()
        if pretriggered:
            event.trigger(None)
        event.callbacks.append(lambda ev, i=entry_id, a=action: dispatch(i, a))
        entries.append(sim.events.push(time, event, priority=priority))
    for entry, (*_, cancelled, _) in zip(entries, items, strict=True):
        if cancelled:
            sim.events.cancel(entry)
    sim.run()
    assert order == _reference_order(items)
    assert len(sim.events) == 0
    assert sim.events.foreground_count() == 0


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
        sim.schedule(barge, delay=0.0, priority=-1)
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
