"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.simkernel import Event, EventQueue, Simulator, Timeout


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_event_queue_pops_in_time_order(times):
    q = EventQueue()
    for t in times:
        q.push(t, Event())
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(times)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=-5, max_value=5),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_event_queue_time_then_priority_order(entries):
    q = EventQueue()
    for t, p in entries:
        q.push(t, Event(), priority=p)
    popped = [(e.time, e.priority, e.seq) for e in (q.pop() for _ in range(len(entries)))]
    assert popped == sorted(popped)


@settings(max_examples=30)
@given(st.lists(st.floats(min_value=0.001, max_value=10.0, allow_nan=False), min_size=1, max_size=20))
def test_process_timeouts_sum_to_completion_time(delays):
    sim = Simulator()

    def proc():
        for d in delays:
            yield Timeout(d)
        return sim.now

    p = sim.spawn(proc())
    final = sim.run_until_process(p)
    assert abs(final - sum(delays)) < 1e-6


@settings(max_examples=30)
@given(
    st.lists(st.floats(min_value=0.01, max_value=5.0, allow_nan=False), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=4),
)
def test_resource_never_oversubscribed(holds, capacity):
    from repro.simkernel import Resource

    sim = Simulator()
    res = Resource(capacity)
    max_in_use = [0]

    def user(hold):
        yield res.request()
        max_in_use[0] = max(max_in_use[0], res.in_use)
        assert res.in_use <= res.capacity
        yield Timeout(hold)
        res.release()

    for hold in holds:
        sim.spawn(user(hold))
    sim.run()
    assert max_in_use[0] <= capacity
    assert res.in_use == 0


class EventQueueCounts(RuleBasedStateMachine):
    """The queue's live, foreground and dead counts against a model of
    every entry, over push, cancel, pop, cancel-after-pop, hold,
    release and compaction."""

    def __init__(self):
        super().__init__()
        self.queue = EventQueue()
        self.queued = []     # entries pushed, neither cancelled nor popped
        self.cancelled = []
        self.popped = []
        self.holds = 0

    @rule(
        time=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        priority=st.integers(min_value=-1, max_value=1),
        background=st.booleans(),
        count=st.integers(min_value=1, max_value=40),
    )
    def push(self, time, priority, background, count):
        for _ in range(count):
            self.queued.append(self.queue.push(time, Event(), priority, background))

    @precondition(lambda self: self.queued)
    @rule(data=st.data())
    def cancel(self, data):
        entry = data.draw(st.sampled_from(self.queued))
        self.queue.cancel(entry)
        self.queued.remove(entry)
        self.cancelled.append(entry)

    @precondition(lambda self: self.cancelled or self.popped)
    @rule(data=st.data())
    def cancel_again_or_after_pop(self, data):
        self.queue.cancel(data.draw(st.sampled_from(self.cancelled + self.popped)))

    @rule()
    def pop(self):
        if not self.queued:
            assert not self.queue
            return
        expected = min(self.queued, key=lambda e: (e.time, e.priority, e.seq))
        assert self.queue.pop() is expected
        self.queued.remove(expected)
        self.popped.append(expected)

    @rule()
    def hold(self):
        self.queue.hold()
        self.holds += 1

    @precondition(lambda self: self.holds)
    @rule()
    def release(self):
        self.queue.release()
        self.holds -= 1

    @rule()
    def compact(self):
        self.queue._compact()

    @invariant()
    def counts_match_recount(self):
        self.queue.check()
        assert len(self.queue) == len(self.queued)
        foreground = sum(1 for e in self.queued if not e.background)
        assert self.queue.foreground_count() == foreground + self.holds


TestEventQueueCounts = EventQueueCounts.TestCase
TestEventQueueCounts.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


def test_cancel_after_pop_does_not_count():
    q = EventQueue()
    first = q.push(1.0, Event())
    q.push(2.0, Event())
    assert q.pop() is first
    q.cancel(first)
    assert len(q) == 1 and q.foreground_count() == 1
    q.check()
