"""Event primitives and the global event queue.

The queue is a binary heap ordered by ``(time, priority, seq)``.  The
``seq`` tiebreaker makes same-time, same-priority events fire in the
order they were scheduled, which keeps simulations bit-for-bit
reproducible — a requirement called out in DESIGN.md because the paper's
scheduling experiments compare policies on identical arrival streams.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..errors import ClockError, SimulationError

__all__ = ["Event", "EventQueue", "ScheduledEvent"]


class Event:
    """One-shot event with callbacks and an optional payload.

    Events have three states: *pending* (created), *triggered* (value
    set, scheduled for processing), *processed* (callbacks ran).  The
    separation between triggered and processed lets the simulator batch
    same-time triggers deterministically.
    """

    __slots__ = ("callbacks", "_value", "_triggered", "_processed", "name")

    def __init__(self, name: str = "") -> None:
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._processed = False
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Mark the event triggered with ``value``; idempotence is an error."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value

    def run_callbacks(self) -> None:
        if self._processed:
            raise SimulationError(f"event {self.name!r} processed twice")
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending"
        )
        return f"Event({self.name!r}, {state})"


@dataclass(order=True, slots=True)
class ScheduledEvent:
    """Heap entry: an event due at ``time`` with a tie-breaking priority.

    ``background`` entries belong to perpetual housekeeping processes
    (telemetry scrapers, drift models): they are processed normally but
    do not keep an unbounded :meth:`Simulator.run` alive.  ``fired``
    marks an entry :meth:`EventQueue.pop` has returned: it has left the
    heap, so cancelling it changes nothing.
    """

    time: float
    priority: int
    seq: int
    event: Event = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    background: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)


#: heaps smaller than this are never compacted — rebuilding a tiny heap
#: costs more than carrying its dead entries to the top
_COMPACT_MIN_HEAP = 64


class EventQueue:
    """Deterministic time-ordered event heap with lazy cancellation.

    Cancellation marks entries dead in O(1) and prunes them lazily when
    they surface at the heap top.  Timeout-heavy workloads (timers
    cancelled by the completions they guard) can accumulate dead entries
    deep in the heap, so when more than half the resident entries are
    cancelled the heap is compacted in one pass.  Compaction preserves
    the (time, priority, seq) total order exactly — ``seq`` is unique,
    so pop order is independent of the heap's internal layout.
    """

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = itertools.count()
        self._live = 0
        self._foreground = 0
        #: cancelled entries still in the heap
        self._dead = 0
        #: :meth:`hold` calls not yet released
        self._held = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def foreground_count(self) -> int:
        return self._foreground

    def hold(self) -> None:
        """Count a wake armed outside the heap (a lifecycle-bus
        subscription) as foreground work until :meth:`release`, so an
        unbounded run keeps stepping the background work that may fire
        it.  An empty heap still ends the run."""
        self._held += 1
        self._foreground += 1

    def release(self) -> None:
        """Drop one :meth:`hold`."""
        self._held -= 1
        self._foreground -= 1

    def check(self) -> None:
        """Raise :class:`SimulationError` unless the live, foreground
        and dead counts equal a recount of the heap plus the holds."""
        live = [e for e in self._heap if not e.cancelled]
        counted = (self._live, self._foreground, self._dead)
        recount = (
            len(live),
            sum(1 for e in live if not e.background) + self._held,
            len(self._heap) - len(live),
        )
        if counted != recount or self._held < 0:
            raise SimulationError(
                f"event queue counts (live, foreground, dead) {counted} "
                f"disagree with the heap's {recount} ({self._held} held)"
            )

    def push(
        self, time: float, event: Event, priority: int = 0, background: bool = False
    ) -> ScheduledEvent:
        """Schedule ``event`` to be processed at ``time``."""
        if time < 0:
            raise ClockError(f"cannot schedule event at negative time {time}")
        entry = ScheduledEvent(
            time=time, priority=priority, seq=next(self._seq), event=event,
            background=background,
        )
        heapq.heappush(self._heap, entry)
        self._live += 1
        if not background:
            self._foreground += 1
        return entry

    def cancel(self, entry: ScheduledEvent) -> None:
        """Lazily cancel a scheduled entry (O(1); skipped on pop).  An
        entry already cancelled or fired is left as it is: a watchdog
        may cancel the timer that just woke it."""
        if not (entry.cancelled or entry.fired):
            entry.cancelled = True
            self._live -= 1
            if not entry.background:
                self._foreground -= 1
            self._dead += 1
            if (
                len(self._heap) >= _COMPACT_MIN_HEAP
                and self._dead * 2 > len(self._heap)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry in one pass and re-heapify."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def peek_time(self) -> float:
        """Time of the next live entry; raises if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            raise SimulationError("event queue is empty")
        return self._heap[0].time

    def pop(self) -> ScheduledEvent:
        """Remove and return the next live entry in (time, priority, seq) order."""
        self._drop_cancelled()
        if not self._heap:
            raise SimulationError("event queue is empty")
        entry = heapq.heappop(self._heap)
        entry.fired = True
        self._live -= 1
        if not entry.background:
            self._foreground -= 1
        return entry

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._dead -= 1
