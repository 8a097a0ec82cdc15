"""Structured trace recording for simulations.

A component can emit :class:`TraceRecord` rows (time, component,
event, fields) into a recorder it owns, as the Slurm controller does.
The middleware daemon and its QPUs keep none: their task transitions
travel on the lifecycle bus.

A recorder keeps a row per event for as long as it runs, so it stores
each row compactly: one flat tuple ``(time, component, event,
keys, *values)``, where ``keys`` is the row's field names in emit
order, shared by every row of the same field schema.  Reads build
:class:`TraceRecord` objects from the rows; :meth:`TraceRecorder.pairs`
reads the rows directly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceRecord", "TraceRecorder"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace row.

    ``time`` is simulated seconds; ``component`` names the emitting layer
    (``"slurm"``, ``"daemon"``, ``"qpu"`` ...); ``event`` is a short verb
    (``"job_submit"``, ``"shot_done"`` ...); ``fields`` holds arbitrary
    structured detail.
    """

    time: float
    component: str
    event: str
    fields: dict[str, Any] = field(default_factory=dict)


def _record(row: tuple) -> TraceRecord:
    return TraceRecord(row[0], row[1], row[2], dict(zip(row[3], row[4:], strict=True)))


class TraceRecorder:
    """Append-only trace log with filtered views."""

    def __init__(self) -> None:
        #: one flat tuple per row (see the module docstring)
        self._rows: list[tuple] = []
        #: field-name tuple -> its one shared instance
        self._schemas: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._subscribers: list[Callable[[TraceRecord], None]] = []

    def emit(self, time: float, component: str, event: str, **fields: Any) -> TraceRecord:
        keys = tuple(fields)
        keys = self._schemas.setdefault(keys, keys)
        self._rows.append((time, component, event, keys, *fields.values()))
        record = TraceRecord(time, component, event, fields)
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Live tap: ``callback`` receives every record as it is
        emitted.  Tests use it to check an invariant at each event
        rather than over the finished trace."""
        self._subscribers.append(callback)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record, self._rows)

    def records(
        self,
        component: str | None = None,
        event: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TraceRecord]:
        """Filtered copy of the trace."""

        def keep(row: tuple) -> bool:
            if component is not None and row[1] != component:
                return False
            if event is not None and row[2] != event:
                return False
            if since is not None and row[0] < since:
                return False
            if until is not None and row[0] > until:
                return False
            return True

        return [_record(row) for row in self._rows if keep(row)]

    def pairs(
        self,
        start_event: str,
        end_event: str,
        key: str,
        component: str | None = None,
    ) -> list[tuple[float, float, Any]]:
        """Match start/end events sharing ``fields[key]``.

        Returns ``(start_time, end_time, key_value)`` tuples; unmatched
        starts are dropped.  This is the workhorse for wait-time and
        busy-interval extraction.
        """
        open_starts: dict[Any, float] = {}
        matched: list[tuple[float, float, Any]] = []
        # row index of ``key`` per field schema, None where it is absent
        where: dict[tuple[str, ...], int | None] = {
            keys: 4 + keys.index(key) if key in keys else None for keys in self._schemas
        }
        for row in self._rows:
            if component is not None and row[1] != component:
                continue
            index = where[row[3]]
            if index is None:
                continue
            value = row[index]
            event = row[2]
            if event == start_event:
                open_starts[value] = row[0]
            elif event == end_event and value in open_starts:
                matched.append((open_starts.pop(value), row[0], value))
        return matched

    @staticmethod
    def busy_fraction(intervals: Iterable[tuple[float, float, Any]], horizon: float) -> float:
        """Fraction of ``[0, horizon]`` covered by (possibly overlapping) intervals."""
        if horizon <= 0:
            return 0.0
        spans = sorted((max(0.0, s), min(horizon, e)) for s, e, _ in intervals if e > 0 and s < horizon)
        covered = 0.0
        cursor = 0.0
        for start, end in spans:
            if end <= cursor:
                continue
            covered += end - max(cursor, start)
            cursor = max(cursor, end)
        return covered / horizon
