"""Time-series database (InfluxDB-style).

Series are identified by ``(measurement, labels)``.  Points are
``(time, value)`` with per-series monotone time enforced (out-of-order
writes raise — catching simulation clock bugs early).  Storage is
chunked NumPy arrays grown geometrically: appends write in place
(amortized O(1), never a list-to-array conversion), queries return
zero-copy views of the live window, and retention advances a start
offset — points are dropped lazily, with compaction only once the dead
prefix dominates the buffer (per the hpc-parallel guide).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import TSDBError

__all__ = ["TimeSeriesDB"]

#: initial per-series buffer capacity (doubles as the series grows)
_MIN_CAPACITY = 64
#: retention compacts once this many retired points lead the buffer
#: *and* they outnumber the live points
_COMPACT_THRESHOLD = 1024


def _label_key(labels: Mapping[str, str] | None) -> tuple:
    return tuple(sorted((labels or {}).items()))


class _Series:
    """One series' chunked storage: ``[_start, _end)`` is the live
    window inside a geometrically-grown pair of buffers."""

    __slots__ = ("_t", "_v", "_start", "_end", "_last")

    def __init__(self) -> None:
        self._t = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._v = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._start = 0
        self._end = 0
        self._last: float | None = None  # newest time, O(1) monotone check

    def __len__(self) -> int:
        return self._end - self._start

    @property
    def last_time(self) -> float | None:
        return self._last if len(self) else None

    @property
    def last_value(self) -> float:
        return float(self._v[self._end - 1])

    def append(self, t: float, v: float) -> None:
        """Store one point; ``t`` is a float no older than the newest."""
        end = self._end
        if end != self._start and t < self._last:
            raise TSDBError(
                f"out-of-order write: t={t} after t={self._last}"
            )
        if end == self._t.size:
            self._compact(grow=True)
            end = self._end
        self._t[end] = t
        self._v[end] = v
        self._end = end + 1
        self._last = t

    def _compact(self, grow: bool = False) -> None:
        """Shift the live window to offset 0; optionally double the
        buffer when it is genuinely full (vs. merely retention-led)."""
        n = len(self)
        capacity = self._t.size
        if grow and self._start < capacity // 2:
            capacity = max(_MIN_CAPACITY, 2 * capacity)
        new_t = np.empty(capacity, dtype=np.float64)
        new_v = np.empty(capacity, dtype=np.float64)
        new_t[:n] = self._t[self._start : self._end]
        new_v[:n] = self._v[self._start : self._end]
        self._t, self._v = new_t, new_v
        self._start, self._end = 0, n

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy views of the live window."""
        return (
            self._t[self._start : self._end],
            self._v[self._start : self._end],
        )

    def drop_before(self, cutoff: float) -> int:
        """Retire points older than ``cutoff`` by advancing the start
        offset (O(log n)); compact only when the dead prefix dominates."""
        t, _ = self.arrays()
        retired = int(np.searchsorted(t, cutoff, side="left"))
        if retired:
            self._start += retired
            if (
                self._start >= _COMPACT_THRESHOLD
                and self._start > len(self)
            ):
                self._compact()
        return retired


class TimeSeriesDB:
    """In-memory TSDB with range queries, aggregation and retention."""

    def __init__(self, retention_seconds: float | None = None) -> None:
        if retention_seconds is not None and retention_seconds <= 0:
            raise TSDBError("retention must be positive (or None)")
        self.retention_seconds = retention_seconds
        #: label key -> measurement -> series: a write resolves its
        #: label set once, then each of its series by name
        self._series: dict[tuple, dict[str, _Series]] = {}

    # -- writes ---------------------------------------------------------------

    def write(
        self,
        measurement: str,
        time: float,
        value: float,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.write_many({measurement: value}, time, labels)

    def write_many(
        self,
        values: Mapping[str, float],
        time: float,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """:meth:`write` every ``measurement: value`` at one ``time``
        under one label set, in order.  An out-of-order point raises
        after the values before it are stored."""
        label_key = _label_key(labels)
        by_name = self._series.get(label_key)
        if by_name is None:
            by_name = self._series[label_key] = {}
        t = float(time)
        for measurement, value in values.items():
            series = by_name.get(measurement)
            if series is None:
                series = by_name[measurement] = _Series()
            series.append(t, value)

    def _find(self, measurement: str, labels: Mapping[str, str] | None) -> _Series | None:
        return self._series.get(_label_key(labels), {}).get(measurement)

    def _all_series(self):
        for by_name in self._series.values():
            yield from by_name.values()

    # -- queries ----------------------------------------------------------------

    def measurements(self) -> list[str]:
        return sorted({name for by_name in self._series.values() for name in by_name})

    def query(
        self,
        measurement: str,
        labels: Mapping[str, str] | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) in the window; unknown series raises."""
        series = self._find(measurement, labels)
        if series is None:
            raise TSDBError(f"unknown series {measurement!r} labels={dict(_label_key(labels))}")
        t, v = series.arrays()
        lo = 0 if since is None else int(np.searchsorted(t, since, side="left"))
        hi = len(t) if until is None else int(np.searchsorted(t, until, side="right"))
        return t[lo:hi], v[lo:hi]

    def has_series(self, measurement: str, labels: Mapping[str, str] | None = None) -> bool:
        return self._find(measurement, labels) is not None

    def latest(
        self, measurement: str, labels: Mapping[str, str] | None = None
    ) -> tuple[float, float]:
        series = self._find(measurement, labels)
        if series is None or not len(series):
            raise TSDBError(f"no points in series {measurement!r}")
        return series.last_time, series.last_value

    # -- aggregations -------------------------------------------------------------

    def aggregate(
        self,
        measurement: str,
        func: str,
        labels: Mapping[str, str] | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> float:
        t, v = self.query(measurement, labels, since, until)
        if v.size == 0:
            return float("nan")
        if func == "mean":
            return float(v.mean())
        if func == "max":
            return float(v.max())
        if func == "min":
            return float(v.min())
        if func == "sum":
            return float(v.sum())
        if func == "last":
            return float(v[-1])
        if func == "rate":
            # per-second increase of a (possibly resetting) counter
            if v.size < 2 or t[-1] == t[0]:
                return 0.0
            increases = np.diff(v)
            increases[increases < 0] = 0.0  # counter reset
            return float(increases.sum() / (t[-1] - t[0]))
        raise TSDBError(f"unknown aggregation {func!r}")

    def downsample(
        self,
        measurement: str,
        bucket_seconds: float,
        func: str = "mean",
        labels: Mapping[str, str] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucketed aggregation: returns (bucket_start_times, values)."""
        if bucket_seconds <= 0:
            raise TSDBError("bucket size must be positive")
        t, v = self.query(measurement, labels)
        if t.size == 0:
            return np.empty(0), np.empty(0)
        buckets = np.floor(t / bucket_seconds).astype(np.int64)
        unique, inverse = np.unique(buckets, return_inverse=True)
        out = np.zeros(unique.size)
        if func == "mean":
            sums = np.bincount(inverse, weights=v)
            counts = np.bincount(inverse)
            out = sums / counts
        elif func == "max":
            out = np.full(unique.size, -np.inf)
            np.maximum.at(out, inverse, v)
        elif func == "min":
            out = np.full(unique.size, np.inf)
            np.minimum.at(out, inverse, v)
        elif func == "sum":
            out = np.bincount(inverse, weights=v)
        else:
            raise TSDBError(f"unknown downsample func {func!r}")
        return unique * bucket_seconds, out

    # -- retention ---------------------------------------------------------------

    def enforce_retention(self, now: float) -> int:
        """Drop points older than the retention window; returns dropped
        count.  O(log n) per series (a start-offset advance), not a
        rebuild of the backing storage."""
        if self.retention_seconds is None:
            return 0
        cutoff = now - self.retention_seconds
        return sum(series.drop_before(cutoff) for series in self._all_series())

    def point_count(self) -> int:
        return sum(len(s) for s in self._all_series())
