"""Chunked-array storage behaviour of the TSDB fast path.

The series store grows geometrically and retires points by advancing a
start offset; these tests pin that none of that machinery is visible
through the query surface (values exact, monotonicity still enforced,
retention counts right) across growth and compaction boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TSDBError
from repro.observability.tsdb import _COMPACT_THRESHOLD, TimeSeriesDB


class TestChunkedGrowth:
    def test_growth_across_capacity_boundaries_preserves_data(self):
        db = TimeSeriesDB()
        n = 5000  # several doublings past the initial capacity
        for i in range(n):
            db.write("m", float(i), float(i) * 0.5)
        t, v = db.query("m")
        assert t.size == n
        np.testing.assert_allclose(t, np.arange(n, dtype=float))
        np.testing.assert_allclose(v, np.arange(n, dtype=float) * 0.5)
        assert db.latest("m") == (float(n - 1), (n - 1) * 0.5)

    def test_windowed_query_is_a_view_not_a_copy(self):
        db = TimeSeriesDB()
        for i in range(1000):
            db.write("m", float(i), 1.0)
        t, _ = db.query("m", since=990.0)
        assert t.size == 10
        assert t.base is not None  # a view of the backing buffer

    def test_monotonicity_still_enforced_after_growth(self):
        db = TimeSeriesDB()
        for i in range(200):
            db.write("m", float(i), 0.0)
        with pytest.raises(TSDBError):
            db.write("m", 100.0, 0.0)


class TestOffsetRetention:
    def test_retention_drops_exactly_the_expired_points(self):
        db = TimeSeriesDB(retention_seconds=100.0)
        for i in range(500):
            db.write("m", float(i), float(i))
        dropped = db.enforce_retention(now=499.0)
        assert dropped == 399  # t < 399 gone, [399, 499] kept
        t, v = db.query("m")
        assert t[0] == 399.0 and t[-1] == 499.0
        assert db.point_count() == 101
        np.testing.assert_allclose(v, t)

    def test_append_after_retention_keeps_working(self):
        db = TimeSeriesDB(retention_seconds=50.0)
        for i in range(200):
            db.write("m", float(i), 1.0)
        db.enforce_retention(now=199.0)
        db.write("m", 250.0, 2.0)
        with pytest.raises(TSDBError):  # monotone vs the live window
            db.write("m", 200.0, 3.0)
        assert db.latest("m") == (250.0, 2.0)

    def test_compaction_after_large_retired_prefix(self):
        db = TimeSeriesDB(retention_seconds=10.0)
        n = 4 * _COMPACT_THRESHOLD
        for i in range(n):
            db.write("m", float(i), float(i % 3))
        db.enforce_retention(now=float(n))  # everything but the tail dies
        series = db._find("m", None)
        assert series._start == 0  # compacted back to offset zero
        t, v = db.query("m")
        assert t.size == db.point_count() <= 11
        np.testing.assert_allclose(v, t % 3)

    def test_interleaved_writes_queries_retention(self):
        db = TimeSeriesDB(retention_seconds=64.0)
        expected: list[tuple[float, float]] = []
        for i in range(3000):
            db.write("m", float(i), float(2 * i))
            expected.append((float(i), float(2 * i)))
            if i % 97 == 0:
                db.enforce_retention(now=float(i))
                expected = [p for p in expected if p[0] >= i - 64.0]
                t, v = db.query("m")
                np.testing.assert_allclose(t, [p[0] for p in expected])
                np.testing.assert_allclose(v, [p[1] for p in expected])


class _ModelDB:
    """The documented write semantics on plain lists: points append in
    order, a point older than its series' newest stored point raises,
    and retention drops points older than ``now - retention``."""

    def __init__(self, retention):
        self.retention = retention
        self.series = {}

    def write(self, measurement, time, value, labels):
        points = self.series.setdefault((measurement, tuple(sorted(labels.items()))), [])
        if points and time < points[-1][0]:
            raise TSDBError(f"out-of-order write: t={float(time)} after t={points[-1][0]}")
        points.append((float(time), float(value)))

    def enforce_retention(self, now):
        cutoff = now - self.retention
        dropped = 0
        for key, points in self.series.items():
            kept = [p for p in points if p[0] >= cutoff]
            dropped += len(points) - len(kept)
            self.series[key] = kept
        return dropped


_LABEL_SETS = ({}, {"device": "qpu"}, {"target": "qpu", "site": "a"})
_BATCH = st.tuples(
    st.sampled_from(("batch", "retention")),
    st.integers(min_value=0, max_value=30),        # time (or "now")
    st.sampled_from(range(len(_LABEL_SETS))),
    st.dictionaries(
        st.sampled_from(("a", "b", "c", "d")),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        max_size=4,
    ),
)


def _each(write, values, time, labels):
    for measurement, value in values.items():
        write(measurement, time, value, labels)


def _outcome(call, *args, **kwargs):
    """None, or the text of the TSDBError the call raised."""
    try:
        call(*args, **kwargs)
    except TSDBError as err:
        return str(err)
    return None


class TestWriteManyIsALoopOfWrites:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_BATCH, max_size=40))
    def test_points_queries_retention_and_errors_match(self, ops):
        batched, looped = TimeSeriesDB(retention_seconds=12.0), TimeSeriesDB(retention_seconds=12.0)
        model = _ModelDB(12.0)
        for kind, time, label_index, values in ops:
            labels = _LABEL_SETS[label_index]
            if kind == "retention":
                dropped = model.enforce_retention(float(time))
                assert batched.enforce_retention(float(time)) == dropped
                assert looped.enforce_retention(float(time)) == dropped
                continue
            outcomes = [
                _outcome(batched.write_many, values, time, labels=labels),
                _outcome(_each, looped.write, values, time, labels),
                _outcome(_each, model.write, values, time, labels),
            ]
            assert outcomes[0] == outcomes[1] == outcomes[2]
        # the same series exist, holding the same points
        for measurement in ("a", "b", "c", "d"):
            for labels in _LABEL_SETS:
                points = model.series.get((measurement, tuple(sorted(labels.items()))))
                for db in (batched, looped):
                    assert db.has_series(measurement, labels) == (points is not None)
                    if points is None:
                        continue
                    t, v = db.query(measurement, labels)
                    assert list(zip(t.tolist(), v.tolist(), strict=True)) == points
                    if points:
                        assert db.latest(measurement, labels) == points[-1]
        assert batched.point_count() == looped.point_count() == sum(map(len, model.series.values()))
        assert batched.measurements() == looped.measurements()
