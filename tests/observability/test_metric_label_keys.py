"""The metric instruments' memoised label keys and bisected buckets.

Each instrument maps the label items a caller passes to a checked,
sorted series key once, and ``Histogram.observe`` finds its bucket with
``bisect_left``.  These tests pin that the shortcuts change nothing:

* bucket counts equal the ``np.searchsorted(buckets, v, side="left")``
  reference for any value, bucket bounds, +-inf and NaN included,
* a wrong label set raises on every call, not only the first,
* label dicts in different insertion orders feed one series,
* the exposition text of a fixed observation sequence is byte-identical
  to the one the unmemoised instruments rendered.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricError
from repro.observability import Histogram, MetricRegistry, render_exposition

INF = float("inf")
NAN = float("nan")

BUCKETS = (
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
        unique=True,
    )
    .map(sorted)
    .map(tuple)
)


def bucket_counts(histogram: Histogram) -> list[float]:
    """Cumulative per-bucket counts of a label-less histogram, +Inf last."""
    return [value for suffix, _, value in histogram.samples() if suffix == "_bucket"]


class TestHistogramBuckets:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), buckets=BUCKETS)
    def test_counts_match_searchsorted_reference(self, data, buckets):
        values = data.draw(
            st.lists(
                st.one_of(
                    st.floats(),
                    st.sampled_from(buckets),
                    st.sampled_from((INF, -INF, NAN, 0.0, -0.0)),
                ),
                min_size=1,
                max_size=40,
            )
        )
        histogram = Histogram("h", buckets=buckets)
        expected = [0] * (len(buckets) + 1)
        for value in values:
            histogram.observe(value)
            expected[int(np.searchsorted(buckets, value, side="left"))] += 1
        assert bucket_counts(histogram) == [float(c) for c in np.cumsum(expected)]
        assert histogram.count() == len(values)

    def test_nan_lands_in_the_inf_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(NAN)
        assert bucket_counts(histogram) == [0.0, 0.0, 1.0]
        assert math.isnan(histogram.sum())

    def test_bucket_bounds_are_inclusive(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        for value in (1.0, 2.0, -INF, INF):
            histogram.observe(value)
        # le="1.0" holds 1.0 and -inf; le="2.0" adds 2.0; +Inf adds inf
        assert bucket_counts(histogram) == [2.0, 3.0, 4.0]


class TestLabelChecks:
    def instruments(self):
        registry = MetricRegistry()
        counter = registry.counter("c_total", label_names=("site", "outcome"))
        gauge = registry.gauge("g", label_names=("site", "outcome"))
        histogram = registry.histogram("h", label_names=("site", "outcome"))
        return counter, gauge, histogram

    @pytest.mark.parametrize(
        "bad",
        [
            {"site": "a"},
            {"site": "a", "outcome": "ok", "extra": "x"},
            {"site": "a", "result": "ok"},
            {},
            None,
        ],
    )
    def test_wrong_label_set_raises_on_every_call(self, bad):
        counter, gauge, histogram = self.instruments()
        good = {"site": "a", "outcome": "ok"}
        calls = (
            lambda labels: counter.inc(labels=labels),
            lambda labels: counter.value(labels),
            lambda labels: gauge.set(1.0, labels=labels),
            lambda labels: gauge.inc(labels=labels),
            lambda labels: histogram.observe(0.2, labels=labels),
            lambda labels: histogram.quantile(0.5, labels),
        )
        for call in calls:
            for _ in range(3):
                with pytest.raises(MetricError):
                    call(bad)
                # a valid call in between memoises the good key only
                call(good)
        assert counter.value(good) == 3.0
        assert histogram.count(good) == 3

    def test_histogram_count_and_sum_check_labels(self):
        # they share the one key path with every other reader: a typo'd
        # label set is an error, not an empty series
        _, _, histogram = self.instruments()
        histogram.observe(0.2, labels={"site": "a", "outcome": "ok"})
        for read in (histogram.count, histogram.sum, histogram.mean):
            for _ in range(2):
                with pytest.raises(MetricError):
                    read({"site": "a"})
        assert histogram.count({"outcome": "ok", "site": "a"}) == 1

    def test_unlabelled_instrument_rejects_labels_every_time(self):
        counter = MetricRegistry().counter("plain_total")
        for _ in range(3):
            with pytest.raises(MetricError):
                counter.inc(labels={"site": "a"})
            counter.inc()
        assert counter.value() == 3.0


class TestLabelOrder:
    def test_insertion_order_feeds_one_series(self):
        registry = MetricRegistry()
        counter = registry.counter("c_total", label_names=("site", "outcome"))
        gauge = registry.gauge("g", label_names=("site", "outcome"))
        histogram = registry.histogram(
            "h", buckets=(1.0,), label_names=("site", "outcome")
        )
        forward = {"site": "a", "outcome": "ok"}
        backward = {"outcome": "ok", "site": "a"}
        for labels in (forward, backward, forward):
            counter.inc(labels=labels)
            gauge.inc(2.0, labels=labels)
            histogram.observe(0.5, labels=labels)
        for labels in (forward, backward):
            assert counter.value(labels) == 3.0
            assert gauge.value(labels) == 6.0
            assert histogram.count(labels) == 3
            assert histogram.sum(labels) == 1.5
        assert len(counter.samples()) == 1
        assert len(gauge.samples()) == 1
        # two buckets (1.0, +Inf), sum, count: one series
        assert len(histogram.samples()) == 4


def fixed_registry() -> MetricRegistry:
    """Counters, gauges and histograms fed a fixed sequence: labels in
    both insertion orders, values on bucket bounds, +-inf and NaN."""
    registry = MetricRegistry()
    jobs = registry.counter("jobs_total", "Jobs by outcome", label_names=("outcome", "site"))
    ticks = registry.counter("ticks_total", "Ticks")
    depth = registry.gauge("queue_depth", "Queued jobs", label_names=("site",))
    temperature = registry.gauge("fridge_temperature", "")
    wait = registry.histogram(
        "wait_seconds", "Queue wait", buckets=(0.5, 1.0, 2.5), label_names=("site", "class")
    )
    latency = registry.histogram("latency_seconds", "Latency")
    for i in range(7):
        jobs.inc(labels={"outcome": "ok", "site": f"s{i % 3}"})
        jobs.inc(0.5, labels={"site": f"s{i % 2}", "outcome": "failed" if i % 3 else "ok"})
        ticks.inc(i)
        depth.set(i * 1.5, labels={"site": f"s{i % 3}"})
        depth.inc(labels={"site": "s0"})
        depth.dec(0.25, labels={"site": "s1"})
    temperature.set(0.012)
    for v in (0.0, 0.5, 0.5000001, 1.0, 2.5, 3.0, -1.0, INF, -INF, NAN, 0.75, 2.4999):
        wait.observe(v, labels={"site": "s0", "class": "production"})
        wait.observe(v * 2, labels={"class": "test", "site": "s1"})
    for v in (0.001, 0.01, 0.05, 0.07, 0.1, 3.3, 10.0, 49.9, 500.0, 501.0, 1e9):
        latency.observe(v)
    return registry


#: what the instruments rendered for fixed_registry() before the label
#: keys were memoised and the buckets bisected
EXPECTED_EXPOSITION = """\
# TYPE fridge_temperature gauge
fridge_temperature 0.012
# HELP jobs_total Jobs by outcome
# TYPE jobs_total counter
jobs_total{outcome="failed",site="s0"} 1
jobs_total{outcome="failed",site="s1"} 1
jobs_total{outcome="ok",site="s0"} 4
jobs_total{outcome="ok",site="s1"} 2.5
jobs_total{outcome="ok",site="s2"} 2
# HELP latency_seconds Latency
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.01"} 2
latency_seconds_bucket{le="0.05"} 3
latency_seconds_bucket{le="0.1"} 5
latency_seconds_bucket{le="0.5"} 5
latency_seconds_bucket{le="1.0"} 5
latency_seconds_bucket{le="5.0"} 6
latency_seconds_bucket{le="10.0"} 7
latency_seconds_bucket{le="50.0"} 8
latency_seconds_bucket{le="100.0"} 8
latency_seconds_bucket{le="500.0"} 9
latency_seconds_bucket{le="+Inf"} 11
latency_seconds_sum 1000001064.431
latency_seconds_count 11
# HELP queue_depth Queued jobs
# TYPE queue_depth gauge
queue_depth{site="s0"} 10
queue_depth{site="s1"} 5.25
queue_depth{site="s2"} 7.5
# HELP ticks_total Ticks
# TYPE ticks_total counter
ticks_total 21
# HELP wait_seconds Queue wait
# TYPE wait_seconds histogram
wait_seconds_bucket{class="production",le="0.5",site="s0"} 4
wait_seconds_bucket{class="production",le="1.0",site="s0"} 7
wait_seconds_bucket{class="production",le="2.5",site="s0"} 9
wait_seconds_bucket{class="production",le="+Inf",site="s0"} 12
wait_seconds_sum{class="production",site="s0"} NaN
wait_seconds_count{class="production",site="s0"} 12
wait_seconds_bucket{class="test",le="0.5",site="s1"} 3
wait_seconds_bucket{class="test",le="1.0",site="s1"} 4
wait_seconds_bucket{class="test",le="2.5",site="s1"} 7
wait_seconds_bucket{class="test",le="+Inf",site="s1"} 12
wait_seconds_sum{class="test",site="s1"} NaN
wait_seconds_count{class="test",site="s1"} 12
"""


def test_exposition_is_byte_identical():
    assert render_exposition(fixed_registry()) == EXPECTED_EXPOSITION
