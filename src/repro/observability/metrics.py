"""Prometheus-style metric registry.

Three instrument types with label support:

* :class:`Counter` — monotone; ``inc(value)``,
* :class:`Gauge` — arbitrary; ``set`` / ``inc`` / ``dec``,
* :class:`Histogram` — fixed buckets; ``observe`` feeds bucket counts,
  a running sum and count (enough for mean and quantile estimates).

A :class:`MetricRegistry` owns instruments; the exporter renders it in
the Prometheus text exposition format; the scraper snapshots it into
the TSDB.  Read hooks bring instruments kept elsewhere up to date first.

A series is keyed by its sorted ``(label, value)`` pairs.  Each
instrument memoises that key per label-items tuple as the caller passed
it, so a hot call site — the same label dict on every event — pays one
dict lookup instead of a label-set check and a sort per call.  Only
label sets that passed the check are memoised: a wrong set raises
:class:`~repro.errors.MetricError` on every call.  Dicts with the same
labels in a different insertion order memoise separately and map to the
same series.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping

import numpy as np

from ..errors import MetricError

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]


class _Instrument:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Iterable[str] = ()) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self.label_names = frozenset(label_names)
        #: label items as passed -> checked, sorted series key
        self._keys: dict[tuple, tuple] = {}

    def _key(self, labels: Mapping[str, str] | None) -> tuple:
        """The series key for ``labels``, checked against the declared
        label names the first time this items tuple is seen."""
        items = tuple(labels.items()) if labels else ()
        key = self._keys.get(items)
        if key is None:
            given = frozenset(name for name, _ in items)
            if given != self.label_names:
                raise MetricError(
                    f"metric {self.name!r} expects labels {sorted(self.label_names)}, "
                    f"got {sorted(given)}"
                )
            key = self._keys[items] = tuple(sorted(items))
        return key

    def samples(self) -> list[tuple[str, dict, float]]:
        """(suffix, labels, value) triples for exposition."""
        raise NotImplementedError


class Counter(_Instrument):
    kind = "counter"

    def __init__(self, name: str, help_text: str = "", label_names: Iterable[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple, float] = {}

    def inc(self, value: float = 1.0, labels: Mapping[str, str] | None = None) -> None:
        if value < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, labels: Mapping[str, str] | None = None) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[str, dict, float]]:
        if not self._values:
            return [("", {}, 0.0)] if not self.label_names else []
        return [("", dict(k), v) for k, v in sorted(self._values.items())]


class Gauge(_Instrument):
    kind = "gauge"

    def __init__(self, name: str, help_text: str = "", label_names: Iterable[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, labels: Mapping[str, str] | None = None) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, value: float = 1.0, labels: Mapping[str, str] | None = None) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def dec(self, value: float = 1.0, labels: Mapping[str, str] | None = None) -> None:
        self.inc(-value, labels)

    def remove(self, labels: Mapping[str, str] | None = None) -> None:
        """Drop one label set's series, so it leaves the exposition (a
        no-op when it has none): for a gauge whose subject is gone."""
        self._values.pop(self._key(labels), None)

    def value(self, labels: Mapping[str, str] | None = None) -> float:
        key = self._key(labels)
        if key not in self._values:
            raise MetricError(f"gauge {self.name!r} has no value for {labels}")
        return self._values[key]

    def samples(self) -> list[tuple[str, dict, float]]:
        return [("", dict(k), v) for k, v in sorted(self._values.items())]


DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0)


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        label_names: Iterable[str] = (),
    ) -> None:
        super().__init__(name, help_text, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError("histogram buckets must be sorted and non-empty")
        if not all(b == b and abs(b) != float("inf") for b in buckets):
            # the +Inf bucket is implicit in the exposition; an explicit
            # infinite (or NaN) bound would render as a duplicate
            # `le="inf"` series and corrupt cumulative counts
            raise MetricError("histogram buckets must be finite")
        self.buckets = tuple(float(b) for b in buckets)
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}
        self._totals: dict[tuple, int] = {}

    def observe(self, value: float, labels: Mapping[str, str] | None = None) -> None:
        key = self._key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            self._sums[key] = 0.0
            self._totals[key] = 0
        # first bucket whose bound is >= value; NaN sorts past every
        # bound into +Inf, as np.searchsorted places it
        buckets = self.buckets
        counts[bisect_left(buckets, value) if value == value else len(buckets)] += 1
        self._sums[key] += value
        self._totals[key] += 1

    def count(self, labels: Mapping[str, str] | None = None) -> int:
        return self._totals.get(self._key(labels), 0)

    def sum(self, labels: Mapping[str, str] | None = None) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def mean(self, labels: Mapping[str, str] | None = None) -> float:
        total = self.count(labels)
        return self.sum(labels) / total if total else float("nan")

    def quantile(self, q: float, labels: Mapping[str, str] | None = None) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style)."""
        if not (0.0 <= q <= 1.0):
            raise MetricError(f"quantile must be in [0,1], got {q}")
        key = self._key(labels)
        if key not in self._counts or self._totals[key] == 0:
            raise MetricError(
                f"quantile of empty histogram {self.name!r} "
                f"(labels={dict(labels or {})})"
            )
        cumulative = np.cumsum(self._counts[key])
        target = q * self._totals[key]
        idx = int(np.searchsorted(cumulative, target, side="left"))
        if idx >= len(self.buckets):
            return self.buckets[-1]
        return self.buckets[idx]

    def samples(self) -> list[tuple[str, dict, float]]:
        out: list[tuple[str, dict, float]] = []
        for key in sorted(self._counts):
            labels = dict(key)
            cumulative = 0
            for bucket, count in zip(self.buckets, self._counts[key][:-1], strict=True):
                cumulative += count
                out.append(("_bucket", {**labels, "le": repr(bucket)}, float(cumulative)))
            out.append(("_bucket", {**labels, "le": "+Inf"}, float(self._totals[key])))
            out.append(("_sum", labels, self._sums[key]))
            out.append(("_count", labels, float(self._totals[key])))
        return out


class MetricRegistry:
    """Owns instruments; one per process/daemon."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._read_hooks: list[Callable[[], None]] = []

    def add_read_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` before every read of the instruments
        (exposition and :meth:`snapshot`), in the order added."""
        self._read_hooks.append(hook)

    def counter(self, name: str, help_text: str = "", label_names: Iterable[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, label_names))

    def gauge(self, name: str, help_text: str = "", label_names: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, label_names))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        label_names: Iterable[str] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, label_names))

    def _register(self, instrument: _Instrument) -> _Instrument:
        if instrument.name in self._instruments:
            raise MetricError(f"metric {instrument.name!r} already registered")
        self._instruments[instrument.name] = instrument
        return instrument

    def get(self, name: str) -> _Instrument:
        if name not in self._instruments:
            raise MetricError(f"unknown metric {name!r}")
        return self._instruments[name]

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def instruments(self) -> list[_Instrument]:
        """Every instrument, by name, after the read hooks ran."""
        for hook in self._read_hooks:
            hook()
        return [self._instruments[n] for n in self.names()]

    def snapshot(self) -> dict[str, float]:
        """Flat name->value map (label-less view for quick scraping);
        labeled samples get their labels folded into the name."""
        flat: dict[str, float] = {}
        for instrument in self.instruments():
            for suffix, labels, value in instrument.samples():
                if labels:
                    label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                    flat[f"{instrument.name}{suffix}{{{label_str}}}"] = value
                else:
                    flat[f"{instrument.name}{suffix}"] = value
        return flat
