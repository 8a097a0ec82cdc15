"""Distributed tracing: job-scoped span trees from Session to shot.

The federation already *publishes* everything that happens to a job —
task transitions stream over the :class:`~repro.federation.events.LifecycleBus`,
the broker announces placements and outcomes, the malleable manager
announces resizes.  What was missing is *causality*: the ability to pick
one job id and get back the full tree of timed stages it passed through
(submit -> admission -> placement -> queue-wait -> execute -> result
fetch -> complete), on both the simulated clock and the wall clock.

This module supplies that plane:

* :class:`TraceContext` — the (trace_id, span_id) pair that travels in
  ``JobSpec.metadata["trace_context"]``, so context propagation needs no
  signature changes anywhere on the submit path,
* :class:`Span` — one timed stage with simulated start/end, wall-clock
  start/end, a status, and free-form attributes,
* :class:`Tracer` — the registry: explicit ``now`` arguments (no clock
  coupling), deterministic ``trace-N``/``span-N`` ids (replayable runs
  produce identical trees), a sink of the bus's stage tracker that turns
  each :class:`~repro.observability.stages.StageInterval` into a span
  (the ``job`` record is the trace root), TSDB persistence, JSON export,
  and critical-path extraction.

Everything here is passive bookkeeping: the tracer never schedules
simulator events and never mutates scheduling state, so an instrumented
run makes bit-identical decisions to an uninstrumented one.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any

from ..errors import ObservabilityError

__all__ = ["Span", "TraceContext", "Tracer"]


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of a span: enough to parent a child
    anywhere downstream without sharing object references."""

    trace_id: str
    span_id: str

    def to_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "TraceContext":
        try:
            return cls(trace_id=str(data["trace_id"]), span_id=str(data["span_id"]))
        except (KeyError, TypeError) as exc:
            raise ObservabilityError(f"bad trace context {data!r}") from exc


class Span:
    """One timed stage of a job, on two clocks.

    ``start``/``end`` are simulated seconds (deterministic, replayable);
    ``wall_start``/``wall_end`` are ``time.perf_counter()`` readings
    (real cost of the stage in this process).  A span with ``end is
    None`` is still open.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "wall_start",
        "wall_end",
        "status",
        "attributes",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        wall_start: float,
        attributes: dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.wall_start = wall_start
        self.wall_end: float | None = None
        self.status = "ok"
        self.attributes = attributes

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float | None:
        """Simulated duration, or None while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def wall_duration_s(self) -> float | None:
        if self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "wall_duration_s": self.wall_duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.duration:.3f}s"
        return f"Span({self.name!r}, {self.span_id}, {state})"


class Tracer:
    """Span registry + LifecycleBus adapter.

    The tracer is clock-agnostic: every mutation takes an explicit
    ``now`` (simulated seconds) and stamps the wall clock itself.  Ids
    are sequential (``trace-1``, ``span-17``) so two identical runs
    export identical traces — a property the bench harness relies on to
    diff trace exports across commits.
    """

    def __init__(self) -> None:
        self._trace_seq = 0
        self._span_seq = 0
        self._spans: dict[str, Span] = {}
        self._by_trace: dict[str, list[Span]] = {}
        #: spans in *close* order — simulated time is monotone across the
        #: run, so draining this into the TSDB never violates the
        #: per-series monotone-append invariant
        self._closed: list[Span] = []
        self._job_roots: dict[str, Span] = {}
        #: (site, task_id) -> what a dispatch's stage spans hang under:
        #: its placement span, or the root of a task that is its own job
        #: (kept, like the spans themselves, for the tracer's lifetime)
        self._dispatch_parents: dict[tuple[str, str], Span] = {}
        #: open stage record -> its span (a job record's span is the root)
        self._record_spans: dict[Any, Span] = {}
        self._attached_buses: list[Any] = []

    # -- span lifecycle ---------------------------------------------------

    def start_trace(self, name: str, now: float, **attributes: Any) -> Span:
        """Open a new root span (and with it a new trace)."""
        self._trace_seq += 1
        trace_id = f"trace-{self._trace_seq}"
        return self._new_span(trace_id, None, name, now, None, attributes)

    def start_span(
        self,
        name: str,
        parent: "Span | TraceContext",
        now: float,
        wall_start: float | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a child span under ``parent`` (a Span or a TraceContext)."""
        return self._new_span(
            parent.trace_id, parent.span_id, name, now, wall_start, attributes
        )

    def _new_span(
        self,
        trace_id: str,
        parent_id: str | None,
        name: str,
        now: float,
        wall_start: float | None,
        attributes: dict[str, Any],
    ) -> Span:
        self._span_seq += 1
        span = Span(
            trace_id=trace_id,
            span_id=f"span-{self._span_seq}",
            parent_id=parent_id,
            name=name,
            start=now,
            wall_start=wall_start if wall_start is not None else _time.perf_counter(),
            attributes=attributes,
        )
        self._spans[span.span_id] = span
        self._by_trace.setdefault(trace_id, []).append(span)
        return span

    def end_span(
        self, span: Span, now: float, status: str = "ok", **attributes: Any
    ) -> Span:
        if span.end is not None:
            raise ObservabilityError(f"span {span.span_id} already ended")
        span.end = now
        span.wall_end = _time.perf_counter()
        span.status = status
        if attributes:
            span.attributes.update(attributes)
        self._closed.append(span)
        return span

    @staticmethod
    def context(span: Span) -> TraceContext:
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id)

    # -- job / task binding ----------------------------------------------

    def bind_job(self, job_id: str, parent: "Span | TraceContext") -> Span:
        """Register the root span a job id resolves to.

        ``parent`` is either the root Span itself (broker-opened) or the
        TraceContext a spec carried in.  A context minted by a *different*
        tracer is adopted: a local root is opened that continues the
        foreign trace id.
        """
        if isinstance(parent, Span):
            root = parent
        else:
            found = self._spans.get(parent.span_id)
            if found is None:
                # foreign context (spec round-tripped through REST/dict):
                # continue the trace with a local root under it
                self._span_seq += 1
                root = Span(
                    trace_id=parent.trace_id,
                    span_id=f"span-{self._span_seq}",
                    parent_id=parent.span_id,
                    name="job",
                    start=0.0,
                    wall_start=_time.perf_counter(),
                    attributes={"adopted": True},
                )
                self._spans[root.span_id] = root
                self._by_trace.setdefault(root.trace_id, []).append(root)
            else:
                root = found
        self._job_roots[job_id] = root
        root.attributes.setdefault("job_id", job_id)
        return root

    def job_root(self, job_id: str) -> Span | None:
        return self._job_roots.get(job_id)

    def start_job_span(
        self,
        job_id: str,
        name: str,
        now: float,
        wall_start: float | None = None,
        **attributes: Any,
    ) -> Span | None:
        """Child span under a job's root; None when the job is unbound."""
        root = self._job_roots.get(job_id)
        if root is None:
            return None
        return self.start_span(name, root, now, wall_start=wall_start, **attributes)

    def bind_task(self, site: str, task_id: str, root: Span) -> None:
        """Trace a site task that is its own job (daemon backend) under
        ``root``: the task's stage spans hang under it and its job record
        closes it.  Called right after submit, while the task is still
        queued — its open queue-wait becomes a span at once."""
        self._dispatch_parents[(site, task_id)] = root
        for bus in self._attached_buses:
            for record in bus.stages.open_records(site, task_id):
                self._on_opened(record)

    def start_task_span(
        self, site: str, task_id: str, name: str, now: float, **attributes: Any
    ) -> Span | None:
        """Child span under a traced task (scheduler dispatch hook): under
        its open execute span, else under the task's placement or root.
        Returns None for a task outside any trace."""
        parent = self._dispatch_parents.get((site, task_id))
        if parent is None:
            return None
        for bus in self._attached_buses:
            for record in bus.stages.open_records(site, task_id):
                if record.stage == "execute" and record in self._record_spans:
                    parent = self._record_spans[record]
        return self.start_span(name, parent, now, site=site, task_id=task_id, **attributes)

    # -- LifecycleBus adapter --------------------------------------------

    def attach_sim(self, sim: Any) -> None:
        """Make this the tracer of ``sim``: every second-level scheduler
        on that clock opens its ``dispatch`` spans here.  One simulator
        has one tracer; idempotent for this one, and a different tracer
        already attached raises :class:`ObservabilityError`."""
        if sim.tracer is not None and sim.tracer is not self:
            raise ObservabilityError("the simulator already has a different tracer")
        sim.tracer = self

    def attach_bus(self, bus: Any) -> None:
        """Turn the stage records of a LifecycleBus into spans, and its
        resizes and reroutes into instant spans; idempotent per bus."""
        if any(existing is bus for existing in self._attached_buses):
            return
        self._attached_buses.append(bus)
        bus.stages.add_sink(self._on_closed, self._on_opened)
        bus.subscribe(self._on_event, kinds=("resize", "job_rerouted"))

    def _on_opened(self, record: Any) -> None:
        """Open the span of a stage record whose job is traced.  A
        dispatch's first record also records the placement as an
        instant span, which the dispatch's stage spans hang under."""
        stage, key = record.stage, (record.site, record.task)
        own_job = record.job == record.task
        if stage == "job":
            root = self._dispatch_parents.get(key) if own_job else self._job_roots.get(record.job)
            if root is not None:
                self._record_spans[record] = root
            return
        if stage == "classical-pre":
            parent = self._job_roots.get(record.job)
        elif key in self._dispatch_parents:
            if record in self._record_spans:
                return  # bind_task already opened it
            parent = self._dispatch_parents[key]
        else:
            root = None if own_job else self._job_roots.get(record.job)
            if root is None:
                return
            parent = self._dispatch_parents[key] = self.start_span(
                "placement", root, record.start, site=record.site, task_id=record.task, unit=record.unit
            )
            self.end_span(parent, record.start)
        if parent is not None:
            self._record_spans[record] = self.start_span(
                stage, parent, record.start, site=record.site, task_id=record.task, unit=record.unit
            )

    def _on_closed(self, record: Any) -> None:
        span = self._record_spans.pop(record, None)
        if span is not None and span.open:
            self.end_span(span, record.end, status=record.status)

    def _on_event(self, event: Any) -> None:
        payload = event.payload
        if event.kind == "resize":
            name, attrs = "resize", {"action": payload.get("action", ""), "reason": payload.get("reason", "")}
        else:
            name, attrs = "reroute", {"reason": payload.get("reason", "")}
        span = self.start_job_span(event.job_id, name, event.time, site=event.site, **attrs)
        if span is not None:
            self.end_span(span, event.time)

    # -- queries ----------------------------------------------------------

    def trace_ids(self) -> list[str]:
        return list(self._by_trace)

    def spans(self, trace_id: str) -> list[Span]:
        """All spans of a trace in creation order."""
        return list(self._by_trace.get(trace_id, ()))

    def job_spans(self, job_id: str) -> list[Span]:
        """The full span tree of a job, looked up by job id."""
        root = self._job_roots.get(job_id)
        if root is None:
            return []
        return self.spans(root.trace_id)

    def span_tree(self, trace_id: str) -> dict[str, Any]:
        """Nested view: ``{"span": Span, "children": [...]}`` from the root."""
        spans = self.spans(trace_id)
        if not spans:
            raise ObservabilityError(f"unknown trace {trace_id!r}")
        nodes = {s.span_id: {"span": s, "children": []} for s in spans}
        root_node = None
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is None:
                if root_node is None:
                    root_node = node
            else:
                parent["children"].append(node)
        if root_node is None:  # pragma: no cover - spans always include a root
            raise ObservabilityError(f"trace {trace_id!r} has no root span")
        return root_node

    def critical_path(self, trace_id: str) -> list[Span]:
        """Root-to-leaf chain through the latest-ending child at each
        level: the stages that bound the job's end-to-end latency."""
        node = self.span_tree(trace_id)
        path = [node["span"]]
        while node["children"]:
            node = max(
                node["children"],
                key=lambda child: (
                    child["span"].end
                    if child["span"].end is not None
                    else float("inf")
                ),
            )
            path.append(node["span"])
        return path

    def stage_durations(self, trace_id: str) -> dict[str, float]:
        """Total simulated seconds per stage name (closed spans only)."""
        totals: dict[str, float] = {}
        for span in self.spans(trace_id):
            if span.duration is not None:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    # -- export -----------------------------------------------------------

    def export_json(self, trace_id: str) -> dict[str, Any]:
        """JSON-able trace export; deterministic across identical runs."""
        spans = self.spans(trace_id)
        if not spans:
            raise ObservabilityError(f"unknown trace {trace_id!r}")
        return {"trace_id": trace_id, "spans": [s.to_dict() for s in spans]}

    def export_job_json(self, job_id: str) -> dict[str, Any]:
        root = self._job_roots.get(job_id)
        if root is None:
            raise ObservabilityError(f"no trace bound for job {job_id!r}")
        out = self.export_json(root.trace_id)
        out["job_id"] = job_id
        return out

    def flush_to_tsdb(self, tsdb: Any, measurement: str = "trace_span_seconds") -> int:
        """Persist closed spans into the chunked TSDB and drain the buffer.

        One point per span at its (simulated) end time, valued at its
        simulated duration, labeled by stage name and site.  Spans close
        in simulated-time order, so appends stay monotone per series.
        """
        flushed = 0
        for span in self._closed:
            tsdb.write(
                measurement,
                span.end,
                span.duration or 0.0,
                labels={
                    "name": span.name,
                    "site": str(span.attributes.get("site", "")),
                },
            )
            flushed += 1
        self._closed.clear()
        return flushed
