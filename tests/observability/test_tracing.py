"""Distributed tracing: job-scoped span trees from Session to shot.

The acceptance path of the tracing subsystem: a job submitted through
:class:`~repro.session.Session` must yield a complete span tree —
submit (root) -> admission -> placement -> queue-wait -> execute ->
result fetch -> complete — retrievable by job id, on both the
simulated and the wall clock, with the TSDB/export/timeline surfaces
hanging off it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "spec"))
from specutil import build_three_backends, make_program  # noqa: E402

from repro.errors import ObservabilityError
from repro.observability import TimeSeriesDB, render_trace_timeline
from repro.observability.tracing import Span, TraceContext, Tracer
from repro.session import Session
from repro.spec import JobSpec


def drive(sim, generator):
    return sim.run_until_process(sim.spawn(generator))


def traced_session(**kwargs):
    sim, daemon, broker, gateway, key = build_three_backends()
    session = Session(daemon=daemon, federation=broker, **kwargs)
    tracer = session.attach_tracer()
    return sim, session, tracer, broker


class TestTracerCore:
    def test_span_lifecycle_and_deterministic_ids(self):
        tracer = Tracer()
        root = tracer.start_trace("job", 0.0, tenant="alice")
        assert (root.trace_id, root.span_id) == ("trace-1", "span-1")
        child = tracer.start_span("admission", root, 1.0)
        assert child.parent_id == "span-1"
        assert child.open
        tracer.end_span(child, 3.0)
        assert child.duration == 2.0
        assert child.wall_duration_s >= 0.0
        with pytest.raises(ObservabilityError, match="already ended"):
            tracer.end_span(child, 4.0)

    def test_context_round_trip_and_validation(self):
        tracer = Tracer()
        root = tracer.start_trace("job", 0.0)
        ctx = tracer.context(root)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        with pytest.raises(ObservabilityError):
            TraceContext.from_dict({"trace_id": "t"})  # span_id missing

    def test_foreign_context_is_adopted(self):
        upstream, local = Tracer(), Tracer()
        ctx = upstream.context(upstream.start_trace("job", 0.0))
        root = local.bind_job("job-1", ctx)
        assert root.trace_id == ctx.trace_id  # continues the trace
        assert root.parent_id == ctx.span_id
        assert root.attributes.get("adopted") is True

    def test_unbound_lookups_are_cheap_nones(self):
        tracer = Tracer()
        assert tracer.job_root("ghost") is None
        assert tracer.start_job_span("ghost", "admission", 0.0) is None
        assert tracer.start_task_span("site", "mw-task-9", "dispatch", 0.0) is None
        assert tracer.job_spans("ghost") == []


class TestSessionAcceptance:
    def test_federation_job_yields_complete_span_tree(self):
        """A Session-submitted job produces every stage as a span,
        retrievable by job id."""
        sim, session, tracer, broker = traced_session()
        handle = session.submit(
            JobSpec(program=make_program(shots=30)), backend="federation"
        )
        result = drive(sim, handle.wait())
        assert result.shots == 30

        root = tracer.job_root(handle.job_id)
        assert root is not None and not root.open and root.status == "ok"
        spans = tracer.job_spans(handle.job_id)
        names = [s.name for s in spans]
        for stage in (
            "job", "admission", "placement", "queue-wait",
            "execute", "dispatch", "result-fetch",
        ):
            assert stage in names
        # every span closed, on both clocks, inside the root's bounds
        for span in spans:
            assert not span.open
            assert span.duration is not None and span.duration >= 0.0
            assert span.wall_duration_s >= 0.0
            assert root.start <= span.start and span.end <= root.end
        # nesting: queue-wait and execute hang off the placement span
        by_name = {s.name: s for s in spans}
        assert by_name["queue-wait"].parent_id == by_name["placement"].span_id
        assert by_name["execute"].parent_id == by_name["placement"].span_id
        assert by_name["dispatch"].parent_id == by_name["execute"].span_id

    def test_trace_context_propagates_from_session_root(self):
        """The broker's spans join the trace the Session opened, not a
        fresh one: explicit context propagation via the spec."""
        sim, session, tracer, broker = traced_session()
        handle = session.submit(
            JobSpec(program=make_program(shots=10)), backend="federation"
        )
        root = tracer.job_root(handle.job_id)
        assert root.attributes["backend"] == "federation"
        assert "trace_context" in handle.spec.metadata
        assert handle.spec.metadata["trace_context"]["trace_id"] == root.trace_id

    def test_daemon_backend_task_closes_the_root(self):
        sim, session, tracer, broker = traced_session()
        handle = session.submit(JobSpec(program=make_program(shots=20)))
        assert handle.backend == "daemon"
        drive(sim, handle.wait())
        root = tracer.job_root(handle.job_id)
        assert not root.open and root.status == "ok"
        names = {s.name for s in tracer.job_spans(handle.job_id)}
        assert {"job", "queue-wait", "execute", "dispatch"} <= names

    def test_malleable_job_traces_every_unit(self):
        sim, session, tracer, broker = traced_session()
        handle = session.submit(
            JobSpec(
                program=make_program(shots=10),
                sites=("site-0", "site-1"),
                iterations=4,
            )
        )
        drive(sim, handle.wait())
        root = tracer.job_root(handle.job_id)
        assert not root.open and root.status == "ok"
        spans = tracer.job_spans(handle.job_id)
        per_stage = {}
        for span in spans:
            per_stage[span.name] = per_stage.get(span.name, 0) + 1
        for stage in ("placement", "queue-wait", "execute", "result-fetch"):
            assert per_stage[stage] == 4, stage

    def test_failover_shows_up_as_reroute_span(self):
        sim, session, tracer, broker = traced_session()
        sites = {n: broker.registry.site(n) for n in broker.registry.names()}
        handle = session.submit(
            JobSpec(program=make_program(shots=400)), backend="federation"
        )
        sim.run(until=2.0)
        placed_on = broker.job(handle.job_id).placements[-1].site
        sites[placed_on].kill()
        drive(sim, handle.wait())
        spans = tracer.job_spans(handle.job_id)
        names = [s.name for s in spans]
        assert "reroute" in names
        assert names.count("placement") == 2  # original + failover
        assert tracer.job_root(handle.job_id).status == "ok"

    def test_untraced_sessions_stay_silent(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon, federation=broker)
        handle = session.submit(JobSpec(program=make_program(shots=10)))
        drive(sim, handle.wait())
        assert session.tracer is None
        assert broker.tracer is None


class TestQueriesAndExport:
    def _finished_trace(self):
        sim, session, tracer, broker = traced_session()
        handle = session.submit(
            JobSpec(program=make_program(shots=30)), backend="federation"
        )
        drive(sim, handle.wait())
        return sim, tracer, handle

    def test_stage_durations_and_critical_path(self):
        sim, tracer, handle = self._finished_trace()
        trace_id = tracer.job_root(handle.job_id).trace_id
        stages = tracer.stage_durations(trace_id)
        assert stages["execute"] > 0.0
        assert stages["job"] >= stages["execute"]
        path = tracer.critical_path(trace_id)
        assert path[0].name == "job"
        assert len(path) >= 2

    def test_span_tree_nests_from_the_root(self):
        sim, tracer, handle = self._finished_trace()
        tree = tracer.span_tree(tracer.job_root(handle.job_id).trace_id)
        assert tree["span"].name == "job"
        child_names = {c["span"].name for c in tree["children"]}
        assert {"admission", "placement", "result-fetch"} <= child_names
        with pytest.raises(ObservabilityError, match="unknown trace"):
            tracer.span_tree("trace-999")

    def test_export_json_is_deterministic(self):
        exports = []
        for _ in range(2):
            sim, tracer, handle = self._finished_trace()
            exports.append(tracer.export_job_json(handle.job_id))
        # wall-clock fields necessarily differ between runs; everything
        # else — ids, names, sim times, attributes — must be identical
        for export in exports:
            for span in export["spans"]:
                span.pop("wall_duration_s")
        assert exports[0] == exports[1]
        with pytest.raises(ObservabilityError, match="no trace bound"):
            Tracer().export_job_json("ghost")

    def test_flush_to_tsdb_drains_closed_spans(self):
        sim, tracer, handle = self._finished_trace()
        tsdb = TimeSeriesDB()
        flushed = tracer.flush_to_tsdb(tsdb)
        assert flushed >= 6
        times, values = tsdb.query(
            "trace_span_seconds", labels={"name": "execute", "site": "site-0"}
        )
        assert len(times) == 1 and values[0] > 0.0
        # the buffer drained: a second flush writes nothing
        assert tracer.flush_to_tsdb(tsdb) == 0

    def test_timeline_renders_every_stage(self):
        sim, tracer, handle = self._finished_trace()
        trace_id = tracer.job_root(handle.job_id).trace_id
        text = render_trace_timeline(tracer, trace_id)
        for stage in ("job", "admission", "placement", "execute"):
            assert stage in text
        assert "*" in text  # the critical path is marked
        assert trace_id in text
