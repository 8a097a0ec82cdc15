"""Tests for the continuous hot-path scope profiler."""

import pytest

from repro.observability import Profiler, TimeSeriesDB, scoped
from repro.simkernel import Simulator


class TestScopeAccounting:
    def test_nested_scopes_key_by_call_path(self):
        p = Profiler()
        with p.scope("outer"):
            with p.scope("inner"):
                pass
            with p.scope("inner"):
                pass
        snap = p.snapshot()
        assert set(snap) == {("outer",), ("outer", "inner")}
        assert snap[("outer",)]["count"] == 1
        assert snap[("outer", "inner")]["count"] == 2

    def test_self_time_excludes_children(self):
        p = Profiler()
        with p.scope("outer"):
            with p.scope("inner"):
                sum(range(20_000))
        snap = p.snapshot()
        outer, inner = snap[("outer",)], snap[("outer", "inner")]
        assert outer["total_s"] >= inner["total_s"]
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"], abs=1e-9
        )
        # totals at the root already include child time exactly once
        assert p.total_seconds() == pytest.approx(outer["total_s"])

    def test_max_tracks_the_worst_call(self):
        p = Profiler()
        with p.scope("work"):
            pass
        with p.scope("work"):
            sum(range(50_000))
        snap = p.snapshot()[("work",)]
        assert snap["max_s"] <= snap["total_s"]
        assert snap["max_s"] > snap["total_s"] / 2

    def test_same_name_at_different_depths_is_distinct(self):
        p = Profiler()
        with p.scope("tick"):
            with p.scope("tick"):
                pass
        assert set(p.snapshot()) == {("tick",), ("tick", "tick")}

    def test_decorator_form(self):
        class Worker:
            def __init__(self, sim):
                self.sim = sim

            @scoped("fn")
            def work(self, x):
                """Double x."""
                return x * 2

        sim = Simulator()
        worker = Worker(sim)
        assert worker.work(21) == 42  # no profiler on the simulator
        sim.profiler = p = Profiler()
        assert worker.work(21) == 42
        assert p.snapshot()[("fn",)]["count"] == 1
        # named like the method it wraps, with no __wrapped__ left behind
        assert Worker.work.__qualname__.endswith("Worker.work")
        assert Worker.work.__doc__ == "Double x."
        assert not hasattr(Worker.work, "__wrapped__")

    def test_exception_inside_scope_still_accounts(self):
        p = Profiler()
        with pytest.raises(ValueError):
            with p.scope("boom"):
                raise ValueError("x")
        assert p.snapshot()[("boom",)]["count"] == 1

    def test_unbalanced_pop_never_raises(self):
        p = Profiler()
        p.pop()  # empty stack: hot paths must never explode
        assert p.snapshot() == {}


class TestDisabled:
    def test_reset_clears_stats(self):
        p = Profiler()
        with p.scope("a"):
            pass
        p.reset()
        assert p.snapshot() == {}
        assert p.total_seconds() == 0.0


class TestRendering:
    def build(self):
        p = Profiler()
        with p.scope("reconcile"):
            with p.scope("malleable"):
                pass
        with p.scope("select"):
            pass
        return p

    def test_report_top_lists_paths_by_self_time(self):
        report = self.build().report_top(5)
        assert "reconcile/malleable" in report
        assert "select" in report
        assert "self ms" in report

    def test_report_top_empty(self):
        assert "(no scopes recorded)" in Profiler().report_top()

    def test_flame_indents_by_depth(self):
        flame = self.build().render_flame(width=20)
        lines = flame.splitlines()
        child = next(line for line in lines if "malleable" in line)
        parent = next(line for line in lines if "reconcile" in line)
        assert child.index("malleable") > parent.index("reconcile")
        assert "█" in child


class TestTsdbFlush:
    def test_flush_writes_all_four_measurements(self):
        p = Profiler()
        with p.scope("a"):
            with p.scope("b"):
                pass
        db = TimeSeriesDB()
        flushed = p.flush_to_tsdb(db, now=10.0)
        assert flushed == 2
        for measurement in (
            "profile_scope_calls",
            "profile_scope_seconds",
            "profile_scope_self_seconds",
            "profile_scope_max_seconds",
        ):
            _, value = db.latest(measurement, labels={"path": "a/b"})
            assert value >= 0.0
        assert db.latest("profile_scope_calls", labels={"path": "a"})[1] == 1.0

    def test_flush_resets_by_default_for_interval_series(self):
        p = Profiler()
        db = TimeSeriesDB()
        with p.scope("a"):
            pass
        p.flush_to_tsdb(db, now=10.0)
        assert p.snapshot() == {}
        with p.scope("a"):
            pass
        p.flush_to_tsdb(db, now=20.0)
        times, values = db.query("profile_scope_calls", labels={"path": "a"})
        assert list(times) == [10.0, 20.0]
        assert list(values) == [1.0, 1.0]

    def test_flush_without_reset_accumulates(self):
        p = Profiler()
        db = TimeSeriesDB()
        with p.scope("a"):
            pass
        p.flush_to_tsdb(db, now=10.0, reset=False)
        assert p.snapshot()[("a",)]["count"] == 1


class TestSimulatorHook:
    def test_sim_step_scopes_wrap_event_dispatch(self):
        sim = Simulator()
        sim.profiler = p = Profiler()
        ran = []
        sim.call_in(1.0, lambda: ran.append(1))
        sim.call_in(2.0, lambda: ran.append(2))
        sim.run(until=5.0)
        assert ran == [1, 2]
        assert p.snapshot()[("sim.step",)]["count"] == 2

    def test_callback_scopes_nest_under_sim_step(self):
        sim = Simulator()
        sim.profiler = p = Profiler()

        def work():
            with p.scope("callback"):
                pass

        sim.call_in(1.0, work)
        sim.run(until=2.0)
        assert ("sim.step", "callback") in p.snapshot()
