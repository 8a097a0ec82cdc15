"""Tests for latency SLOs and multi-window burn-rate alerting."""

import pytest

from repro.errors import ObservabilityError
from repro.federation.events import JobEvent, LifecycleBus
from repro.observability import (
    AlertManager,
    AlertState,
    LatencyObjective,
    MetricRegistry,
    SLOTracker,
    TimeSeriesDB,
    render_exposition,
)


def make_objective(**overrides):
    base = dict(
        name="fast-jobs",
        stage="job",
        threshold_s=10.0,
        objective=0.9,
        short_window_s=60.0,
        long_window_s=600.0,
        burn_threshold=1.0,
        for_seconds=120.0,
    )
    base.update(overrides)
    return LatencyObjective(**base)


class TestLatencyObjective:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ObservabilityError):
            make_objective(stage="warp-drive")

    def test_objective_bounds(self):
        with pytest.raises(ObservabilityError):
            make_objective(objective=1.0)
        with pytest.raises(ObservabilityError):
            make_objective(objective=0.0)

    def test_threshold_positive(self):
        with pytest.raises(ObservabilityError):
            make_objective(threshold_s=0.0)

    def test_window_ordering(self):
        with pytest.raises(ObservabilityError):
            make_objective(short_window_s=900.0, long_window_s=600.0)

    def test_tenant_matching(self):
        scoped = make_objective(tenant="acme")
        assert scoped.matches("job", "acme")
        assert not scoped.matches("job", "globex")
        assert make_objective().matches("job", "anyone")


class TestTrackerBasics:
    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ObservabilityError):
            SLOTracker([make_objective(), make_objective()])

    def test_unknown_stage_observation_rejected(self):
        with pytest.raises(ObservabilityError):
            SLOTracker([make_objective()]).observe("nope", 1.0, now=0.0)

    def test_tenant_scoped_objective_ignores_other_tenants(self):
        tracker = SLOTracker([make_objective(tenant="acme")])
        tracker.observe("job", 99.0, now=1.0, tenant="globex")
        tracker.observe("job", 99.0, now=2.0, tenant="acme")
        results = tracker.evaluate(now=3.0)
        assert results["fast-jobs"]["events"] == 1.0

    def test_events_prune_to_long_window(self):
        tracker = SLOTracker([make_objective(long_window_s=600.0)])
        tracker.observe("job", 1.0, now=0.0)
        tracker.observe("job", 1.0, now=500.0)
        results = tracker.evaluate(now=700.0)
        assert results["fast-jobs"]["events"] == 1.0

    def test_no_samples_means_zero_burn(self):
        tracker = SLOTracker([make_objective()])
        results = tracker.evaluate(now=100.0)
        assert results["fast-jobs"]["burn_rate"] == 0.0
        assert results["fast-jobs"]["error_budget_remaining"] == 1.0


class TestMultiWindow:
    def test_short_spike_alone_does_not_burn(self):
        """A burst of bad samples inside the short window must not push
        the published (min) burn rate over 1 while the long window is
        still healthy — that's the whole point of multi-window."""
        tracker = SLOTracker([make_objective(objective=0.5)])
        for i in range(100):
            tracker.observe("job", 1.0, now=float(i * 5))  # good, t in [0, 495]
        for i in range(5):
            tracker.observe("job", 99.0, now=560.0 + i)  # bad burst
        results = tracker.evaluate(now=600.0)["fast-jobs"]
        assert results["short_burn"] > 1.0
        assert results["long_burn"] < 1.0
        assert results["burn_rate"] == results["long_burn"]

    def test_overdrawn_budget_goes_negative(self):
        tracker = SLOTracker([make_objective(objective=0.5)])
        for i in range(10):
            tracker.observe("job", 99.0, now=float(i))
        results = tracker.evaluate(now=20.0)["fast-jobs"]
        assert results["error_budget_remaining"] == pytest.approx(-1.0)

    def test_evaluate_publishes_series(self):
        db = TimeSeriesDB()
        tracker = SLOTracker([make_objective()], tsdb=db)
        tracker.observe("job", 99.0, now=5.0)
        tracker.evaluate(now=10.0)
        _, burn = db.latest("slo_burn_rate", labels={"slo": "fast-jobs"})
        assert burn > 1.0
        _, remaining = db.latest(
            "slo_error_budget_remaining", labels={"slo": "fast-jobs"}
        )
        assert remaining < 0.0


class TestBurnRateAlerting:
    """The ISSUE acceptance: a synthetic SLO violation drives a compiled
    burn-rate rule INACTIVE -> PENDING -> FIRING on the existing
    AlertManager, then recovers."""

    def build(self):
        db = TimeSeriesDB()
        tracker = SLOTracker([make_objective()], tsdb=db)
        manager = AlertManager(db)
        (rule,) = tracker.compile_rules(manager)
        assert rule.name == "slo-burn:fast-jobs"
        return db, tracker, manager

    def tick(self, tracker, manager, now, latency):
        tracker.observe("job", latency, now=now)
        tracker.evaluate(now=now)
        manager.evaluate(now=now)

    def test_violation_walks_inactive_pending_firing(self):
        _, tracker, manager = self.build()
        alert = manager.get("slo-burn:fast-jobs")

        self.tick(tracker, manager, now=10.0, latency=1.0)  # healthy
        assert alert.state is AlertState.INACTIVE

        self.tick(tracker, manager, now=20.0, latency=99.0)  # violation onset
        assert alert.state is AlertState.PENDING

        self.tick(tracker, manager, now=80.0, latency=99.0)  # 60s in
        assert alert.state is AlertState.PENDING

        self.tick(tracker, manager, now=140.0, latency=99.0)  # >= for_seconds
        assert alert.state is AlertState.FIRING
        assert manager.firing() == [alert]
        # history records transitions only (initial INACTIVE is implicit)
        assert [state for _, state in alert.history] == ["pending", "firing"]

    def test_recovery_resolves_to_inactive(self):
        _, tracker, manager = self.build()
        alert = manager.get("slo-burn:fast-jobs")
        for now in (10.0, 140.0, 270.0):
            self.tick(tracker, manager, now=now, latency=99.0)
        assert alert.state is AlertState.FIRING
        # a run of good samples clears the short window; min-window burn
        # collapses even though the long window still remembers the bad
        for i in range(30):
            tracker.observe("job", 1.0, now=280.0 + i)
        tracker.evaluate(now=360.0)
        manager.evaluate(now=360.0)
        assert alert.state is AlertState.INACTIVE
        assert alert.resolved_at == 360.0


class TestBusDerivation:
    def test_stage_latencies_derive_from_lifecycle_events(self):
        objectives = [
            make_objective(name="q", stage="queue-wait", threshold_s=3.0),
            make_objective(name="x", stage="execute", threshold_s=30.0),
            make_objective(name="j", stage="job", threshold_s=20.0),
        ]
        tracker = SLOTracker(objectives)
        bus = LifecycleBus()
        tracker.attach_bus(bus)

        def ev(time, kind, job_id="", site="", task_id="", **payload):
            return JobEvent(time=time, kind=kind, job_id=job_id, site=site,
                            task_id=task_id, payload=payload)

        bus.publish(ev(0.0, "job_submitted", "j1", tenant="acme"))
        bus.publish(ev(1.0, "queued", "j1-t1", site="s0", task_id="j1-t1"))
        bus.publish(ev(1.0, "job_placed", "j1", site="s0", task_id="j1-t1"))
        bus.publish(ev(6.0, "running", "j1-t1", site="s0", task_id="j1-t1"))
        bus.publish(ev(26.0, "completed", "j1-t1", site="s0", task_id="j1-t1"))
        bus.publish(ev(26.0, "job_completed", "j1"))

        results = tracker.evaluate(now=30.0)
        # queue wait 5s > 3s threshold: bad; execute 20s and job 26s
        # exceed nothing... job 26s > 20s: bad; execute 20s <= 30s: good
        assert results["q"]["events"] == 1.0 and results["q"]["burn_rate"] > 0
        assert results["x"]["events"] == 1.0 and results["x"]["burn_rate"] == 0
        assert results["j"]["events"] == 1.0 and results["j"]["burn_rate"] > 0


class TestExposition:
    def test_alert_and_slo_gauges_render(self):
        db = TimeSeriesDB()
        tracker = SLOTracker([make_objective()], tsdb=db)
        manager = AlertManager(db)
        tracker.compile_rules(manager)
        tracker.observe("job", 99.0, now=5.0)
        tracker.evaluate(now=10.0)
        manager.evaluate(now=10.0)
        registry = MetricRegistry()
        manager.attach_registry(registry)
        tracker.attach_registry(registry)
        text = render_exposition(registry)
        assert 'alert_state{rule="slo-burn:fast-jobs",severity="page"} 1' in text
        assert 'slo_burn_rate{slo="fast-jobs"} 10' in text
        assert 'slo_error_budget_remaining{slo="fast-jobs"} -9' in text
        assert "# TYPE slo_burn_rate gauge" in text

    def test_exposition_without_evaluation_omits_slo_block(self):
        tracker = SLOTracker([make_objective()])
        registry = MetricRegistry()
        tracker.attach_registry(registry)
        text = render_exposition(registry)
        assert "slo_" not in text
        tracker.evaluate(now=10.0)
        assert 'slo_burn_rate{slo="fast-jobs"} 0\n' in render_exposition(registry)
