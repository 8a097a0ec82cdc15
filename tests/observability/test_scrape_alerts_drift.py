"""Tests for the scraper, dashboards, alert manager, drift detectors,
and per-job metadata."""

import numpy as np
import pytest

from repro.errors import AlertError, ObservabilityError
from repro.observability import (
    AlertManager,
    AlertRule,
    AlertState,
    CusumDetector,
    Dashboard,
    EwmaDetector,
    JobMetadataView,
    MetricRegistry,
    Panel,
    Scraper,
    TimeSeriesDB,
)
from repro.qpu import QPUDevice
from repro.simkernel import Simulator, Timeout


class TestScraper:
    def test_periodic_scraping(self):
        sim = Simulator()
        db = TimeSeriesDB()
        scraper = Scraper(sim, db, interval=10.0)
        scraper.add_target("const", lambda now: {"metric_a": 42.0})
        scraper.start()
        sim.run(until=35.0)
        times, values = db.query("metric_a")
        assert len(times) == 3
        assert all(v == 42.0 for v in values)

    def test_qpu_collector(self):
        sim = Simulator()
        db = TimeSeriesDB()
        scraper = Scraper(sim, db, interval=5.0)
        scraper.add_qpu(QPUDevice())
        scraper.start()
        sim.run(until=12.0)
        _, fid = db.query("qpu_fidelity_proxy", labels={"device": "fresnel-sim"})
        assert len(fid) == 2
        assert fid[0] > 0.9

    def test_collector_error_recorded_not_fatal(self):
        sim = Simulator()
        db = TimeSeriesDB()
        scraper = Scraper(sim, db, interval=5.0)

        def bad(now):
            raise RuntimeError("collector broke")

        scraper.add_target("bad", bad)
        scraper.add_target("good", lambda now: {"ok": 1.0})
        scraper.start()
        sim.run(until=6.0)
        assert db.latest("ok")[1] == 1.0
        assert db.latest("scrape_error", labels={"target": "bad"})[1] == 1.0

    def test_duplicate_target_rejected(self):
        scraper = Scraper(Simulator(), TimeSeriesDB())
        scraper.add_target("x", lambda now: {})
        with pytest.raises(ObservabilityError):
            scraper.add_target("x", lambda now: {})

    def test_labeled_histogram_round_trips_into_the_tsdb(self):
        """A registry snapshot (labels folded into names) scraped under
        target labels comes back out of the TSDB intact: cumulative
        bucket counts, sums, and per-scrape monotonicity."""
        sim = Simulator()
        db = TimeSeriesDB()
        registry = MetricRegistry()
        latency = registry.histogram(
            "stage_latency_seconds",
            buckets=(0.1, 1.0, 10.0),
            label_names=("stage",),
        )
        scraper = Scraper(sim, db, interval=10.0)
        scraper.add_target(
            "broker",
            lambda now: registry.snapshot(),
            labels={"federation": "west"},
        )
        scraper.start()

        def workload():
            latency.observe(0.05, labels={"stage": "execute"})
            latency.observe(0.5, labels={"stage": "execute"})
            latency.observe(0.5, labels={"stage": "queue-wait"})
            yield Timeout(15.0)  # one scrape in between
            latency.observe(5.0, labels={"stage": "execute"})

        sim.spawn(workload())
        sim.run(until=25.0)

        target_labels = {"federation": "west"}
        times, counts = db.query(
            "stage_latency_seconds_count{stage=execute}", labels=target_labels
        )
        assert list(times) == [10.0, 20.0]
        assert list(counts) == [2.0, 3.0]  # monotone across scrapes
        # cumulative bucket counts at the final scrape
        for le, expected in (("0.1", 1.0), ("1.0", 2.0), ("10.0", 3.0)):
            _, values = db.query(
                f"stage_latency_seconds_bucket{{le={le},stage=execute}}",
                labels=target_labels,
            )
            assert values[-1] == expected
        _, sums = db.query(
            "stage_latency_seconds_sum{stage=execute}", labels=target_labels
        )
        assert sums[-1] == pytest.approx(5.55)
        # the other label series scraped independently
        _, queue_counts = db.query(
            "stage_latency_seconds_count{stage=queue-wait}", labels=target_labels
        )
        assert list(queue_counts) == [1.0, 1.0]


class TestDashboard:
    def test_panels_evaluate(self):
        db = TimeSeriesDB()
        for t in range(5):
            db.write("m", float(t), float(t))
        dash = Dashboard("test")
        dash.add_panel(Panel("last", "m", "last", None))
        dash.add_panel(Panel("mean", "m", "mean", None))
        values = dash.evaluate(db, now=10.0)
        assert values["last"] == 4.0
        assert values["mean"] == 2.0

    def test_missing_series_is_nan(self):
        dash = Dashboard("t")
        dash.add_panel(Panel("ghost", "nothing"))
        value = dash.evaluate(TimeSeriesDB(), now=0.0)["ghost"]
        assert value != value  # NaN

    def test_render_text(self):
        db = TimeSeriesDB()
        db.write("m", 0.0, 3.5)
        dash = Dashboard("demo")
        dash.add_panel(Panel("metric", "m", "last", None, unit="s"))
        text = dash.render_text(db, now=1.0)
        assert "demo" in text and "3.5s" in text

    def test_qpu_overview_factory(self):
        dash = Dashboard.qpu_overview("fresnel")
        assert len(dash.panels) >= 6

    def test_duplicate_panel_rejected(self):
        dash = Dashboard("d")
        dash.add_panel(Panel("a", "m"))
        with pytest.raises(ObservabilityError):
            dash.add_panel(Panel("a", "m"))


class TestAlerts:
    def test_threshold_fires_after_for_duration(self):
        db = TimeSeriesDB()
        mgr = AlertManager(db)
        mgr.add_rule(AlertRule("low-fid", "fid", "<", 0.85, for_seconds=30.0))
        db.write("fid", 0.0, 0.7)
        mgr.evaluate(now=0.0)
        assert mgr.get("low-fid").state is AlertState.PENDING
        db.write("fid", 31.0, 0.7)
        firing = mgr.evaluate(now=31.0)
        assert [a.rule.name for a in firing] == ["low-fid"]

    def test_resolves_when_healthy(self):
        db = TimeSeriesDB()
        mgr = AlertManager(db)
        mgr.add_rule(AlertRule("low", "fid", "<", 0.85, for_seconds=0.0))
        db.write("fid", 0.0, 0.5)
        mgr.evaluate(now=0.0)
        assert mgr.get("low").state is AlertState.FIRING
        db.write("fid", 10.0, 0.95)
        mgr.evaluate(now=10.0)
        assert mgr.get("low").state is AlertState.INACTIVE
        assert mgr.get("low").resolved_at == 10.0

    def test_absence_rule(self):
        db = TimeSeriesDB()
        mgr = AlertManager(db)
        mgr.add_rule(AlertRule("dead", "fid", absent_seconds=60.0))
        db.write("fid", 0.0, 0.9)
        mgr.evaluate(now=30.0)
        assert mgr.get("dead").state is AlertState.INACTIVE
        mgr.evaluate(now=100.0)
        assert mgr.get("dead").state is AlertState.FIRING

    def test_continuous_violation_does_not_duplicate_history(self):
        """A rule that keeps violating is one FIRING transition, not one
        per evaluation: the history dedups on state change."""
        db = TimeSeriesDB()
        mgr = AlertManager(db)
        mgr.add_rule(AlertRule("low", "fid", "<", 0.85, for_seconds=0.0))
        for t in range(6):
            db.write("fid", float(t), 0.5)
            mgr.evaluate(now=float(t))
        alert = mgr.get("low")
        assert alert.state is AlertState.FIRING
        assert alert.history == [(0.0, "firing")]
        assert alert.fired_at == 0.0

    def test_refires_after_resolution(self):
        """violate -> resolve -> violate again must FIRE twice, with the
        full transition sequence (and fresh ``for_seconds`` debouncing)
        in the history."""
        db = TimeSeriesDB()
        mgr = AlertManager(db)
        mgr.add_rule(AlertRule("low", "fid", "<", 0.85, for_seconds=10.0))
        trace = [
            (0.0, 0.5),   # violating -> PENDING
            (10.0, 0.5),  # 10 s of violation -> FIRING
            (20.0, 0.95), # healthy -> INACTIVE
            (30.0, 0.5),  # violating again -> PENDING (debounce restarts)
            (41.0, 0.5),  # -> FIRING again
        ]
        for now, value in trace:
            db.write("fid", now, value)
            mgr.evaluate(now=now)
        alert = mgr.get("low")
        assert alert.history == [
            (0.0, "pending"),
            (10.0, "firing"),
            (20.0, "inactive"),
            (30.0, "pending"),
            (41.0, "firing"),
        ]
        assert alert.fired_at == 41.0
        assert alert.resolved_at == 20.0

    def test_default_qpu_rules(self):
        db = TimeSeriesDB()
        mgr = AlertManager.with_default_qpu_rules(db, "fresnel")
        assert len(mgr.names()) == 3

    def test_invalid_operator(self):
        with pytest.raises(AlertError):
            AlertRule("x", "m", op="!=")


class TestDriftDetectors:
    def make_series(self, drift_at=100, n=200, rng_seed=0):
        """Fidelity-like series: stable ~0.95, dropping after drift_at."""
        rng = np.random.default_rng(rng_seed)
        values = 0.95 + 0.005 * rng.standard_normal(n)
        values[drift_at:] -= np.linspace(0.0, 0.15, n - drift_at)
        return values

    def test_ewma_detects_drift(self):
        detector = EwmaDetector(alpha=0.3, k=4.0, warmup=20)
        values = self.make_series()
        for t, v in enumerate(values):
            detector.update(float(t), float(v))
        first = detector.first_detection_after(100.0)
        assert first is not None
        assert 100.0 <= first <= 160.0

    def test_cusum_detects_drift_faster_on_jump(self):
        rng = np.random.default_rng(1)
        values = 0.95 + 0.005 * rng.standard_normal(200)
        values[100:] -= 0.08  # abrupt jump
        cusum = CusumDetector(warmup=20)
        for t, v in enumerate(values):
            cusum.update(float(t), float(v))
        first = cusum.first_detection_after(100.0)
        assert first is not None
        assert first <= 115.0

    def test_no_false_positive_on_stable_series(self):
        rng = np.random.default_rng(2)
        values = 0.95 + 0.005 * rng.standard_normal(300)
        ewma = EwmaDetector(warmup=20)
        cusum = CusumDetector(warmup=20)
        for t, v in enumerate(values):
            ewma.update(float(t), float(v))
            cusum.update(float(t), float(v))
        assert not ewma.detections
        assert not cusum.detections

    def test_warmup_validation(self):
        with pytest.raises(ObservabilityError):
            EwmaDetector(warmup=1)
        with pytest.raises(ObservabilityError):
            EwmaDetector(alpha=0.0)


def _complete(queue, user, now, result, priority=None):
    """Submit a task of ``user`` to ``queue`` at t=0, run it from t=0
    and complete it with ``result`` at ``now``."""
    from repro.daemon.queue import PriorityClass, TaskState
    from repro.qpu import ConstantWaveform, DriveSegment, Register
    from repro.sdk.ir import AnalogProgram

    program = AnalogProgram(
        Register.chain(2, spacing=6.0),
        (DriveSegment(ConstantWaveform(1.0, np.pi), ConstantWaveform(1.0, 0.0)),),
    )
    task = queue.submit("s", user, program, priority or PriorityClass.PRODUCTION, "qpu", now=0.0)
    queue.set_state(task, TaskState.RUNNING, 0.0)
    task.result = result
    queue.set_state(task, TaskState.COMPLETED, now)
    return task


def _result(**metadata):
    from repro.emulators.base import EmulationResult

    return EmulationResult(counts={"00": 10}, shots=10, backend="emu-sv", duration_us=1.0, metadata=metadata)


class TestJobMetadata:
    """The metadata view reads each record from the completed task."""

    def test_record_and_get(self):
        from repro.daemon.queue import MiddlewareQueue

        queue = MiddlewareQueue()
        view = JobMetadataView(queue)
        result = _result(calibration={"t2_us": 50.0}, resource="qpu", execution_seconds=12.0, engine="emu-sv")
        task = _complete(queue, "alice", 5.0, result)
        record = view.get(task.task_id)
        assert record.calibration["t2_us"] == 50.0
        assert record.execution_s == 12.0
        assert (record.user, record.time, record.resource) == ("alice", 5.0, "qpu")
        assert (record.priority_class, record.queue_wait_s) == ("production", 0.0)
        assert record.diagnostics == {"engine": "emu-sv"}

    def test_unfinished_and_unknown_tasks_have_no_record(self):
        from repro.daemon.queue import MiddlewareQueue, PriorityClass

        queue = MiddlewareQueue()
        view = JobMetadataView(queue)
        done = _complete(queue, "u", 1.0, _result())
        pending = queue.submit("s", "u", done.program, PriorityClass.TEST, "qpu", now=2.0)
        for task_id in (pending.task_id, "mw-task-99"):
            with pytest.raises(ObservabilityError):
                view.get(task_id)
        assert len(view) == 1

    def test_queries(self):
        from repro.daemon.queue import MiddlewareQueue

        queue = MiddlewareQueue()
        view = JobMetadataView(queue)
        # completion order differs from submission order
        for i in (4, 0, 3, 1, 2):
            _complete(queue, "u" if i < 3 else "v", float(i), _result())
        assert len(view.for_user("u")) == 3
        assert [r.time for r in view.in_window(1.0, 3.0)] == [3.0, 1.0, 2.0]
        assert len(view) == 5
