"""Tests for patterns, interleaving, malleability, timeshares, metrics."""

import pytest

from repro.errors import SchedulerError
from repro.scheduling import (
    MalleablePool,
    MalleableTask,
    PatternAwarePlanner,
    SchedulerHint,
    SequentialPlanner,
    TimeshareAllocator,
    WeightedFairPolicy,
    WorkloadPattern,
    classify_pattern,
    hint_for_pattern,
)
from repro.scheduling.interleave import HybridJobEstimate
from repro.scheduling.patterns import PATTERN_TABLE


class TestPatterns:
    def test_classification_thresholds(self):
        assert classify_pattern(90, 10) is WorkloadPattern.HIGH_QC_LOW_CC
        assert classify_pattern(10, 90) is WorkloadPattern.LOW_QC_HIGH_CC
        assert classify_pattern(50, 50) is WorkloadPattern.BALANCED

    def test_edge_cases(self):
        assert classify_pattern(100, 0) is WorkloadPattern.HIGH_QC_LOW_CC
        assert classify_pattern(0, 100) is WorkloadPattern.LOW_QC_HIGH_CC
        with pytest.raises(SchedulerError):
            classify_pattern(0, 0)
        with pytest.raises(SchedulerError):
            classify_pattern(-1, 5)

    def test_hint_round_trip(self):
        for pattern in WorkloadPattern:
            assert hint_for_pattern(pattern).pattern is pattern

    def test_hint_parse(self):
        assert SchedulerHint.parse("qc-balanced") is SchedulerHint.QC_BALANCED
        with pytest.raises(SchedulerError):
            SchedulerHint.parse("qc-mega")

    def test_pattern_table_matches_paper(self):
        """Table 1 has exactly three rows with the paper's hints."""
        assert len(PATTERN_TABLE) == 3
        hints = [row.scheduler_hint for row in PATTERN_TABLE]
        assert hints == [
            "Sequential QPU queue",
            "Interleave jobs to kill QPU idle time",
            "Fine-grained orchestration",
        ]


class TestInterleavePlanner:
    def jobs(self):
        return [
            HybridJobEstimate("qc1", qpu_seconds=300, classical_seconds=30),
            HybridJobEstimate("qc2", qpu_seconds=300, classical_seconds=30),
            HybridJobEstimate("cc1", qpu_seconds=30, classical_seconds=600),
            HybridJobEstimate("cc2", qpu_seconds=30, classical_seconds=600),
            HybridJobEstimate("bal", qpu_seconds=120, classical_seconds=120),
        ]

    def test_sequential_one_per_wave(self):
        plan = SequentialPlanner().plan(self.jobs())
        assert plan.num_waves == 5
        assert all(len(w) == 1 for w in plan.waves)

    def test_pattern_aware_packs_complementary_jobs(self):
        plan = PatternAwarePlanner(target_load=1.0).plan(self.jobs())
        assert plan.num_waves < 5
        # some wave must mix a QC-heavy with CC-heavy job
        mixed = any(
            {j.pattern for j in wave}
            >= {WorkloadPattern.HIGH_QC_LOW_CC, WorkloadPattern.LOW_QC_HIGH_CC}
            for wave in plan.waves
        )
        assert mixed

    def test_pattern_aware_beats_sequential_makespan(self):
        jobs = self.jobs()
        seq = SequentialPlanner().plan(jobs).predicted_makespan()
        inter = PatternAwarePlanner().plan(jobs).predicted_makespan()
        assert inter < seq

    def test_all_jobs_planned_once(self):
        jobs = self.jobs()
        plan = PatternAwarePlanner().plan(jobs)
        assert sorted(j.job_name for j in plan.jobs()) == sorted(j.job_name for j in jobs)

    def test_pure_qc_stream_degenerates_to_sequential(self):
        jobs = [
            HybridJobEstimate(f"qc{i}", qpu_seconds=100, classical_seconds=5)
            for i in range(4)
        ]
        plan = PatternAwarePlanner(target_load=1.0).plan(jobs)
        # fractions ~0.95 each: no two fit a wave
        assert plan.num_waves == 4

    def test_utilization_prediction(self):
        jobs = self.jobs()
        seq_util = SequentialPlanner().plan(jobs).predicted_qpu_utilization()
        inter_util = PatternAwarePlanner().plan(jobs).predicted_qpu_utilization()
        assert inter_util > seq_util

    def test_planner_validation(self):
        with pytest.raises(SchedulerError):
            PatternAwarePlanner(target_load=0.0)
        with pytest.raises(SchedulerError):
            PatternAwarePlanner(max_concurrency=0)


class TestMalleable:
    def test_amdahl_speedup(self):
        task = MalleableTask("t", work_cpu_seconds=100.0, serial_fraction=0.1)
        assert task.speedup(1) == pytest.approx(1.0)
        assert task.speedup(10) == pytest.approx(1.0 / (0.1 + 0.09))
        # diminishing returns
        assert task.speedup(1000) < 10.0

    def test_single_task_gets_whole_pool(self):
        pool = MalleablePool(total_cpus=16)
        task = MalleableTask("t", work_cpu_seconds=100.0, serial_fraction=0.0, max_cpus=16)
        finish = pool.run([task])
        assert finish["t"] == pytest.approx(100.0 / 16.0)

    def test_malleable_grows_after_departure(self):
        """Second task should speed up once the first finishes."""
        pool = MalleablePool(total_cpus=8)
        short = MalleableTask("short", work_cpu_seconds=8.0, serial_fraction=0.0, max_cpus=8)
        long = MalleableTask("long", work_cpu_seconds=80.0, serial_fraction=0.0, max_cpus=8)
        finish = pool.run([short, long])
        # static halves: long would take 80/4 = 20s. malleable: 4 cpus until
        # short done (t=2), then 8 cpus: 2 + (80-8)/8 = 11
        assert finish["long"] == pytest.approx(11.0)

    def test_static_baseline_slower(self):
        def tasks():
            return [
                MalleableTask("a", work_cpu_seconds=8.0, serial_fraction=0.0, max_cpus=8),
                MalleableTask("b", work_cpu_seconds=80.0, serial_fraction=0.0, max_cpus=8),
            ]

        rigid = MalleablePool(total_cpus=8, malleable=False).makespan(tasks())
        flexible = MalleablePool(total_cpus=8, malleable=True).makespan(tasks())
        assert flexible < rigid

    def test_validation(self):
        with pytest.raises(SchedulerError):
            MalleableTask("t", work_cpu_seconds=0.0)
        with pytest.raises(SchedulerError):
            MalleablePool(total_cpus=0)


class TestTimeshare:
    def test_grant_revoke_accounting(self):
        alloc = TimeshareAllocator(total_units=10)
        alloc.grant("alice", 6)
        alloc.grant("bob", 4)
        assert alloc.available == 0
        assert alloc.share("alice") == pytest.approx(0.6)
        with pytest.raises(SchedulerError):
            alloc.grant("carol", 1)
        assert alloc.revoke("bob") == 4
        assert alloc.available == 4

    def test_slurm_license_mapping(self):
        alloc = TimeshareAllocator(total_units=10)
        assert alloc.as_slurm_licenses() == {"qpu_share": 10}

    def test_weighted_fair_converges_to_shares(self):
        """70/30 grant -> long-run served time ~70/30."""
        from repro.daemon.queue import MiddlewareQueue, PriorityClass, TaskState
        from repro.scheduling.algorithms import daemon_views

        alloc = TimeshareAllocator(total_units=10)
        alloc.grant("alice", 7)
        alloc.grant("bob", 3)
        policy = WeightedFairPolicy(alloc, estimate_seconds=lambda t: 10.0)
        queue = MiddlewareQueue(shot_cap=None)

        # a steady backlog from both tenants
        from tests.daemon.test_http_auth_sessions import make_program

        now = 0.0
        for _ in range(40):
            for user in ("alice", "bob"):
                queue.submit("s", user, make_program(), PriorityClass.TEST, "qpu", now)
        # drain 30 selections, 10 simulated seconds apart
        for _ in range(30):
            (start,) = policy.schedule(*daemon_views(queue.queued_tasks(), now))
            task = queue.get(start.job_id)
            queue.set_state(task, TaskState.COMPLETED, now)
            now += 10.0
        shares = policy.observed_shares()
        assert shares["alice"] == pytest.approx(0.7, abs=0.12)
        assert shares["bob"] == pytest.approx(0.3, abs=0.12)


class TestMetrics:
    @staticmethod
    def _transitions(events):
        """A :class:`TransitionCollector` on a daemon whose queue makes the
        ``(time, task id, state)`` transitions; a production task on
        ``onprem`` is submitted at its first time."""
        from repro.daemon import MiddlewareDaemon
        from repro.daemon.queue import PriorityClass, TaskState
        from repro.qpu import ConstantWaveform, DriveSegment, Register
        from repro.qrmi import LocalEmulatorResource
        from repro.scheduling import TransitionCollector
        from repro.sdk.ir import AnalogProgram
        from repro.simkernel import Simulator

        sim = Simulator()
        daemon = MiddlewareDaemon(sim, {"onprem": LocalEmulatorResource("onprem")})
        collector = TransitionCollector(daemon)
        program = AnalogProgram(
            Register.chain(2, spacing=6.0),
            (DriveSegment(ConstantWaveform(1.0, 1.0), ConstantWaveform(1.0, 0.0)),),
        )
        tasks = {}

        def step(task_id, state):
            if task_id in tasks:
                daemon.queue.set_state(tasks[task_id], TaskState(state), sim.now)
            else:
                tasks[task_id] = daemon.queue.submit(
                    "s", "u", program, PriorityClass.PRODUCTION, "onprem", now=sim.now
                )

        for now, task_id, state in events:
            sim.call_in(now, lambda t=task_id, s=state: step(t, s))
        sim.run(until=1000.0)
        return collector

    def test_qpu_busy_fraction(self):
        from repro.scheduling import qpu_busy_fraction

        transitions = self._transitions([
            (0.0, "a", "queued"), (0.0, "a", "running"), (30.0, "a", "completed"),
            (50.0, "b", "queued"), (50.0, "b", "running"), (100.0, "b", "completed"),
        ])
        assert qpu_busy_fraction(transitions, "onprem", horizon=100.0) == pytest.approx(0.8)
        assert qpu_busy_fraction(transitions, "emu", horizon=100.0) == 0.0

    def test_scheduling_metrics_from_traces(self):
        from repro.scheduling import SchedulingMetrics

        transitions = self._transitions([
            (0.0, "t1", "queued"), (5.0, "t1", "running"), (25.0, "t1", "completed"),
        ])
        metrics = SchedulingMetrics.from_transitions(transitions, "onprem")
        assert metrics.tasks_completed == 1
        assert metrics.makespan == pytest.approx(25.0)
        assert metrics.qpu_utilization == pytest.approx(0.8)
        assert metrics.wait_by_class["production"]["mean"] == pytest.approx(5.0)

    def test_row_rendering(self):
        from repro.scheduling import SchedulingMetrics

        metrics = SchedulingMetrics(
            horizon=100.0,
            qpu_utilization=0.75,
            qpu_idle_seconds=25.0,
            makespan=90.0,
            tasks_completed=4,
        )
        row = metrics.row("test-scenario")
        assert row["scenario"] == "test-scenario"
        assert row["qpu_util_%"] == 75.0
