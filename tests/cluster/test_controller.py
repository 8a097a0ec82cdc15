"""Integration tests for the SlurmController: lifecycle, scheduling order,
backfill, preemption, timeouts, SPANK hooks, accounting."""

import pytest

from repro.errors import PartitionError, ResourceUnavailable
from repro.simkernel import Simulator, Timeout
from repro.cluster import (
    GresRequest,
    Job,
    JobSpec,
    JobState,
    LicensePool,
    Node,
    Partition,
    PreemptMode,
    Scheduler,
    SlurmController,
    SpankHook,
    SpankPlugin,
)


def build_cluster(
    num_nodes=2,
    cpus=4,
    preempt=PreemptMode.OFF,
    tiers=(0,),
    licenses=None,
    scheduler=None,
    gres=None,
):
    """One partition per tier, all sharing the same nodes."""
    sim = Simulator()
    nodes = [Node(f"n{i}", cpus=cpus, gres=dict(gres or {})) for i in range(num_nodes)]
    partitions = []
    for idx, tier in enumerate(tiers):
        name = "batch" if idx == 0 else f"tier{tier}"
        partitions.append(
            Partition(name, nodes, priority_tier=tier, preempt_mode=preempt)
        )
    ctl = SlurmController(
        sim, nodes, partitions, licenses=LicensePool(licenses or {}), scheduler=scheduler
    )
    return sim, ctl


class TestLifecycle:
    def test_submit_run_complete(self):
        sim, ctl = build_cluster()
        job_id = ctl.submit(JobSpec(name="hello", duration=10.0))
        sim.run()
        job = ctl.jobs[job_id]
        assert job.state is JobState.COMPLETED
        assert job.start_time == 0.0
        assert job.end_time == 10.0

    def test_unknown_partition_rejected(self):
        _, ctl = build_cluster()
        with pytest.raises(PartitionError):
            ctl.submit(JobSpec(name="x", partition="nope"))

    def test_infeasible_job_rejected_at_submit(self):
        _, ctl = build_cluster(cpus=4)
        with pytest.raises(ResourceUnavailable):
            ctl.submit(JobSpec(name="too-big", cpus=16))

    def test_queueing_when_cluster_full(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        first = ctl.submit(JobSpec(name="a", cpus=4, duration=10.0))
        second = ctl.submit(JobSpec(name="b", cpus=4, duration=5.0))
        sim.run()
        assert ctl.jobs[first].start_time == 0.0
        assert ctl.jobs[second].start_time == 10.0

    def test_wall_clock_timeout(self):
        sim, ctl = build_cluster()
        job_id = ctl.submit(JobSpec(name="runaway", duration=1000.0, time_limit=50.0))
        sim.run()
        job = ctl.jobs[job_id]
        assert job.state is JobState.TIMEOUT
        assert job.end_time == 50.0

    def test_timeout_leaves_later_events_running(self):
        # the watchdog cancels the timer that just woke it: that cancel
        # must not count, or the run ends with live entries in the heap
        sim, ctl = build_cluster()
        ctl.submit(JobSpec(name="j", duration=1000.0, time_limit=50.0))
        fired = []
        sim.call_at(60.0, lambda: fired.append(sim.now))
        sim.events.check()
        assert sim.run() == 60.0
        assert fired == [60.0]
        sim.events.check()

    def test_cancel_pending_job(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        ctl.submit(JobSpec(name="hog", cpus=4, duration=100.0))
        waiting = ctl.submit(JobSpec(name="victim", cpus=4, duration=10.0))
        sim.run(until=1.0)
        ctl.cancel(waiting)
        sim.run()
        assert ctl.jobs[waiting].state is JobState.CANCELLED

    def test_cancel_running_job_releases_resources(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        running = ctl.submit(JobSpec(name="a", cpus=4, duration=100.0))
        queued = ctl.submit(JobSpec(name="b", cpus=4, duration=5.0))
        sim.run(until=1.0)
        ctl.cancel(running)
        sim.run()
        assert ctl.jobs[running].state is JobState.CANCELLED
        assert ctl.jobs[queued].state is JobState.COMPLETED
        assert ctl.jobs[queued].start_time == pytest.approx(1.0)

    def test_payload_runs_and_returns(self):
        sim, ctl = build_cluster()

        def payload(ctx):
            yield Timeout(3.0)
            return {"energy": -1.5}

        job_id = ctl.submit(JobSpec(name="hybrid", payload=payload))
        sim.run()
        job = ctl.jobs[job_id]
        assert job.state is JobState.COMPLETED
        assert job.result == {"energy": -1.5}

    def test_payload_exception_fails_job(self):
        sim, ctl = build_cluster()

        def payload(ctx):
            yield Timeout(1.0)
            raise RuntimeError("bad physics")

        job_id = ctl.submit(JobSpec(name="buggy", payload=payload))
        sim.run()
        job = ctl.jobs[job_id]
        assert job.state is JobState.FAILED
        assert "bad physics" in job.exit_info


class TestSchedulingOrder:
    def test_higher_job_priority_first(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        ctl.submit(JobSpec(name="hog", cpus=4, duration=10.0))
        low = ctl.submit(JobSpec(name="low", cpus=4, duration=1.0, priority=0))
        high = ctl.submit(JobSpec(name="high", cpus=4, duration=1.0, priority=5))
        sim.run()
        assert ctl.jobs[high].start_time < ctl.jobs[low].start_time

    def test_fifo_within_priority(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        ctl.submit(JobSpec(name="hog", cpus=4, duration=10.0))
        first = ctl.submit(JobSpec(name="first", cpus=4, duration=1.0))
        second = ctl.submit(JobSpec(name="second", cpus=4, duration=1.0))
        sim.run()
        assert ctl.jobs[first].start_time < ctl.jobs[second].start_time

    def test_gres_job_waits_for_gres(self):
        sim, ctl = build_cluster(num_nodes=2, cpus=4, gres={"qpu": 1})
        a = ctl.submit(JobSpec(name="qpu-a", gres=(GresRequest("qpu", 1),), duration=10.0))
        b = ctl.submit(JobSpec(name="qpu-b", gres=(GresRequest("qpu", 1),), duration=10.0))
        sim.run()
        # Each node has 1 qpu and there are 2 nodes: both can run at once.
        assert ctl.jobs[a].start_time == 0.0
        assert ctl.jobs[b].start_time == 0.0

    def test_license_serialization(self):
        sim, ctl = build_cluster(num_nodes=2, cpus=4, licenses={"qpu_time": 1})
        a = ctl.submit(JobSpec(name="a", licenses=(("qpu_time", 1),), duration=10.0))
        b = ctl.submit(JobSpec(name="b", licenses=(("qpu_time", 1),), duration=10.0))
        sim.run()
        starts = sorted([ctl.jobs[a].start_time, ctl.jobs[b].start_time])
        assert starts == [0.0, 10.0]

    def test_unknown_license_does_not_fit(self):
        _, ctl = build_cluster(licenses={"qpu_time": 1})
        with pytest.raises(ResourceUnavailable):
            ctl.submit(JobSpec(name="x", licenses=(("no_such", 1),)))

    def test_license_lookup_errors_other_than_unknown_propagate(self):
        class BrokenPool(LicensePool):
            def total(self, name):
                raise RuntimeError("license server down")

        job = Job(1, JobSpec(name="x", licenses=(("qpu_time", 1),)), 0.0)
        partition = Partition("batch", [Node("n0", cpus=4)])
        assert not Scheduler.feasible(job, partition, LicensePool({}))
        with pytest.raises(RuntimeError, match="license server down"):
            Scheduler.feasible(job, partition, BrokenPool({"qpu_time": 1}))


class TestBackfill:
    def test_small_job_backfills_around_blocked_head(self):
        sim, ctl = build_cluster(num_nodes=2, cpus=6)
        # hogs take most capacity for 100s
        ctl.submit(JobSpec(name="hog1", cpus=4, duration=100.0, time_limit=100.0))
        ctl.submit(JobSpec(name="hog2", cpus=4, duration=100.0, time_limit=100.0))
        sim.run(until=1.0)  # hogs now running
        # head needs both nodes -> blocked until 100
        head = ctl.submit(
            JobSpec(name="head", cpus=6, num_nodes=2, duration=10.0, time_limit=10.0, priority=10)
        )
        # small fits in the shadow window (1 + 50 <= shadow 100)
        small = ctl.submit(JobSpec(name="small", cpus=2, duration=50.0, time_limit=50.0))
        sim.run(until=2.0)
        assert ctl.jobs[small].is_running  # backfilled immediately
        assert ctl.jobs[head].is_pending
        sim.run()
        assert ctl.jobs[head].start_time == pytest.approx(100.0)

    def test_backfill_does_not_delay_head(self):
        sim, ctl = build_cluster(num_nodes=2, cpus=6)
        ctl.submit(JobSpec(name="hog1", cpus=4, duration=100.0, time_limit=100.0))
        ctl.submit(JobSpec(name="hog2", cpus=4, duration=100.0, time_limit=100.0))
        sim.run(until=1.0)
        head = ctl.submit(
            JobSpec(name="head", cpus=6, num_nodes=2, duration=10.0, time_limit=10.0, priority=10)
        )
        # too long to fit the shadow window: must NOT start
        long_job = ctl.submit(JobSpec(name="long", cpus=2, duration=500.0, time_limit=500.0))
        sim.run(until=2.0)
        assert not ctl.jobs[long_job].is_running
        sim.run()
        assert ctl.jobs[head].start_time == pytest.approx(100.0)

    def test_backfill_disabled(self):
        sim, ctl = build_cluster(num_nodes=2, cpus=6, scheduler=Scheduler(backfill=False))
        ctl.submit(JobSpec(name="hog1", cpus=4, duration=100.0, time_limit=100.0))
        ctl.submit(JobSpec(name="hog2", cpus=4, duration=100.0, time_limit=100.0))
        sim.run(until=1.0)
        ctl.submit(
            JobSpec(name="head", cpus=6, num_nodes=2, duration=10.0, time_limit=10.0, priority=10)
        )
        small = ctl.submit(JobSpec(name="small", cpus=2, duration=5.0, time_limit=5.0))
        sim.run(until=2.0)
        assert not ctl.jobs[small].is_running  # strict priority order, no backfill


class TestPreemption:
    def build(self):
        sim = Simulator()
        nodes = [Node("n0", cpus=4)]
        dev = Partition("dev", nodes, priority_tier=0, preempt_mode=PreemptMode.REQUEUE)
        prod = Partition("prod", nodes, priority_tier=2, preempt_mode=PreemptMode.OFF)
        ctl = SlurmController(sim, nodes, [dev, prod])
        return sim, ctl

    def test_production_preempts_dev(self):
        sim, ctl = self.build()
        dev_job = ctl.submit(JobSpec(name="dev", partition="dev", cpus=4, duration=100.0))
        sim.run(until=5.0)
        prod_job = ctl.submit(JobSpec(name="prod", partition="prod", cpus=4, duration=10.0))
        sim.run()
        dev = ctl.jobs[dev_job]
        prod = ctl.jobs[prod_job]
        assert prod.start_time == pytest.approx(5.0)
        assert dev.preempt_count == 1
        assert dev.requeue_count == 1
        # dev requeued and finished after prod
        assert dev.state is JobState.COMPLETED
        assert dev.end_time == pytest.approx(5.0 + 10.0 + 100.0)

    def test_cancel_mode_kills_victim(self):
        sim = Simulator()
        nodes = [Node("n0", cpus=4)]
        dev = Partition("dev", nodes, priority_tier=0, preempt_mode=PreemptMode.CANCEL)
        prod = Partition("prod", nodes, priority_tier=2)
        ctl = SlurmController(sim, nodes, [dev, prod])
        dev_job = ctl.submit(JobSpec(name="dev", partition="dev", cpus=4, duration=100.0))
        sim.run(until=5.0)
        ctl.submit(JobSpec(name="prod", partition="prod", cpus=4, duration=10.0))
        sim.run()
        assert ctl.jobs[dev_job].state is JobState.CANCELLED

    def test_no_preemption_when_disabled(self):
        sim = Simulator()
        nodes = [Node("n0", cpus=4)]
        dev = Partition("dev", nodes, priority_tier=0, preempt_mode=PreemptMode.REQUEUE)
        prod = Partition("prod", nodes, priority_tier=2)
        ctl = SlurmController(sim, nodes, [dev, prod], scheduler=Scheduler(preemption=False))
        dev_job = ctl.submit(JobSpec(name="dev", partition="dev", cpus=4, duration=100.0))
        sim.run(until=5.0)
        prod_job = ctl.submit(JobSpec(name="prod", partition="prod", cpus=4, duration=10.0))
        sim.run()
        assert ctl.jobs[dev_job].preempt_count == 0
        assert ctl.jobs[prod_job].start_time == pytest.approx(100.0)


class TestSpank:
    def test_hooks_fire_in_order(self):
        sim, ctl = build_cluster()
        calls = []

        class Probe(SpankPlugin):
            name = "probe"

            def job_submit(self, job, controller):
                calls.append(("submit", job.spec.name))

            def job_start(self, job, controller):
                calls.append(("start", job.spec.name))

            def job_end(self, job, controller):
                calls.append(("end", job.spec.name))

        ctl.spank.register(Probe())
        ctl.submit(JobSpec(name="j", duration=1.0))
        sim.run()
        assert calls == [("submit", "j"), ("start", "j"), ("end", "j")]

    def test_submit_veto(self):
        sim, ctl = build_cluster()

        class Veto(SpankPlugin):
            name = "veto"

            def job_submit(self, job, controller):
                raise ValueError("not allowed")

        ctl.spank.register(Veto())
        with pytest.raises(ValueError):
            ctl.submit(JobSpec(name="j"))
        assert len(ctl.jobs) == 0

    def test_env_injection_visible_to_payload(self):
        sim, ctl = build_cluster()
        seen = {}

        def inject(job, controller):
            job.env["QRMI_TARGET"] = "emulator"

        ctl.spank.register_callable(SpankHook.JOB_START, inject)

        def payload(ctx):
            yield Timeout(1.0)
            seen.update(ctx.env)

        ctl.submit(JobSpec(name="j", payload=payload))
        sim.run()
        assert seen["QRMI_TARGET"] == "emulator"


class TestAccountingAndQueries:
    def test_accounting_records_all_terminal_jobs(self):
        sim, ctl = build_cluster()
        for i in range(5):
            ctl.submit(JobSpec(name=f"j{i}", duration=float(i + 1)))
        sim.run()
        assert len(ctl.accounting) == 5
        assert all(r.state == "completed" for r in ctl.accounting.all())

    def test_squeue_excludes_terminal(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        ctl.submit(JobSpec(name="a", cpus=4, duration=10.0))
        ctl.submit(JobSpec(name="b", cpus=4, duration=10.0))
        sim.run(until=1.0)
        rows = ctl.squeue()
        assert {r["state"] for r in rows} == {"running", "pending"}
        sim.run()
        assert ctl.squeue() == []

    def test_sinfo_reports_nodes(self):
        _, ctl = build_cluster(num_nodes=3)
        rows = ctl.sinfo()
        assert len(rows) == 3
        assert all(row["state"] == "idle" for row in rows)

    def test_wait_percentiles(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        for i in range(4):
            ctl.submit(JobSpec(name=f"j{i}", cpus=4, duration=10.0))
        sim.run()
        pct = ctl.accounting.wait_percentiles((50.0,))
        assert pct[50.0] == pytest.approx(15.0)  # waits: 0, 10, 20, 30

    def test_drain_node_blocks_scheduling(self):
        sim, ctl = build_cluster(num_nodes=1, cpus=4)
        ctl.drain_node("n0")
        job = ctl.submit(JobSpec(name="j", cpus=4, duration=1.0))
        sim.run(until=5.0)
        assert ctl.jobs[job].is_pending
        ctl.resume_node("n0")
        sim.run()
        assert ctl.jobs[job].state is JobState.COMPLETED
