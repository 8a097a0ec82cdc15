"""End-to-end integration tests crossing every layer of the stack."""

import numpy as np

from repro.cluster import JobSpec, JobState, Node, Partition, PreemptMode, SlurmController
from repro.config import DictConfig
from repro.daemon import MiddlewareDaemon, SharingMode, build_router
from repro.daemon.queue import ShotCapPolicy
from repro.qpu import (
    DriftModel,
    DriftProcess,
    QPUDevice,
    Register,
    ShotClock,
)
from repro.qrmi import OnPremQPUResource, QRMISpankPlugin
from repro.runtime import DaemonClient, RuntimeEnvironment
from repro.sdk import AnalogCircuit
from repro.simkernel import RngRegistry, Simulator, Timeout


def build_site(shot_rate=10.0, mode=SharingMode.PREEMPT, seed=0, num_nodes=2):
    """A complete site: cluster + partitions + SPANK + daemon + QPU."""
    sim = Simulator()
    rng = RngRegistry(seed)
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=shot_rate, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=rng.get("device"),
    )
    daemon = MiddlewareDaemon(
        sim,
        {"onprem": OnPremQPUResource("onprem", device)},
        mode=mode,
        shot_cap=ShotCapPolicy(test_max_shots=10**9, dev_max_shots=10**9,
                               disable_batching_below_production=False),
    )
    router = build_router(daemon)
    nodes = [Node(f"n{i}", cpus=16) for i in range(num_nodes)]
    partitions = [
        Partition("production", nodes, priority_tier=2, default_time_limit=50_000.0),
        Partition("test", nodes, priority_tier=1, default_time_limit=50_000.0),
        Partition("development", nodes, priority_tier=0,
                  preempt_mode=PreemptMode.REQUEUE, default_time_limit=50_000.0),
    ]
    site_config = DictConfig(
        {
            "QRMI_RESOURCES": "onprem",
            "QRMI_ONPREM_TYPE": "onprem-qpu",
            "QRMI_ONPREM_DEVICE": "fresnel-sim",
        }
    )
    ctl = SlurmController(sim, nodes, partitions)
    ctl.spank.register(QRMISpankPlugin(site_config))
    return sim, ctl, daemon, device, router


def hybrid_payload(daemon, iterations=2, shots=100, classical=5.0):
    def payload(ctx):
        env = RuntimeEnvironment.with_daemon(
            daemon,
            user=ctx.job.spec.user,
            slurm_partition=ctx.env["SLURM_JOB_PARTITION"],
            default_resource=ctx.env["QRMI_DEFAULT_RESOURCE"],
        )
        circuit = (
            AnalogCircuit(Register.chain(3, spacing=6.0), name=ctx.job.spec.name)
            .rx_global(np.pi / 2, duration=0.3)
            .measure_all()
        )
        counts = None
        for _ in range(iterations):
            result = yield from env.run_process(circuit, shots=shots)
            counts = result.counts
            yield Timeout(classical)
        return counts

    return payload


class TestFullStack:
    def test_many_users_complete_consistently(self):
        sim, ctl, daemon, device, router = build_site()
        ids = []
        for i, partition in enumerate(["production", "test", "development"] * 2):
            ids.append(
                ctl.submit(
                    JobSpec(
                        name=f"job-{i}",
                        user=f"user-{i}",
                        partition=partition,
                        qpu_resource="onprem",
                        payload=hybrid_payload(daemon),
                    )
                )
            )
        sim.run()
        for job_id in ids:
            assert ctl.jobs[job_id].state is JobState.COMPLETED
        # every middleware task completed and produced metadata
        assert daemon.scheduler.tasks_completed == 12  # 6 jobs x 2 iterations
        assert len(daemon.jobmeta) == 12
        # cluster accounting and daemon accounting agree on the user set
        slurm_users = {r.user for r in ctl.accounting.all()}
        mw_users = {t.user for t in daemon.queue.all_tasks()}
        assert slurm_users == mw_users

    def test_priority_flows_cluster_to_daemon(self):
        """A production Slurm job's middleware tasks outrank earlier dev
        tasks at the QPU: two-level priority coherence."""
        sim, ctl, daemon, device, router = build_site(shot_rate=1.0)
        ctl.submit(
            JobSpec(
                name="dev-long", user="student", partition="development",
                qpu_resource="onprem",
                payload=hybrid_payload(daemon, iterations=3, shots=300, classical=1.0),
            )
        )
        sim.run(until=30.0)

        def submit_prod():
            ctl.submit(
                JobSpec(
                    name="prod-urgent", user="operator", partition="production",
                    qpu_resource="onprem",
                    payload=hybrid_payload(daemon, iterations=1, shots=50, classical=1.0),
                )
            )

        sim.call_in(1.0, submit_prod)
        sim.run()
        prod_tasks = [t for t in daemon.queue.all_tasks() if t.user == "operator"]
        assert prod_tasks, "production tasks reached the daemon"
        assert all(t.wait_time() < 60.0 for t in prod_tasks)
        # the running dev burst was preempted at least once
        assert daemon.scheduler.tasks_preempted >= 1

    def test_device_drift_visible_in_job_metadata(self):
        """Calibration drift during a long campaign shows up in the
        per-job metadata users fetch (paper §2.5)."""
        sim, ctl, daemon, device, router = build_site(shot_rate=100.0)
        model = DriftModel(jump_rate_per_hour=0.0)
        rng = RngRegistry(5)
        DriftProcess(sim, device.calibration, model, rng.get("drift"), interval=30.0)

        def degrade_hard():
            device.calibration.detection_epsilon = 0.12

        sim.call_in(500.0, degrade_hard)

        def camp(delay, name):
            def submit():
                ctl.submit(
                    JobSpec(
                        name=name, user="operator", partition="production",
                        qpu_resource="onprem",
                        payload=hybrid_payload(daemon, iterations=1, shots=100),
                    )
                )
            sim.call_in(delay, submit)

        camp(0.0, "early")
        camp(1000.0, "late")
        sim.run()
        records = sorted(daemon.jobmeta.in_window(0.0, 1e9), key=lambda r: r.time)
        early_eps = records[0].calibration["detection_epsilon"]
        late_eps = records[-1].calibration["detection_epsilon"]
        assert late_eps > early_eps

    def test_maintenance_window_blocks_then_recovers(self):
        sim, ctl, daemon, device, router = build_site(shot_rate=100.0)
        admin = DaemonClient(router, token=daemon.admin_token)

        def start_window():
            admin._call("POST", "/admin/devices/onprem/maintenance")

        def end_window():
            admin._call("DELETE", "/admin/devices/onprem/maintenance")

        sim.call_in(0.0, start_window)
        sim.call_in(100.0, end_window)

        job_id = ctl.submit(
            JobSpec(
                name="patient", user="alice", partition="production",
                qpu_resource="onprem",
                payload=hybrid_payload(daemon, iterations=1, shots=50),
            )
        )
        # submission during maintenance: daemon accepts, scheduler fails the
        # task against a maintenance device OR the task waits; either way
        # after the window everything completes on a retry from a new job.
        sim.run(until=50.0)
        sim.run()
        job = ctl.jobs[job_id]
        if job.state is not JobState.COMPLETED:
            # retry after the window: must succeed
            retry = ctl.submit(
                JobSpec(
                    name="retry", user="alice", partition="production",
                    qpu_resource="onprem",
                    payload=hybrid_payload(daemon, iterations=1, shots=50),
                )
            )
            sim.run()
            assert ctl.jobs[retry].state is JobState.COMPLETED
        assert device.status == "online"

    def test_metrics_capture_full_run(self):
        sim, ctl, daemon, device, router = build_site()
        for i in range(3):
            ctl.submit(
                JobSpec(
                    name=f"m-{i}", user="alice", partition="production",
                    qpu_resource="onprem", payload=hybrid_payload(daemon),
                )
            )
        sim.run()
        text = daemon.metrics_text()
        assert 'daemon_tasks_total{state="completed"} 6' in text
        # wait histogram recorded one observation per task
        assert "daemon_task_wait_seconds_count" in text
        # telemetry scraped into the TSDB
        assert daemon.tsdb.has_series("qpu_tasks_completed_total", labels={"device": "onprem"})
