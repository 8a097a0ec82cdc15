"""The run's profiler and tracer live on the shared simulator.

Every layer reaches ``sim.profiler`` and ``sim.tracer`` through the
simulator it already holds, so a stack profiles and traces the same way
with or without a broker, and a site that joins after the attach is
covered like the sites that were there before it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "federation"))
from fedutil import build_federation, make_program  # noqa: E402

from repro.analysis.rules import HOT_PATHS
from repro.daemon import MiddlewareDaemon, SharingMode
from repro.daemon.queue import ShotCapPolicy
from repro.errors import ObservabilityError
from repro.federation import FederatedSite
from repro.observability import Profiler, Tracer
from repro.qpu import QPUDevice, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.session import Session
from repro.simkernel import Simulator
from repro.spec import JobSpec


def run_shared_qpu(profiler):
    """One preempting QPU daemon and its scraper, no broker: three
    classes share the device and a production arrival preempts."""
    sim = Simulator()
    sim.profiler = profiler
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    daemon = MiddlewareDaemon(
        sim, {"onprem": OnPremQPUResource("onprem", device)}, mode=SharingMode.PREEMPT,
        shot_cap=ShotCapPolicy(dev_max_shots=10_000), scrape_interval=5.0,
    )
    sessions = {cls: daemon.create_session(cls, cls) for cls in ("development", "test", "production")}
    tasks = []
    for when, cls, shots in (
        (0.0, "development", 30), (0.0, "test", 5), (4.0, "development", 8), (10.0, "production", 6),
    ):
        sim.run(until=when)
        tasks.append(daemon.submit_task(sessions[cls].token, make_program(shots=shots), "onprem"))
    sim.run(until=120.0)
    return [(t.state, t.started_at, t.finished_at, t.preempt_count) for t in tasks]


class TestDaemonOnlyStack:
    def test_shared_qpu_daemon_profiles_without_a_broker(self):
        profiler = Profiler()
        profiled = run_shared_qpu(profiler)
        snapshot = profiler.snapshot()
        assert ("sim.step", "scheduler.select") in snapshot
        assert ("sim.step", "tsdb.flush") in snapshot
        # the profiler never touches scheduling: same states and times
        assert profiled == run_shared_qpu(None)
        assert any(preempts for *_, preempts in profiled)


class TestLateJoiningSite:
    def test_site_registered_after_attach_is_traced_and_profiled(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        tracer = broker.attach_tracer()
        sim.profiler = profiler = Profiler()
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
            rng=np.random.default_rng(9),
        )
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
        )
        registry.register(FederatedSite("late-site", daemon, max_queue_depth=4), now=sim.now)
        job_id = broker.submit_spec(
            JobSpec(program=make_program(shots=10), shots=10, pin="late-site/onprem")
        )
        sim.run(until=60.0)
        assert broker.job(job_id).current.site == "late-site"
        by_name = {span.name: span for span in tracer.job_spans(job_id)}
        assert by_name["dispatch"].parent_id == by_name["execute"].span_id
        assert by_name["dispatch"].attributes["site"] == "late-site"
        # only the late site's scheduler had work to select
        assert profiler.snapshot()[("sim.step", "scheduler.select")]["count"] >= 1

    def test_second_tracer_on_one_simulator_raises(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        tracer = broker.attach_tracer()
        assert Session(federation=broker).attach_tracer(tracer) is tracer
        with pytest.raises(ObservabilityError, match="different tracer"):
            Session(federation=broker).attach_tracer(Tracer())
        assert sim.tracer is tracer


class TestHotPathReach:
    def test_every_manifest_scope_opens_at_run_time(self):
        """A profiled federation with one fixed and one malleable job,
        reconcile driven by housekeeping: every HOT_PATHS scope opens,
        nested as in the C6 profiled sweep."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        sim.profiler = profiler = Profiler()
        sim.call_in(1.0, lambda: broker.submit_spec(JobSpec(program=make_program(shots=10), shots=10)))
        sim.call_in(
            2.0,
            lambda: broker.submit_spec(JobSpec(program=make_program(shots=10), shots=10, iterations=6)),
        )
        sim.run(until=150.0)
        paths = {"/".join(path) for path in profiler.paths()}
        assert {
            "sim.step",
            "sim.step/algorithm.schedule",
            "sim.step/scheduler.select",
            "sim.step/tsdb.flush",
            "sim.step/broker.reconcile",
            "sim.step/broker.reconcile/malleable.tick",
        } <= paths
        assert {scope for _, _, scope in HOT_PATHS} <= {p.rsplit("/", 1)[-1] for p in paths}
