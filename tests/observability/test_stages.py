"""One lifecycle record: every view reads the same stage intervals.

The stage-latency histogram, the tracer, the phase profiles and the SLO
samples are sinks of one stage tracker per lifecycle bus.  These tests
hold them to that: every dispatch of a multi-unit job is attributed to
its job and tenant in every view, and on a preempted run all four views
observe the same intervals, a preempted run included, with each queue
wait measured from the task's latest return to the queue.
"""

import numpy as np
import pytest

from repro.daemon import MiddlewareDaemon
from repro.daemon.queue import PriorityClass, ShotCapPolicy
from repro.daemon.scheduler import SharingMode
from repro.federation import FederatedSite, FederationBroker, SiteRegistry
from repro.federation.events import JobEvent, LifecycleBus
from repro.federation.metrics import FederationMetrics
from repro.observability import LatencyObjective, PhaseProfile, ProfileStore, SLOTracker
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.simkernel import Simulator
from repro.spec import JobSpec

#: the stages every view reports, and the profile phase of each
PHASE_STAGE = {
    "queue_wait_s": "queue-wait",
    "execute_s": "execute",
    "classical_pre_s": "classical-pre",
    "job_s": "job",
}


def make_program(shots, name="stage-prog"):
    return (
        AnalogCircuit(Register.chain(2, spacing=6.0), name=name)
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=shots)
    )


def make_daemon(sim, mode=SharingMode.SHOT_CAP):
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    return MiddlewareDaemon(
        sim,
        {"onprem": OnPremQPUResource("onprem", device)},
        mode=mode,
        shot_cap=ShotCapPolicy(),
        scrape_interval=600.0,
    )


def build_federation(n_sites, mode=SharingMode.SHOT_CAP, priority=PriorityClass.PRODUCTION):
    sim = Simulator()
    registry = SiteRegistry(heartbeat_expiry=1e9)
    for i in range(n_sites):
        site = FederatedSite(
            f"site-{i}", make_daemon(sim, mode), max_queue_depth=8, priority_class=priority
        )
        registry.register(site, now=0.0)
    broker = FederationBroker(sim, registry)
    broker.spawn_housekeeping(interval=15.0)
    return sim, broker


def objectives():
    """One SLO objective per task stage, and the job, per tenant
    (thresholds never bind)."""
    return [
        LatencyObjective(name=f"{tenant}-{stage}", stage=stage, threshold_s=1e9, tenant=tenant)
        for tenant in ("a", "b")
        for stage in ("queue-wait", "execute", "job")
    ]


class TestEveryDispatchOnTheBus:
    def test_unit_tasks_attribute_to_job_and_tenant(self):
        """A fixed job of tenant ``a`` and a 4-unit job of tenant ``b``
        on two sites: every view sees all five dispatches, each unit
        under its job and tenant, with every per-unit stage."""
        sim, broker = build_federation(n_sites=2)
        profiles = broker.attach_profiles()
        tracer = broker.attach_tracer()
        slo = SLOTracker(objectives())
        slo.attach_bus(broker.events)
        fixed = broker.submit_spec(JobSpec(program=make_program(4), shots=4, tenant="a"))
        multi = broker.submit_spec(
            JobSpec(program=make_program(3), shots=3, iterations=4, tenant="b")
        )
        sim.run(until=600.0)
        jobs = {fixed: broker.job(fixed), multi: broker.job(multi)}
        assert all(job.completed_units == job.units for job in jobs.values())
        assert len(jobs[multi].placements) == 4

        # metrics: one placement per dispatch, on the dispatch's site
        truth: dict[str, int] = {}
        for job in jobs.values():
            for dispatch in job.placements:
                truth[dispatch.site] = truth.get(dispatch.site, 0) + 1
        for site, count in truth.items():
            assert broker.metrics.placements.value(labels={"site": site}) == count
        assert sum(v for _, _, v in broker.metrics.placements.samples()) == 5

        # profiles: each unit records every task stage under tenant b
        for tenant, units in (("a", 1), ("b", 4)):
            (key,) = [k for k in profiles.keys() if k[0] == tenant]
            counts = profiles.get(*key).counts
            for phase in ("classical_pre_s", "queue_wait_s", "execute_s"):
                assert counts[phase] == units, (tenant, phase)
            assert counts["job_s"] == 1
            assert profiles.get(*key).samples == 1

        # SLOs: tenant-scoped objectives receive every unit's samples
        results = slo.evaluate(now=sim.now)
        for tenant, units in (("a", 1), ("b", 4)):
            for stage in ("queue-wait", "execute"):
                assert results[f"{tenant}-{stage}"]["events"] == units, (tenant, stage)
            assert results[f"{tenant}-job"]["events"] == 1

        # tracer: every dispatch is a placement with its unit's stages
        # nested under it, inside the job's trace
        for job_id, job in jobs.items():
            spans = tracer.job_spans(job_id)
            assert tracer.job_root(job_id).attributes["tenant"] == job.owner
            placements = {s.span_id: s for s in spans if s.name == "placement"}
            assert sorted(
                (s.attributes["task_id"], s.attributes["unit"]) for s in placements.values()
            ) == sorted((d.task_id, d.unit) for d in job.placements)
            for stage in ("queue-wait", "execute"):
                staged = [s for s in spans if s.name == stage]
                assert len(staged) == job.units
                for span in staged:
                    parent = placements[span.parent_id]
                    assert span.attributes["task_id"] == parent.attributes["task_id"]
                    assert not span.open
            pre = [s for s in spans if s.name == "classical-pre"]
            assert sorted(s.attributes["unit"] for s in pre) == list(range(job.units))


def observed(monkeypatch, tracer, metrics, profiles, slo):
    """Spy on the four views; returns the histogram and SLO samples,
    a reader of the profile store's observations and one of the
    tracer's closed stage spans, each as ``(stage, duration)`` pairs."""
    seen = {"histogram": [], "slo": []}
    phase_observations = []
    histogram_observe = metrics.stage_latency.observe
    slo_observe = slo.observe
    phase_observe = PhaseProfile.observe

    def on_histogram(value, labels=None):
        seen["histogram"].append((labels["stage"], value))
        histogram_observe(value, labels=labels)

    def on_slo(stage, latency_s, now, tenant=None):
        seen["slo"].append((stage, latency_s))
        slo_observe(stage, latency_s, now, tenant)

    def on_phase(profile, phase, value, alpha):
        phase_observations.append((profile, phase, value))
        phase_observe(profile, phase, value, alpha)

    metrics.stage_latency.observe = on_histogram
    slo.observe = on_slo
    monkeypatch.setattr(PhaseProfile, "observe", on_phase)

    def profile_observations():
        # only this store's profiles: a site daemon keeps its own
        mine = {id(profile) for profile in profiles._profiles.values()}
        return [
            (PHASE_STAGE[phase], value)
            for profile, phase, value in phase_observations
            if id(profile) in mine and phase in PHASE_STAGE
        ]

    def spans():
        return [
            (span.name, span.duration)
            for trace_id in tracer.trace_ids()
            for span in tracer.spans(trace_id)
            if span.name in PHASE_STAGE.values() and not span.open
        ]

    return seen, profile_observations, spans


def normalized(observations):
    return sorted((stage, round(value, 9)) for stage, value in observations)


class TestOneMeaningOfPreemption:
    """One preempt-mode trace: production P1 holds the QPU for 10 s
    while development job A waits; A runs 10-20 s until production P2
    preempts it, waits again until 30 s and runs to completion.  A's
    two queue waits are 10 s each; its preempted run is an execute
    interval.  Every view receives exactly the same intervals."""

    def run_trace(self, backend, monkeypatch):
        if backend == "daemon":
            sim = Simulator()
            daemon = make_daemon(sim, SharingMode.PREEMPT)
            session = Session(daemon=daemon, user="a")
            metrics = FederationMetrics()
            metrics.attach_bus(daemon.events)
            profiles = daemon.profiles
            submit_a = lambda: session.submit(  # noqa: E731
                JobSpec(program=make_program(20), shots=20, priority_class="development")
            )
        else:
            sim, broker = build_federation(
                n_sites=1, mode=SharingMode.PREEMPT, priority=PriorityClass.DEVELOPMENT
            )
            daemon = broker.registry.site("site-0").daemon
            session = Session(daemon=daemon, federation=broker, user="a")
            metrics = broker.metrics
            profiles = broker.attach_profiles()
            submit_a = lambda: session.submit(  # noqa: E731
                JobSpec(program=make_program(20), shots=20), backend="federation"
            )
        tracer = session.attach_tracer()
        slo = SLOTracker(objectives())
        slo.attach_bus(session.events)
        seen, profile_observations, spans = observed(monkeypatch, tracer, metrics, profiles, slo)

        def production():
            return session.submit(
                JobSpec(program=make_program(10), shots=10, priority_class="production"),
                backend="daemon",
            )

        production()
        handle = submit_a()
        sim.call_in(20.0, production)
        sim.run(until=300.0)
        assert handle.status()["state"] == "completed"
        seen["profiles"] = profile_observations()
        return handle, tracer, seen, spans()

    @pytest.mark.parametrize("backend", ["daemon", "federation"])
    def test_views_agree_on_a_preempted_run(self, backend, monkeypatch):
        handle, tracer, seen, spans = self.run_trace(backend, monkeypatch)
        a_spans = sorted(
            (round(span.start, 3), span.name, round(span.duration, 3), span.status)
            for span in tracer.job_spans(handle.job_id)
            if span.name in ("queue-wait", "execute")
        )
        assert a_spans == [
            (0.0, "queue-wait", 10.0, "ok"),
            (10.0, "execute", 10.0, "preempted"),
            (20.0, "queue-wait", 10.0, "ok"),
            (30.0, "execute", 20.0, "ok"),
        ]
        expected = normalized(spans)
        assert normalized(seen["profiles"]) == expected
        assert normalized(seen["histogram"]) == expected
        assert normalized(seen["slo"]) == expected


def ev(time, kind, job_id="", site="", task_id="", **payload):
    return JobEvent(time=time, kind=kind, job_id=job_id, site=site, task_id=task_id, payload=payload)


class TestStageTracker:
    def test_unclaimed_task_is_its_own_job(self):
        bus = LifecycleBus()
        closed = []
        bus.stages.add_sink(closed.append)
        bus.publish(ev(0.0, "queued", "t1", site="s", task_id="t1", tenant="bob", signature="vqe/q2"))
        bus.publish(ev(3.0, "running", "t1", site="s", task_id="t1"))
        bus.publish(ev(5.0, "completed", "t1", site="s", task_id="t1"))
        assert [(r.stage, r.job, r.tenant, r.signature, r.start, r.end, r.status) for r in closed] == [
            ("queue-wait", "t1", "bob", "vqe/q2", 0.0, 3.0, "ok"),
            ("execute", "t1", "bob", "vqe/q2", 3.0, 5.0, "ok"),
            ("job", "t1", "bob", "vqe/q2", 0.0, 5.0, "ok"),
        ]

    def test_placement_claims_the_task_for_its_job(self):
        bus = LifecycleBus()
        closed = []
        bus.stages.add_sink(closed.append)
        bus.publish(ev(0.0, "job_submitted", "j1", tenant="acme", program="vqe", qubits=4))
        bus.publish(ev(2.0, "queued", "t1", site="s", task_id="t1", tenant="fed:acme", signature="x/q4"))
        bus.publish(ev(2.0, "job_placed", "j1", site="s", task_id="t1", unit=3))
        bus.publish(ev(4.0, "running", "t1", site="s", task_id="t1"))
        bus.publish(ev(9.0, "failed", "t1", site="s", task_id="t1"))
        bus.publish(ev(9.0, "job_failed", "j1"))
        assert [(r.stage, r.job, r.unit, r.tenant, r.signature, r.end - r.start, r.status) for r in closed] == [
            ("classical-pre", "j1", 3, "acme", "vqe/q4", 2.0, "ok"),
            ("queue-wait", "j1", 3, "acme", "vqe/q4", 2.0, "ok"),
            ("execute", "j1", 3, "acme", "vqe/q4", 5.0, "failed"),
            ("job", "j1", 0, "acme", "vqe/q4", 9.0, "failed"),
        ]

    def test_site_filtered_sink_hears_only_its_site(self):
        bus = LifecycleBus()
        here, everywhere = [], []
        bus.stages.add_sink(here.append, site="s0")
        bus.stages.add_sink(everywhere.append)
        for site in ("s0", "s1"):
            bus.publish(ev(0.0, "queued", "t1", site=site, task_id="t1", tenant="u"))
            bus.publish(ev(1.0, "cancelled", "t1", site=site, task_id="t1"))
        assert {r.site for r in here} == {"s0"}
        assert len(everywhere) == 2 * len(here) == 4

    def test_a_raising_sink_is_counted_in_dropped(self, bus_drops):
        """A broken view neither breaks the fold nor starves the views
        after it; the bus counts it like a raising subscriber."""
        bus = LifecycleBus()

        def broken(record):
            raise RuntimeError("sink bug")

        closed = []
        bus.stages.add_sink(broken)
        bus.stages.add_sink(closed.append)
        bus.publish(ev(0.0, "queued", "t1", site="s", task_id="t1", tenant="u"))
        bus.publish(ev(1.0, "running", "t1", site="s", task_id="t1"))
        bus.publish(ev(2.0, "completed", "t1", site="s", task_id="t1"))
        assert [r.stage for r in closed] == ["queue-wait", "execute", "job"]
        assert bus.dropped == 3
        bus_drops(bus, 3)

    def test_removed_sink_hears_nothing_more(self):
        bus = LifecycleBus()
        store = ProfileStore()
        bus.stages.add_sink(store.on_closed)
        bus.stages.remove_sink(store.on_closed)
        bus.publish(ev(0.0, "queued", "t1", site="s", task_id="t1", tenant="u"))
        bus.publish(ev(1.0, "completed", "t1", site="s", task_id="t1"))
        assert store.snapshot() == {}
        assert store.summary()["live_jobs"] == 0


class TestSiteProfilesFollowTheBus:
    def test_site_daemon_profiles_its_tasks_after_joining_a_broker(self):
        """``GET /profiles`` on a site daemon keeps reporting the site's
        own tasks after attach_bus moved it onto the broker's bus, and
        only those."""
        sim, broker = build_federation(n_sites=2)
        for _ in range(4):
            broker.submit_spec(JobSpec(program=make_program(3), shots=3, tenant="t"))
        sim.run(until=300.0)
        for name in broker.registry.names():
            daemon = broker.registry.site(name).daemon
            assert daemon.events is broker.events
            ran = [t for t in daemon.queue.all_tasks() if t.state.value == "completed"]
            profiles = daemon.profiles.snapshot()
            assert ran and len(profiles) == 1
            (profile,) = profiles.values()
            assert profile["counts"]["execute_s"] == len(ran)
            assert profile["counts"]["queue_wait_s"] == len(ran)
