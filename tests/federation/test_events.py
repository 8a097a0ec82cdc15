"""LifecycleBus: push-based task tracking and its one delivery contract."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fedutil import build_federation, make_program
from repro.federation.events import JobEvent, LifecycleBus
from repro.spec import JobSpec


class TestBusUnit:
    def _event(self, kind="completed", job_id="j1"):
        return JobEvent(time=1.0, kind=kind, job_id=job_id)

    def test_filters_and_unsubscribe(self):
        bus = LifecycleBus()
        seen = []
        all_handle = bus.subscribe(lambda ev: seen.append(("all", ev.kind)))
        bus.subscribe(
            lambda ev: seen.append(("j1", ev.kind)), job_id="j1", kinds=("completed",)
        )
        bus.publish(self._event("running", "j1"))
        bus.publish(self._event("completed", "j1"))
        bus.publish(self._event("completed", "j2"))
        assert seen == [
            ("all", "running"),
            ("all", "completed"),
            ("j1", "completed"),
            ("all", "completed"),
        ]
        bus.unsubscribe(all_handle)
        bus.publish(self._event("completed", "j2"))
        assert len(seen) == 4
        assert bus.published == 4

    def test_subscriber_exceptions_are_isolated(self, bus_drops):
        bus = LifecycleBus()
        seen = []

        def broken(ev):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        bus.subscribe(lambda ev: seen.append(ev.kind))
        bus.publish(self._event())
        assert seen == ["completed"]
        assert bus.dropped == 1
        bus_drops(bus, 1)


class TestSitePublishing:
    def test_task_transitions_flow_onto_bus(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        bus = broker.events
        kinds = []
        bus.subscribe(lambda ev: kinds.append((ev.site, ev.kind)))
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=30), shots=30))
        sim.run(until=120.0)
        assert broker.status(job_id)["state"] == "completed"
        site = broker.job(job_id).current.site
        site_kinds = [
            k for s, k in kinds if s == site and not k.startswith("job_")
        ]
        assert site_kinds[:2] == ["queued", "running"]
        assert "completed" in site_kinds

    def test_broker_job_lifecycle_events(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        bus = broker.events
        seen = []
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=30), shots=30))
        bus.subscribe(lambda ev: seen.append(ev.kind), job_id=job_id)
        sim.run(until=120.0)
        assert "job_completed" in seen

    def test_attach_is_idempotent_and_covers_late_joiners(self):
        from repro.federation import FederatedSite

        sim, registry, broker, sites = build_federation(n_sites=1)
        bus = broker.events
        # re-attaching a site to the same bus must not double-publish
        sites["site-0"].attach_bus(bus)
        # a site registered after the broker was built publishes too
        from repro.daemon import MiddlewareDaemon
        from repro.qpu import QPUDevice, ShotClock
        from repro.qrmi import OnPremQPUResource
        from repro.simkernel import RngRegistry

        rng = RngRegistry(9)
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
            rng=rng.get("late"),
        )
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0
        )
        late = FederatedSite("late-site", daemon, max_queue_depth=4)
        registry.register(late, now=sim.now)
        seen = []
        bus.subscribe(lambda ev: seen.append((ev.site, ev.kind)))
        broker.submit_spec(JobSpec(program=make_program(shots=10), shots=10, pin="late-site/onprem"))
        broker.submit_spec(JobSpec(program=make_program(shots=10), shots=10, pin="site-0/onprem"))
        sim.run(until=120.0)
        assert ("late-site", "completed") in seen
        assert seen.count(("site-0", "queued")) == 1


class TestPushReplacesPolling:
    def test_failover_still_works_under_push(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, heartbeat_expiry=40.0
        )
        # saturate nothing; kill the site the job lands on mid-flight
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=400), shots=400))
        first_site = broker.job(job_id).current.site
        sim.run(until=5.0)
        sites[first_site].kill()
        sim.run(until=600.0)
        job = broker.job(job_id)
        assert job.state.value == "completed"
        assert job.current.site != first_site


class TestDeliveryOrder:
    def test_reentrant_publish_is_delivered_in_publish_order(self):
        """A subscriber publishing while it handles e1 must not let its
        e2 overtake e1 at a later subscriber: B hears [e1, e2]."""
        bus = LifecycleBus()
        e1 = JobEvent(time=0.0, kind="queued", job_id="j")
        e2 = JobEvent(time=0.0, kind="running", job_id="j")
        seen_by_b = []

        def a(event):
            if event is e1:
                bus.publish(e2)

        bus.subscribe(a)
        bus.subscribe(seen_by_b.append)
        bus.publish(e1)
        assert seen_by_b == [e1, e2]


_events = st.lists(
    st.builds(
        JobEvent,
        time=st.just(0.0),
        kind=st.sampled_from(("queued", "running", "completed", "job_placed")),
        job_id=st.sampled_from(("job-a", "job-b", "job-c")),
        site=st.sampled_from(("", "site-0", "site-1")),
        task_id=st.sampled_from(("", "t-1", "t-2")),
    ),
    min_size=1,
    max_size=40,
)

#: the four subscriber filter classes
_FILTERS = {
    "wildcard": {},
    "by_job": {"job_id": "job-a"},
    "by_kind": {"kinds": ("completed", "job_placed")},
    "by_site": {"job_id": "job-b", "site": "site-0"},
}


def _matches(event, job_id=None, kinds=None, site=None):
    return (
        (job_id is None or event.job_id == job_id)
        and (kinds is None or event.kind in kinds)
        and (site is None or event.site == site)
    )


@settings(max_examples=150)
@given(_events, st.sampled_from(sorted(_FILTERS)))
def test_every_subscriber_hears_its_events_in_global_publish_order(
    events, echo_after
):
    """Random events, the four filter classes, and one re-entrant
    publisher that answers each ``queued`` with a ``running`` for the
    same task: every subscriber receives exactly its matching events,
    in global publish order."""
    bus = LifecycleBus()
    published: list[JobEvent] = []
    received = {name: [] for name in _FILTERS}

    def echo(event):
        if event.kind == "queued":
            publish(
                JobEvent(
                    time=event.time, kind="running", job_id=event.job_id,
                    site=event.site, task_id=event.task_id,
                )
            )

    def publish(event):
        published.append(event)
        bus.publish(event)

    # the echo sits between subscribers, so some hear each event
    # before it publishes and some after
    for name in sorted(_FILTERS):
        bus.subscribe(received[name].append, **_FILTERS[name])
        if name == echo_after:
            bus.subscribe(echo)
    for event in events:
        publish(event)

    assert bus.published == len(published)
    for name, filters in _FILTERS.items():
        expected = [e for e in published if _matches(e, **filters)]
        assert [id(e) for e in received[name]] == [id(e) for e in expected], name
