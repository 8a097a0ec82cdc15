"""Session facade: one JobSpec through every backend, push-based waits."""

import pytest
from specutil import build_federation, build_three_backends, make_daemon, make_program

from repro.daemon.cloud import CloudGateway
from repro.errors import DaemonError, FederationError, PlacementError, SpecError
from repro.runtime.results import RunResult
from repro.session import Session
from repro.simkernel import RngRegistry
from repro.spec import JobSpec


def drive(sim, generator):
    return sim.run_until_process(sim.spawn(generator))


class TestBackendChoice:
    def test_plain_spec_prefers_daemon(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(
            daemon=daemon, federation=broker, cloud=gateway, cloud_api_key=key
        )
        assert session.backend_for(JobSpec(program=make_program())) == "daemon"

    def test_federation_shapes_route_to_broker(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon, federation=broker)
        for spec in (
            JobSpec(program=make_program(), iterations=3),
            JobSpec(program=make_program(), sites=("site-0",)),
            JobSpec(program=make_program(), pin="site-0/onprem"),
            JobSpec(program=make_program(), resource="site-1/onprem"),
        ):
            assert session.backend_for(spec) == "federation"

    def test_federation_shape_without_broker_raises(self):
        sim, daemon, *_ = build_three_backends()
        session = Session(daemon=daemon)
        with pytest.raises(SpecError, match="no federation"):
            session.backend_for(JobSpec(program=make_program(), iterations=2))

    def test_session_needs_a_backend_and_cloud_needs_key(self):
        with pytest.raises(DaemonError, match="at least one backend"):
            Session()
        sim, daemon, broker, gateway, key = build_three_backends()
        with pytest.raises(DaemonError, match="cloud_api_key"):
            Session(cloud=gateway)

    def test_submit_rejects_bare_programs(self):
        sim, daemon, *_ = build_three_backends()
        with pytest.raises(SpecError, match="JobSpec"):
            Session(daemon=daemon).submit(make_program())

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"shots": 0}, "shots must be >= 1"),
            ({"tenant": ""}, "tenant must be a non-empty string"),
            ({"algorithm": "warp-drive"}, "unknown scheduling algorithm"),
        ],
    )
    def test_daemon_bound_spec_refused_at_rest_raises_spec_error(self, fields, message):
        # validated once, by the daemon's REST intake; the client
        # re-raises its refusal as the SpecError an in-process intake raises
        sim, daemon, *_ = build_three_backends()
        spec = JobSpec(program=make_program(), resource="onprem", **fields)
        with pytest.raises(SpecError, match=message):
            Session(daemon=daemon).submit(spec)
        assert daemon.queue.queued_count() == 0


class TestOneSpecThreeBackends:
    def test_same_spec_submits_through_all_three(self):
        """The acceptance path: a single JobSpec instance flows to the
        laptop daemon, the federation broker, and the cloud gateway
        unchanged, and every door returns the uniform RunResult."""
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(
            daemon=daemon,
            federation=broker,
            cloud=gateway,
            cloud_api_key=key,
            user="alice",
        )
        spec = JobSpec(program=make_program(shots=60), shots=60)
        handles = [
            session.submit(spec, backend=backend)
            for backend in ("daemon", "federation", "cloud")
        ]
        results = [drive(sim, h.wait()) for h in handles]
        for handle, result in zip(handles, results, strict=True):
            assert isinstance(result, RunResult)
            assert result.shots == 60
            assert sum(result.counts.values()) == 60
            assert handle.done()
        # all three executed the same physics
        hashes = {r.program_hash for r in results}
        assert len(hashes) == 1
        assert handles[0].backend == "daemon"
        assert handles[1].job_id.startswith("fed-job-")
        assert handles[2].backend == "cloud"

    def test_multi_unit_spec_through_session(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon, federation=broker)
        spec = JobSpec(
            program=make_program(shots=20),
            sites=("site-0", "site-1"),
            iterations=4,
        )
        handle = session.submit(spec)
        assert handle.backend == "federation"
        assert handle.job_id.startswith("fed-mjob-")
        result = drive(sim, handle.wait())
        assert result.shots == 4 * 20
        assert handle.status()["state"] == "completed"

    def test_multi_unit_specs_rejected_at_fixed_size_doors(self):
        """DaemonClient and CloudGateway run fixed-size tasks — a
        declared multi-unit spec must fail loudly there, never collapse
        to one task."""
        import pytest as _pytest

        from repro.errors import ValidationError

        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon, cloud=gateway, cloud_api_key=key)
        multi = JobSpec(program=make_program(), iterations=4, resource="onprem")
        with _pytest.raises(ValidationError, match="multi-unit"):
            session.submit(multi, backend="daemon")
        with _pytest.raises(DaemonError, match="multi-unit"):
            gateway.submit(key, multi)

    def test_daemon_session_reopens_after_idle_expiry(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon)
        first = session.submit(JobSpec(program=make_program(shots=10)))
        sim.run(until=60.0)
        assert first.done()  # fetched while its session is live
        sim.run(until=5000.0)  # past the daemon's 3600 s idle timeout
        # a fresh submission must transparently reopen a session
        second = session.submit(JobSpec(program=make_program(shots=10)))
        sim.run(until=5100.0)
        assert second.done()

    def test_each_spec_priority_class_gets_its_own_daemon_session(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon)
        dev = session.submit(
            JobSpec(program=make_program(), priority_class="development")
        )
        prod = session.submit(
            JobSpec(program=make_program(), priority_class="production")
        )
        assert dev.status()["priority"] == "development"
        assert prod.status()["priority"] == "production"
        sim.run(until=120.0)
        assert dev.done() and prod.done()

    def test_runtime_rejects_declared_multi_without_site_legs(self):
        """A spec declaring iterations must never silently run as one
        fixed execution through the runtime environment."""
        from repro import RuntimeEnvironment
        from repro.config import DictConfig
        from repro.errors import TaskError

        env = RuntimeEnvironment.from_config(
            DictConfig(
                {
                    "QRMI_RESOURCES": "emu",
                    "QRMI_EMU_TYPE": "local-emulator",
                    "QRMI_EMU_EMULATOR": "emu-sv",
                }
            )
        )
        spec = JobSpec(program=make_program(), iterations=3)
        with pytest.raises(TaskError, match="multi-unit"):
            env.run(spec)
        with pytest.raises(TaskError, match="iterations"):
            next(env.run_process(spec))

    def test_tenant_defaults_to_session_user(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(federation=broker, user="carol")
        handle = session.submit(JobSpec(program=make_program()))
        assert broker.job(handle.job_id).owner == "carol"


class TestPushWait:
    def test_wait_wakes_on_pushed_event_without_heartbeat_polls(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon, federation=broker)
        session.attach_events()
        spec = JobSpec(program=make_program(shots=30))
        handle = session.submit(spec, backend="federation")
        reads = []
        status = handle.status
        handle.status = lambda: reads.append(sim.now) or status()
        result = drive(sim, handle.wait())
        assert result.shots == 30
        # one read at the start; only the pushed terminal event woke it
        assert reads == [0.0]
        job = broker.job(handle.job_id)
        site_daemon = broker.registry.site(job.current.site).daemon
        task = site_daemon.queue.get(job.current.task_id)
        assert job.finished_at == task.finished_at == sim.now

    def test_federated_wait_completes_at_the_push_without_housekeeping(self):
        """No reconcile sweep runs: the pushed terminal task transition
        itself completes the fixed-size job and wakes the waiter."""
        sim, registry, broker, sites = build_federation(housekeeping=None)
        session = Session(federation=broker)
        handle = session.submit(JobSpec(program=make_program(shots=30)))
        assert drive(sim, handle.wait()).shots == 30
        job = broker.job(handle.job_id)
        task = sites[job.current.site].daemon.queue.get(job.current.task_id)
        assert job.finished_at == task.finished_at == sim.now

    def test_multi_unit_wait_completes_at_the_last_push_without_housekeeping(self):
        """A rigid 4-unit spec splits 2 + 2 over 2 sites x 2 slots, so
        every unit dispatches at intake; each lands at its own pushed
        transition, and the last one completes the job and wakes the
        waiter — no sweep runs."""
        sim, registry, broker, sites = build_federation(housekeeping=None)
        session = Session(federation=broker)
        spec = JobSpec(program=make_program(shots=30), iterations=4, malleable=False)
        handle = session.submit(spec)
        result = sim.run_until_process(sim.spawn(handle.wait()), max_events=5000)
        assert result.shots == 4 * 30
        job = broker.job(handle.job_id)
        finished = [
            sites[d.site].daemon.queue.get(d.task_id).finished_at for d in job.placements
        ]
        assert len(finished) == 4
        assert job.finished_at == max(finished) == sim.now

    def test_wait_that_needs_a_sweep_raises_without_housekeeping(self, process_failures):
        """8 units on 4 slots: half wait in the pool for a sweep that
        never runs, so the wait fails loudly instead of hanging."""
        sim, registry, broker, sites = build_federation(housekeeping=None)
        # the wait raises at spawn, before run_until_process drives it
        process_failures(sim, 1)
        session = Session(federation=broker)
        handle = session.submit(JobSpec(program=make_program(shots=30), iterations=8))
        with pytest.raises(FederationError, match="spawn_housekeeping"):
            sim.run_until_process(sim.spawn(handle.wait()), max_events=5000)

    def test_unit_lost_mid_wait_raises_without_housekeeping(self):
        """Both units on site-1 go back to the pool when it dies; only a
        sweep could dispatch them again, so the armed wait re-checks at
        the reroute and fails loudly."""
        sim, registry, broker, sites = build_federation(housekeeping=None)
        session = Session(federation=broker)
        spec = JobSpec(program=make_program(shots=30), iterations=4, malleable=False)
        handle = session.submit(spec)
        sim.call_in(1.0, sites["site-1"].kill)
        with pytest.raises(FederationError, match="units left to dispatch"):
            sim.run_until_process(sim.spawn(handle.wait()), max_events=5000)
        assert sim.now == 1.0

    @pytest.mark.parametrize("housekeeping", [None, 15.0])
    def test_fixed_wait_ends_when_its_reroute_fails_the_job(self, housekeeping):
        """One site, killed mid-run: the reroute finds no other site and
        fails the job in the same step, after the waiter was woken by
        ``job_rerouted``; the wait reads the failed state and ends."""
        sim, registry, broker, sites = build_federation(n_sites=1, housekeeping=housekeeping)
        session = Session(federation=broker)
        handle = session.submit(JobSpec(program=make_program(shots=30)))
        sim.call_in(1.0, sites["site-0"].kill)
        with pytest.raises(PlacementError, match="failed"):
            sim.run_until_process(sim.spawn(handle.wait()), max_events=5000)
        assert sim.now == 1.0
        assert broker.job(handle.job_id).attempts == 1

    @pytest.mark.parametrize("housekeeping", [None, 15.0])
    def test_ledger_wait_ends_when_a_lost_unit_exhausts_its_attempts(self, housekeeping):
        """With one attempt per unit, the first unit site-1 loses fails
        the job right after its ``job_rerouted``; the wait ends."""
        sim, registry, broker, sites = build_federation(
            housekeeping=housekeeping, max_attempts=1
        )
        session = Session(federation=broker)
        spec = JobSpec(program=make_program(shots=30), iterations=4, malleable=False)
        handle = session.submit(spec)
        sim.call_in(1.0, sites["site-1"].kill)
        with pytest.raises(PlacementError, match="exhausted 1 placement attempts"):
            sim.run_until_process(sim.spawn(handle.wait()), max_events=5000)
        assert sim.now == 1.0

    def test_client_run_process_ends_when_its_reroute_fails_the_job(self):
        """A fixed job submitted and waited for from one process: the
        reroute that fails it ends the wait, with no sweep running."""
        sim, registry, broker, sites = build_federation(n_sites=1, housekeeping=None)
        session = Session(federation=broker, user="fed-user")

        def submit_and_wait():
            return (yield from session.submit(JobSpec(program=make_program(shots=30))).wait())

        sim.call_in(1.0, sites["site-0"].kill)
        with pytest.raises(PlacementError, match="failed"):
            sim.run_until_process(sim.spawn(submit_and_wait()), max_events=5000)
        assert sim.now == 1.0

    def test_heartbeat_lapse_without_housekeeping_reroutes_at_the_push(self):
        """Site-0 stops heartbeating but keeps running, and nothing is
        pushed when its heartbeat expires: with no sweep the task stays
        there, and its pushed completion finds the site unhealthy,
        reroutes the job to site-1 and the wait ends at that push."""
        sim, registry, broker, sites = build_federation(housekeeping=None)
        session = Session(federation=broker)
        # 100 s of shots: longer than the 60 s heartbeat expiry
        handle = session.submit(JobSpec(program=make_program(shots=1000)))
        job = broker.job(handle.job_id)
        lapsed = job.current.site
        beat = registry.heartbeat
        registry.heartbeat = lambda name, now: None if name == lapsed else beat(name, now)
        result = sim.run_until_process(sim.spawn(handle.wait()), max_events=5000)
        assert result.shots == 1000
        assert job.attempts == 2
        assert job.placements[0].site == lapsed
        assert job.placements[0].abandon_reason == f"site {lapsed} unhealthy"
        assert job.current.site != lapsed
        task = sites[job.current.site].daemon.queue.get(job.current.task_id)
        assert job.finished_at == task.finished_at == sim.now

    def test_daemon_backend_push_wait(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(daemon=daemon)
        session.attach_events()
        handle = session.submit(JobSpec(program=make_program(shots=30)))
        result = drive(sim, handle.wait())
        assert result.shots == 30
        assert handle.status()["finished_at"] == sim.now

    def test_on_delivers_job_events(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(federation=broker)
        session.attach_events()
        handle = session.submit(JobSpec(program=make_program()))
        seen = []
        handle.on(lambda ev: seen.append(ev.kind))
        sim.run(until=300.0)
        assert handle.done()
        assert "job_completed" in seen

    def test_on_needs_no_attach_events(self):
        """A session joins its bus at construction: handles subscribe
        without any opt-in call."""
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(federation=broker)
        assert session.events is broker.events
        assert session.attach_events() is session.events
        handle = session.submit(JobSpec(program=make_program()))
        seen = []
        handle.on(lambda ev: seen.append(ev.kind), kinds=("job_completed",))
        sim.run(until=300.0)
        assert seen == ["job_completed"]

    def test_task_id_collisions_across_daemons_stay_separated(self):
        """Every daemon numbers tasks mw-task-N; a handle's
        subscriptions must not hear a same-numbered task on another
        backend's queue."""
        sim, daemon, broker, gateway, key = build_three_backends()
        session = Session(
            daemon=daemon, federation=broker, cloud=gateway, cloud_api_key=key
        )
        session.attach_events()
        local = session.submit(JobSpec(program=make_program(shots=10)))
        cloud = session.submit(
            JobSpec(program=make_program(shots=10)), backend="cloud"
        )
        assert local.job_id == cloud.job_id == "mw-task-1"  # the collision
        seen = []
        local.on(lambda ev: seen.append(ev.site), kinds=("completed",))
        sim.run(until=120.0)
        assert local.done() and cloud.done()
        assert seen == ["local"]  # the cloud twin never leaked through

    def test_shared_daemon_not_double_attached(self):
        """One MiddlewareDaemon serving as both local daemon and cloud
        backend publishes each transition once."""
        sim, daemon, broker, gateway, key = build_three_backends()
        shared_gateway_daemon = gateway.daemon
        session = Session(
            daemon=shared_gateway_daemon, cloud=gateway, cloud_api_key=key
        )
        bus = session.attach_events()
        events = []
        bus.subscribe(lambda ev: events.append(ev))
        handle = session.submit(JobSpec(program=make_program(shots=10)))
        sim.run(until=60.0)
        queued = [e for e in events if e.kind == "queued" and e.job_id == handle.job_id]
        assert len(queued) == 1


class TestOnePublisherPerDaemon:
    """Each daemon publishes its queue's transitions once, onto the one
    bus its sessions listen on, whatever the number of sessions."""

    @staticmethod
    def record(bus):
        events = []
        bus.subscribe(events.append)
        return events

    def test_sixteen_sessions_on_one_daemon_publish_each_transition_once(self):
        sim, daemon, *_ = build_three_backends()
        sessions = [Session(daemon=daemon, user=f"user-{u:02d}") for u in range(16)]
        buses = {id(s.events): s.events for s in sessions}
        assert list(buses.values()) == [daemon.events]
        events = self.record(daemon.events)
        handles = [
            s.submit(JobSpec(program=make_program(shots=10))) for s in sessions
        ]
        results = [drive(sim, h.wait()) for h in handles]
        assert all(r.shots == 10 for r in results)
        for handle in handles:
            kinds = [e.kind for e in events if e.job_id == handle.job_id]
            assert kinds.count("queued") == 1
            assert kinds[-1] == "completed"
        # queued, running, completed: the shot-cap daemon never preempts
        transitions = 3 * len(handles)
        assert daemon.events.published == transitions == len(events)

    def test_federation_session_moves_its_local_daemon_onto_the_broker_bus(self):
        sim, daemon, broker, *_ = build_three_backends()
        session = Session(daemon=daemon, federation=broker)
        assert session.events is broker.events is daemon.events
        assert daemon.site == "local"
        events = self.record(broker.events)
        local = session.submit(JobSpec(program=make_program(shots=10)))
        fed = session.submit(
            JobSpec(program=make_program(shots=10)), backend="federation"
        )
        drive(sim, local.wait())
        drive(sim, fed.wait())
        local_kinds = [
            e.kind for e in events if e.site == "local" and e.job_id == local.job_id
        ]
        assert local_kinds == ["queued", "running", "completed"]
        assert [e.kind for e in events if e.job_id == fed.job_id][-1] == "job_completed"
        # a second session over the same pair relabels nothing
        Session(daemon=daemon, federation=broker)
        assert daemon.events is broker.events and daemon.site == "local"

    def test_a_federated_site_daemon_keeps_its_site_label(self):
        sim, _, broker, *_ = build_three_backends()
        site_daemon = broker.registry.site("site-0").daemon
        session = Session(daemon=site_daemon, federation=broker)
        assert site_daemon.site == "site-0"
        handle = session.submit(JobSpec(program=make_program(shots=10)))
        seen = []
        handle.on(lambda ev: seen.append((ev.site, ev.kind)), kinds=("completed",))
        assert drive(sim, handle.wait()).shots == 10
        assert seen == [("site-0", "completed")]

    def test_shared_local_and_cloud_daemon_publishes_once_under_one_label(self):
        sim, _, broker, gateway, key = build_three_backends()
        shared = gateway.daemon
        session = Session(
            daemon=shared, federation=broker, cloud=gateway, cloud_api_key=key
        )
        assert shared.events is broker.events and shared.site == "local"
        events = self.record(broker.events)
        local = session.submit(JobSpec(program=make_program(shots=10)))
        cloud = session.submit(
            JobSpec(program=make_program(shots=10)), backend="cloud"
        )
        drive(sim, local.wait())
        drive(sim, cloud.wait())
        for handle in (local, cloud):
            queued = [
                e for e in events if e.kind == "queued" and e.job_id == handle.job_id
            ]
            assert [e.site for e in queued] == ["local"]

    def test_a_daemon_others_listen_on_is_never_pulled_onto_another_bus(self):
        sim, daemon, broker, *_ = build_three_backends()
        site_daemon = broker.registry.site("site-1").daemon
        gateway = CloudGateway(site_daemon)
        key = gateway.provision_tenant("lab")
        with pytest.raises(DaemonError, match="others use"):
            Session(daemon=daemon, cloud=gateway, cloud_api_key=key)
        assert site_daemon.events is broker.events
        assert site_daemon.site == "site-1"

    def test_two_local_daemons_never_share_a_label_on_one_broker(self):
        """Every daemon numbers its tasks mw-task-N: a second daemon
        under "local" on the broker's bus would wake the first one's
        waiters."""
        sim, daemon, broker, *_ = build_three_backends()
        other = make_daemon(sim, RngRegistry(1), "other")
        Session(daemon=daemon, federation=broker)
        with pytest.raises(DaemonError, match="'local' is taken"):
            Session(daemon=other, federation=broker)
        assert other.events is other.home_events and other.site == "local"
        assert broker.events.publishers == {
            "site-0": broker.registry.site("site-0").daemon,
            "site-1": broker.registry.site("site-1").daemon,
            "local": daemon,
        }

    def test_a_gateway_daemon_another_session_moved_stays_on_that_bus(self):
        sim, daemon, broker, gateway, key = build_three_backends()
        first = Session(daemon=daemon, cloud=gateway, cloud_api_key=key)
        assert gateway.daemon.events is daemon.events
        assert gateway.daemon.site == "cloud"
        other = make_daemon(sim, RngRegistry(1), "other")
        with pytest.raises(DaemonError, match="others use"):
            Session(daemon=other, cloud=gateway, cloud_api_key=key)
        assert gateway.daemon.events is daemon.events
        handle = first.submit(JobSpec(program=make_program(shots=10)), backend="cloud")
        assert drive(sim, handle.wait()).shots == 10
