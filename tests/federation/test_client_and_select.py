"""FederatedClient surface + federation-aware resource selection."""

import pytest

from repro.errors import ResourceNotFound
from repro.federation import FederatedClient, JobState
from repro.runtime import RuntimeEnvironment
from repro.runtime.backend_select import select_resource
from repro.session import Session
from repro.simkernel import Timeout
from repro.spec import JobSpec

from fedutil import build_federation, make_program


class TestFederatedClient:
    def test_submit_status_result_roundtrip(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        client = FederatedClient(broker, user="alice")
        job_id = client.submit_spec(JobSpec(program=make_program(), shots=25))
        sim.run(until=120.0)
        status = client.status(job_id)
        assert status["state"] == "completed"
        result = client.result(job_id)
        assert sum(result.counts.values()) == 25
        assert result.metadata["federation_site"] == status["site"]
        assert result.metadata["federation_attempts"] == 1
        assert result.shots == 25

    def test_broker_result_refuses_edits(self):
        """The broker holds the site daemon's own result object; its
        metadata is read-only, so the site's job metadata cannot pick
        up an edit made through ``broker.result``."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        job_id = broker.submit_spec(JobSpec(program=make_program(), shots=25))
        sim.run(until=120.0)
        result = broker.result(job_id)
        with pytest.raises(TypeError):
            result.metadata["edited"] = True
        placement = broker.job(job_id).current
        record = sites[placement.site].daemon.jobmeta.get(placement.task_id)
        assert "edited" not in record.diagnostics
        assert "edited" not in FederatedClient(broker, user="alice").result(job_id).metadata

    def test_resources_aggregates_sites(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        client = FederatedClient(broker)
        assert client.resources() == {
            "site-0/onprem": "onprem-qpu",
            "site-1/onprem": "onprem-qpu",
        }

    def test_run_process_inside_simulation(self):
        """Submit and wait from a simulated job: one Session, one handle."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        session = Session(federation=broker, user="loop-user")
        outcome = {}

        def hybrid():
            handle = session.submit(JobSpec(program=make_program(), shots=20))
            result = yield from handle.wait()
            assert broker.job(handle.job_id).owner == "loop-user"
            outcome["shots"] = result.shots
            yield Timeout(1.0)

        sim.spawn(hybrid(), name="hybrid-user")
        sim.run(until=300.0)
        assert outcome["shots"] == 20

    def test_sticky_affinity_flows_through(self):
        from repro.federation import StickyPolicy

        sim, registry, broker, sites = build_federation(
            n_sites=3, policy=StickyPolicy()
        )
        client = FederatedClient(broker)
        ids = [
            client.submit_spec(JobSpec(program=make_program(), shots=10, affinity_key="sqd"))
            for _ in range(3)
        ]
        sim.run(until=300.0)
        assert len({broker.job(i).placements[0].site for i in ids}) == 1
        assert all(broker.job(i).state is JobState.COMPLETED for i in ids)


class TestFederationAwareSelection:
    def test_empty_local_catalog_falls_through_to_federation(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        name = select_resource({}, federation=broker)
        assert name == "site-0/onprem"  # preference order over the remote catalog

    def test_requested_resolves_remotely_when_local_empty(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        name = select_resource({}, requested="site-1/onprem", federation=broker)
        assert name == "site-1/onprem"

    def test_local_catalog_still_wins(self):
        """The 3-step local resolution order is untouched."""
        sim, registry, broker, sites = build_federation(n_sites=1)
        available = {"emu": "local-emulator"}
        assert select_resource(available, federation=broker) == "emu"
        with pytest.raises(ResourceNotFound):
            # explicit request for a missing local name never silently
            # reroutes to the federation when a local catalog exists
            select_resource(available, requested="nope", federation=broker)

    def test_empty_everything_still_raises(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        for site in sites.values():
            site.kill()
        with pytest.raises(ResourceNotFound):
            select_resource({}, federation=broker)

    def test_runtime_environment_passes_federation_handle(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        env = RuntimeEnvironment(resources={}, session=Session(federation=broker, user="fed-user"))
        assert env.resolve() == "site-0/onprem"


class TestFederatedRuntimeExecution:
    def test_run_process_executes_through_the_federation(self):
        """Empty local catalog + federation handle: run_process works
        end to end, not just resolve()."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        env = RuntimeEnvironment(resources={}, session=Session(federation=broker, user="fed-user"))
        outcome = {}

        def user_job():
            result = yield from env.run_process(make_program(), shots=15)
            outcome["result"] = result

        sim.spawn(user_job(), name="federated-user")
        sim.run(until=300.0)
        assert sum(outcome["result"].counts.values()) == 15
        assert "federation_site" in outcome["result"].metadata

    def test_fetch_target_falls_through_to_federation(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        env = RuntimeEnvironment(resources={}, session=Session(federation=broker, user="fed-user"))
        target = env.fetch_target("site-0/onprem")
        assert target["max_qubits"] > 0

    def test_synchronous_run_gives_actionable_error(self):
        from repro.errors import TaskError

        sim, registry, broker, sites = build_federation(n_sites=1)
        env = RuntimeEnvironment(resources={}, session=Session(federation=broker, user="fed-user"))
        with pytest.raises(TaskError, match="run_process"):
            env.run(make_program(), shots=10)


class TestExplicitFederatedRequests:
    def test_run_process_honors_the_requested_site(self):
        """--qpu contract: an explicit site/resource runs exactly there,
        not wherever the routing policy would send it."""
        sim, registry, broker, sites = build_federation(n_sites=2)
        env = RuntimeEnvironment(resources={}, session=Session(federation=broker, user="fed-user"))
        outcome = {}

        def user_job():
            result = yield from env.run_process(
                make_program(), shots=10, qpu="site-1/onprem"
            )
            outcome["site"] = result.metadata["federation_site"]

        sim.spawn(user_job(), name="explicit-user")
        sim.run(until=300.0)
        assert outcome["site"] == "site-1"

    def test_mixed_catalog_resolves_remote_names(self):
        """A non-empty local catalog must not shadow an explicitly
        requested federated resource (local names still win)."""
        sim, registry, broker, sites = build_federation(n_sites=1)
        available = {"emu": "local-emulator"}
        assert select_resource(available, requested="site-0/onprem", federation=broker) == "site-0/onprem"
        assert select_resource(available, env_default="site-0/onprem", federation=broker) == "site-0/onprem"
        # local name of the same spelling would win, and preference
        # ordering over a non-empty local catalog is unchanged
        assert select_resource(available, federation=broker) == "emu"

    def test_pinned_job_fails_instead_of_rerouting(self):
        from repro.errors import PlacementError

        sim, registry, broker, sites = build_federation(n_sites=2)
        sites["site-1"].kill()
        job_id = broker.submit_spec(JobSpec(program=make_program(), shots=10, pin="site-1/onprem"))
        status = broker.status(job_id)
        assert status["state"] == "failed"
        assert "site-1" in broker.job(job_id).error
        with pytest.raises(PlacementError):
            broker.submit_spec(JobSpec(program=make_program(), shots=10, pin="not-qualified"))
