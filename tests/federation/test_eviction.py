"""Terminal-job eviction: broker memory stays bounded, history spills
to the accounting archive."""

import pytest
from fedutil import build_federation, make_program

from repro.accounting import FederationAccounting, SiteRateCard
from repro.errors import PlacementError
from repro.spec import JobSpec


def accounted_broker(n_sites=2):
    sim, registry, broker, sites = build_federation(n_sites=n_sites)
    accounting = FederationAccounting()
    for name in registry.names():
        accounting.publish_rate_card(SiteRateCard(site=name))
    broker.accounting = accounting
    return sim, broker, sites, accounting


class TestEvictTerminal:
    def test_expired_terminal_records_leave_memory(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        ids = [broker.submit_spec(JobSpec(program=make_program(shots=20), shots=20)) for _ in range(4)]
        sim.run(until=300.0)
        assert all(broker.status(j)["state"] == "completed" for j in ids)
        assert broker.evict_terminal(ttl=10_000.0) == 0  # too young
        assert broker.stats()["jobs"] == 4
        sim.run(until=1000.0)
        assert broker.evict_terminal(ttl=500.0) == 4
        assert broker.stats()["jobs"] == 0
        assert broker.stats()["evicted"] == 4
        assert broker.stats()["by_state"]["completed"] == 0
        with pytest.raises(PlacementError, match="unknown"):
            broker.job(ids[0])

    def test_live_jobs_survive_eviction(self):
        sim, registry, broker, sites = build_federation(n_sites=2)
        done = broker.submit_spec(JobSpec(program=make_program(shots=10), shots=10))
        sim.run(until=300.0)
        live = broker.submit_spec(JobSpec(program=make_program(shots=1000), shots=1000))
        assert broker.evict_terminal(ttl=0.0) == 1
        assert broker.status(live)["state"] == "placed"
        assert broker.job(live).job_id == live
        assert done not in [j.job_id for j in broker.jobs()]

    def test_spills_to_accounting_archive(self):
        sim, broker, sites, accounting = accounted_broker()
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=25), shots=25, tenant="alice"))
        sim.run(until=300.0)
        assert broker.status(job_id)["state"] == "completed"
        broker.evict_terminal(ttl=0.0)
        records = accounting.archived_jobs("alice")
        assert len(records) == 1
        record = records[0]
        assert record["job_id"] == job_id
        assert record["state"] == "completed"
        assert record["shots"] == 25
        assert record["site"] in sites
        assert record["finished_at"] is not None

    def test_malleable_terminal_records_evict_too(self):
        sim, broker, sites, accounting = accounted_broker()
        job_id = broker.submit_spec(
            JobSpec(program=make_program(shots=10), iterations=4, shots=10, tenant="bob")
        )
        sim.run(until=600.0)
        assert broker.status(job_id)["state"] == "completed"
        assert broker.evict_terminal(ttl=0.0) == 1
        assert broker.stats()["malleable_jobs"] == 0
        (record,) = accounting.archived_jobs("bob")
        assert record["units"] == 4
        assert record["completed_units"] == 4
        assert sum(record["completions_by_site"].values()) == 4

    def test_housekeeping_evicts_on_cadence(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, heartbeat_interval=15.0
        )
        # replace default housekeeping with an evicting one (the
        # fedutil builder already spawned one without eviction)
        broker.spawn_housekeeping(interval=20.0, evict_ttl=100.0)
        ids = [broker.submit_spec(JobSpec(program=make_program(shots=10), shots=10)) for _ in range(3)]
        sim.run(until=60.0)
        assert broker.stats()["by_state"]["completed"] == 3
        sim.run(until=400.0)
        assert broker.stats()["jobs"] == 0
        assert broker.stats()["evicted"] == 3
        assert ids  # records gone, ids were stable while they lived

    def test_negative_ttl_rejected(self):
        sim, registry, broker, sites = build_federation(n_sites=1)
        with pytest.raises(PlacementError, match=">= 0"):
            broker.evict_terminal(ttl=-1.0)

    def test_failed_jobs_evict_with_error_preserved(self):
        sim, broker, sites, accounting = accounted_broker(n_sites=1)
        job_id = broker.submit_spec(
            JobSpec(
                program=make_program(n_atoms=3, shots=10),
                shots=10,
                tenant="carol",
                pin="site-0/nonexistent",
            ),
        )
        job = broker.job(job_id)
        assert job.state.value == "failed"
        assert job.finished_at is not None
        broker.evict_terminal(ttl=0.0)
        (record,) = accounting.archived_jobs("carol")
        assert record["state"] == "failed"
        assert "pinned resource" in record["error"]
