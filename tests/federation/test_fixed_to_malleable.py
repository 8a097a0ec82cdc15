"""Fixed→malleable conversion on saturation + agreement-based slot
arbitration — the elastic half of the pluggable algorithm suite."""

import sys
from pathlib import Path

from fedutil import build_federation, make_program
from repro.federation import FederatedClient, JobState
from repro.federation.malleable import ResizeConfig
from repro.scheduling.algorithms import EasyBackfill
from repro.session import Session
from repro.spec import JobSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "accounting"))

from acctutil import build_accounted_federation, make_accounting  # noqa: E402


def _saturate(broker, sites, per_site):
    """Fill every site's queue to its max depth with fixed jobs."""
    for _ in range(per_site * len(sites)):
        broker.submit_spec(JobSpec(program=make_program(shots=200)))


class TestFixedToMalleableConversion:
    def _build(self):
        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=2, shot_rates=[1.0, 1.0]
        )
        broker.use_algorithm(EasyBackfill(convert_when_saturated=True))
        return sim, broker, sites

    def _convertible_spec(self, shots=40, **kwargs):
        return JobSpec(
            program=make_program(shots=shots),
            shots=shots,
            min_units=2,
            malleable=True,
            tenant="alice",
            **kwargs,
        )

    def test_saturated_federation_converts_fixed_spec(self):
        sim, broker, sites = self._build()
        events = []
        broker.events.subscribe(
            lambda ev: events.append(ev), kinds=("job_converted",)
        )
        _saturate(broker, sites, per_site=2)
        job_id = broker.submit_spec(self._convertible_spec(shots=40))
        assert broker.job(job_id).resize is not None
        assert len(events) == 1
        assert events[0].payload["units"] == 2
        assert events[0].payload["shots_per_unit"] == 20
        assert events[0].payload["tenant"] == "alice"

    def test_status_and_result_stay_transparent(self):
        sim, broker, sites = self._build()
        client = FederatedClient(broker, user="alice")
        _saturate(broker, sites, per_site=2)
        job_id = client.submit_spec(self._convertible_spec(shots=40))
        assert broker.job(job_id).resize is not None
        # broker.status/result delegate for converted ids — same calls a
        # fixed job would get
        assert broker.status(job_id)["state"] in ("placed", "pending", "held")
        sim.run(until=2000.0)
        assert broker.status(job_id)["state"] == "completed"
        merged = client.result(job_id)
        assert merged.shots == 40  # 2 units x 20 shots, merged back
        assert sum(merged.counts.values()) == 40

    def _three_kinds(self, submit):
        """Submit a fixed (pinned), a converted and a multi-unit spec
        into a saturated federation; returns their ids and shot totals."""
        fixed = submit(self._convertible_spec(shots=30, pin="site-0/onprem"))
        converted = submit(self._convertible_spec(shots=40))
        multi = submit(
            JobSpec(program=make_program(shots=10), shots=10, iterations=3, tenant="alice")
        )
        return {fixed: 30, converted: 40, multi: 30}

    def test_one_query_path_for_fixed_converted_and_multi_unit_ids(self):
        sim, broker, sites = self._build()
        client = FederatedClient(broker, user="alice")
        _saturate(broker, sites, per_site=2)
        shots = self._three_kinds(client.submit_spec)
        fixed, converted, multi = shots
        assert broker.job(fixed).resize is None
        assert broker.job(converted).resize is not None
        assert broker.job(multi).resize is not None
        sim.run(until=5000.0)
        for job_id, total in shots.items():
            assert broker.job(job_id).job_id == job_id
            assert broker.status(job_id)["state"] == "completed"
            assert client.status(job_id) == broker.status(job_id)
            assert broker.result(job_id) is not None
            merged = client.result(job_id)
            assert merged.shots == total
            assert sum(merged.counts.values()) == total

    def test_run_process_answers_for_fixed_converted_and_multi_unit_ids(self):
        sim, broker, sites = self._build()
        session = Session(federation=broker, user="alice")
        _saturate(broker, sites, per_site=2)
        results = {}

        def submit(spec):
            # the process submits at spawn time, while saturation holds
            key = len(results)
            results[key] = None

            def proc():
                results[key] = yield from session.submit(spec).wait()

            sim.spawn(proc(), name=f"run-process-{key}")
            return key

        shots = self._three_kinds(submit)
        sim.run(until=5000.0)
        fixed, converted, multi = (results[key] for key in shots)
        assert fixed.metadata["federation_site"] == "site-0"
        assert converted.resource.startswith("malleable/")
        assert converted.metadata["federation_units"] == 2
        assert multi.metadata["federation_units"] == 3
        for key, total in shots.items():
            assert results[key].shots == total

    def test_unsaturated_federation_keeps_the_spec_fixed(self):
        sim, broker, sites = self._build()
        job_id = broker.submit_spec(self._convertible_spec())
        assert broker.job(job_id).resize is None
        assert job_id.startswith("fed-job-")

    def test_default_algorithm_never_converts(self):
        # the stock PolicyRouting adapter has the knob off: saturation
        # alone must not change submission semantics
        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=2
        )
        _saturate(broker, sites, per_site=2)
        job_id = broker.submit_spec(self._convertible_spec())
        assert broker.job(job_id).resize is None

    def test_pinned_spec_is_never_converted(self):
        sim, broker, sites = self._build()
        _saturate(broker, sites, per_site=2)
        job_id = broker.submit_spec(
            self._convertible_spec(pin="site-0/onprem")
        )
        assert broker.job(job_id).resize is None

    def test_per_spec_algorithm_opts_in_without_broker_default(self):
        # broker keeps the stock adapter; the spec names a registered
        # algorithm whose instance carries the conversion knob
        sim, registry, broker, sites = build_federation(
            n_sites=2, max_queue_depth=2
        )
        broker._algo_cache["easy-backfill"] = EasyBackfill(
            convert_when_saturated=True
        )
        _saturate(broker, sites, per_site=2)
        job_id = broker.submit_spec(
            self._convertible_spec(algorithm="easy-backfill")
        )
        assert broker.job(job_id).resize is not None


class TestAgreementElasticArbitration:
    def _build(self, weights=(3.0, 1.0), slots=4):
        accounting = make_accounting()
        accounting.set_share_weight("alpha", weights[0])
        accounting.set_share_weight("beta", weights[1])
        sim, _, broker, sites = build_accounted_federation(
            n_sites=2,
            accounting=accounting,
            shot_rates=[1.0, 1.0],
            max_queue_depth=32,
            resize_config=ResizeConfig(max_outstanding_per_site=slots),
        )
        return sim, broker, accounting

    def _elastic_spec(self, tenant, iterations=40):
        return JobSpec(
            program=make_program(shots=40),
            shots=40,
            iterations=iterations,
            tenant=tenant,
            algorithm="agreement-elastic",
        )

    def test_negotiated_slots_converge_to_weighted_split(self):
        """One contender selecting agreement-elastic flips the whole
        site to pairwise-steal negotiation — which must converge to the
        same 3:1 weighted split the central arbiter would grant."""
        sim, broker, _ = self._build()
        agreed = []
        broker.events.subscribe(
            lambda ev: agreed.append(ev), kinds=("slots_agreed",)
        )
        a = broker.submit_spec(self._elastic_spec("alpha"))
        b = broker.submit_spec(self._elastic_spec("beta"))
        sim.run(until=300.0)
        job_a, job_b = broker.job(a), broker.job(b)
        assert job_a.state is JobState.PLACED and job_b.state is JobState.PLACED
        for site in ("site-0", "site-1"):
            slots_a = len(job_a.resize.ledger.in_flight_at(site))
            slots_b = len(job_b.resize.ledger.in_flight_at(site))
            assert (slots_a, slots_b) == (3, 1)
        assert agreed  # at least one negotiation actually transferred
        for ev in agreed:
            assert ev.site in ("site-0", "site-1")
            assert ev.payload["transfers"]

    def test_negotiated_caps_respect_site_capacity(self):
        sim, broker, _ = self._build(weights=(1.0, 1.0), slots=4)
        a = broker.submit_spec(self._elastic_spec("alpha"))
        b = broker.submit_spec(self._elastic_spec("beta"))
        sim.run(until=300.0)
        for site in ("site-0", "site-1"):
            total = sum(
                len(broker.job(j).resize.ledger.in_flight_at(site))
                for j in (a, b)
            )
            assert total <= 4

    def test_mixed_jobs_all_negotiate_together(self):
        """Only one of the two contenders asks for agreement-elastic,
        and it is the second to arrive; the site still negotiates as a
        unit (its division publishes ``slots_agreed``) and both jobs
        make progress toward completion."""
        sim, broker, _ = self._build(weights=(1.0, 1.0))
        agreed = []
        broker.events.subscribe(lambda ev: agreed.append(ev), kinds=("slots_agreed",))
        b = broker.submit_spec(
            JobSpec(
                program=make_program(shots=40),
                shots=40,
                iterations=20,
                tenant="beta",
            )
        )
        a = broker.submit_spec(self._elastic_spec("alpha", iterations=20))
        sim.run(until=2500.0)
        assert broker.job(a).completed_units > 0
        assert broker.job(b).completed_units > 0
        assert agreed  # the plain contender's site negotiated too
        assert {ev.site for ev in agreed} <= {"site-0", "site-1"}
