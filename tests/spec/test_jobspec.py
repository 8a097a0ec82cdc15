"""JobSpec: validation, dict round-trip, and the spec-only intake surfaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError, SpecError
from repro.qpu import Register
from repro.sdk import AnalogCircuit
from repro.sdk.ir import AnalogProgram
from repro.spec import DEFAULT_SHOTS, JobSpec, parse_site_leg


def make_program(n_atoms=3, shots=50, name="spec-prog"):
    return (
        AnalogCircuit(Register.chain(n_atoms, spacing=6.0), name=name)
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=shots)
    )


class TestValidation:
    def test_normalizes_program_to_ir_and_resolves_shots(self):
        spec = JobSpec(program=make_program(shots=250)).validate()
        assert isinstance(spec.program, AnalogProgram)
        # the program's own shot count wins when the spec is silent —
        # the old to_ir(..., shots or 100) silently-defaults bug
        assert spec.shots == 250

    def test_explicit_shots_win_over_program(self):
        spec = JobSpec(program=make_program(shots=250), shots=40).validate()
        assert spec.shots == 40
        assert spec.program.shots == 40

    def test_default_shots_when_nothing_declares(self):
        circuit = AnalogCircuit(Register.chain(2, spacing=6.0))
        circuit.rx_global(np.pi, duration=0.2).measure_all()
        spec = JobSpec(program=circuit).validate()
        assert spec.shots == DEFAULT_SHOTS

    def test_validate_is_idempotent(self):
        once = JobSpec(program=make_program(), shots=30, tenant="t").validate()
        assert once.validate() == once
        # and O(1): re-validating a validated spec is the identity object,
        # so the submit path can re-check defensively at every layer
        assert once.validate() is once

    def test_jobscript_round_trip_quotes_names(self):
        from repro.cluster import JobScript, render_jobscript

        spec = JobSpec(
            program=make_program(name="bell chain demo"), shots=30
        ).validate()
        parsed = JobScript(render_jobscript(spec)).to_spec()
        assert parsed.name == "bell chain demo"

    def test_tenant_default_fills(self):
        assert JobSpec(program=make_program()).validate().tenant == "fed-user"
        assert (
            JobSpec(program=make_program()).validate(default_tenant="alice").tenant
            == "alice"
        )

    def test_bad_pin_rejected(self):
        with pytest.raises(SpecError, match="site/resource"):
            JobSpec(program=make_program(), pin="just-a-site").validate()

    def test_conflicting_pin_and_resource(self):
        with pytest.raises(SpecError, match="conflicting"):
            JobSpec(
                program=make_program(), pin="a/qpu", resource="b/qpu"
            ).validate()

    def test_sites_empty_and_duplicates(self):
        with pytest.raises(SpecError, match="empty"):
            JobSpec(program=make_program(), sites=()).validate()
        with pytest.raises(SpecError, match="duplicate"):
            JobSpec(
                program=make_program(), sites=("s1/a", "s1/b")
            ).validate()

    def test_sites_defaults_iterations(self):
        spec = JobSpec(program=make_program(), sites=("s1", "s2")).validate()
        assert spec.iterations == 4  # two units per leg

    def test_elasticity_bounds(self):
        # a rigid fixed spec has no use for unit bounds...
        with pytest.raises(SpecError, match="multi-unit"):
            JobSpec(program=make_program(), min_units=1, malleable=False).validate()
        # ...but on a malleable fixed spec they declare fixed→malleable
        # convertibility (the broker may split a saturated submission)
        convertible = JobSpec(program=make_program(), min_units=3).validate()
        assert convertible.min_units == 3 and not convertible.is_multi
        with pytest.raises(SpecError, match="exceeds"):
            JobSpec(
                program=make_program(), iterations=8, min_units=5, max_units=2
            ).validate()
        spec = JobSpec(
            program=make_program(), iterations=8, min_units=1, max_units=4
        ).validate()
        assert (spec.min_units, spec.max_units) == (1, 4)

    def test_pin_rejected_on_multi_unit_specs(self):
        # the malleable path places per unit through site legs — a pin
        # would be silently dropped, violating the --qpu contract
        with pytest.raises(SpecError, match="fixed-size"):
            JobSpec(
                program=make_program(), pin="s1/qpu", iterations=4
            ).validate()
        with pytest.raises(SpecError, match="fixed-size"):
            JobSpec(
                program=make_program(), pin="s1/qpu", sites=("s1",)
            ).validate()

    def test_bad_iterations_priority_budget(self):
        with pytest.raises(SpecError, match="iterations"):
            JobSpec(program=make_program(), iterations=0).validate()
        with pytest.raises(Exception, match="priority"):
            JobSpec(program=make_program(), priority_class="vip").validate()
        with pytest.raises(SpecError, match="budget_hint"):
            JobSpec(program=make_program(), budget_hint=-1.0).validate()

    def test_parse_site_leg(self):
        assert parse_site_leg("alpine") == ("alpine", None)
        assert parse_site_leg("alpine/qpu-a") == ("alpine", "qpu-a")
        with pytest.raises(SpecError):
            parse_site_leg("/qpu-a")

    def test_is_multi(self):
        assert not JobSpec(program=make_program()).is_multi
        assert JobSpec(program=make_program(), iterations=3).is_multi
        assert JobSpec(program=make_program(), sites=("a",)).is_multi


# -- hypothesis round-trip -----------------------------------------------------

_programs = st.builds(
    make_program,
    n_atoms=st.integers(min_value=1, max_value=4),
    shots=st.integers(min_value=1, max_value=2000),
    name=st.sampled_from(["p1", "vqe", "sqd-batch"]),
)

_specs = st.builds(
    JobSpec,
    program=_programs,
    shots=st.one_of(st.none(), st.integers(min_value=1, max_value=5000)),
    tenant=st.one_of(st.none(), st.sampled_from(["alice", "bob", "org-1"])),
    resource=st.one_of(st.none(), st.just("onprem")),
    affinity_key=st.one_of(st.none(), st.just("loop-7")),
    iterations=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    malleable=st.booleans(),
    priority_class=st.sampled_from(["production", "test", "development"]),
    budget_hint=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),
    metadata=st.dictionaries(
        st.sampled_from(["experiment", "run"]), st.integers(0, 9), max_size=2
    ),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_dict_round_trip_is_identity(self, spec):
        validated = spec.validate()
        assert JobSpec.from_dict(validated.to_dict()) == validated

    @settings(max_examples=30, deadline=None)
    @given(spec=_specs)
    def test_round_trip_survives_revalidation(self, spec):
        validated = spec.validate()
        rebuilt = JobSpec.from_dict(validated.to_dict()).validate()
        assert rebuilt == validated

    def test_multi_spec_round_trip_with_sites(self):
        spec = JobSpec(
            program=make_program(),
            sites=("alpine/qpu", "fjord"),
            iterations=6,
            min_units=1,
            max_units=4,
        ).validate()
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_requires_program(self):
        with pytest.raises(SpecError, match="program"):
            JobSpec.from_dict({"shots": 5})


# -- intake behaviour through submit_spec --------------------------------------


def _broker():
    from specutil import build_federation

    return build_federation(n_sites=2)[2]


class TestLegacyShims:
    """Intake behaviour the removed kwarg shims used to carry, now
    checked on the one spec intake."""

    def test_broker_submit_resolves_program_shots(self):
        broker = _broker()
        job_id = broker.submit_spec(JobSpec(program=make_program(shots=70)))
        job = broker.job(job_id)
        # shot resolution happens once, in JobSpec.validate: a shot-less
        # submission runs at the program's own count, not a blanket 100
        assert job.shots == 70
        assert job.spec.shots == 70

    def test_federated_client_shim_tags_user(self):
        broker = _broker()
        from repro.federation import FederatedClient

        client = FederatedClient(broker, user="carol")
        job = broker.job(client.submit_spec(JobSpec(program=make_program(shots=25))))
        assert job.owner == "carol"
        assert job.shots == 25

    def test_broker_submit_routes_multi_spec_to_malleable(self):
        broker = _broker()
        job_id = broker.submit_spec(
            JobSpec(program=make_program(shots=10), iterations=3)
        )
        assert job_id.startswith("fed-mjob-")
        assert broker.job(job_id).units == 3


def _intake(surface):
    """(submit callable, expected error) for one spec intake surface."""
    from specutil import build_three_backends

    from repro.daemon import build_router
    from repro.federation import FederatedClient
    from repro.runtime import DaemonClient

    _, daemon, broker, gateway, api_key = build_three_backends()
    if surface == "FederationBroker.submit_spec":
        return broker.submit_spec, PlacementError
    if surface == "FederatedClient.submit_spec":
        return FederatedClient(broker).submit_spec, SpecError
    if surface == "DaemonClient.submit":
        client = DaemonClient(build_router(daemon))
        client.open_session("alice")
        return client.submit, SpecError
    return (lambda spec: gateway.submit(api_key, spec)), SpecError


class TestSpecOnlyIntake:
    @pytest.mark.parametrize(
        "surface",
        [
            "FederationBroker.submit_spec",
            "FederatedClient.submit_spec",
            "DaemonClient.submit",
            "CloudGateway.submit",
        ],
    )
    def test_raw_program_is_rejected_up_front(self, surface):
        submit, error = _intake(surface)
        with pytest.raises(error) as err:
            submit(make_program())
        message = str(err.value)
        assert surface in message
        assert "AnalogProgram" in message
        assert "JobSpec(program=...)" in message


class TestValidateOnce:
    @pytest.mark.parametrize(
        "spec",
        [
            JobSpec(program=make_program(), shots=20),
            JobSpec(program=make_program(), shots=20, iterations=4),
        ],
        ids=["fixed", "multi-unit"],
    )
    def test_each_kind_of_federated_submission_validates_once(self, spec, monkeypatch):
        from specutil import build_federation

        sim, registry, broker, sites = build_federation()
        calls = []
        validate = JobSpec.validate

        def counting(self):
            calls.append(self.iterations)
            return validate(self)

        monkeypatch.setattr(JobSpec, "validate", counting)
        broker.submit_spec(spec)
        assert calls == [spec.iterations]
