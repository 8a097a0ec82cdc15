"""``POST /jobs``: declarative JobSpec intake on the daemon REST API."""

import copy

import numpy as np
import pytest

from repro.daemon import MiddlewareDaemon, Request, build_router
from repro.daemon.queue import ShotCapPolicy
from repro.errors import SpecError, ValidationError
from repro.qpu import ConstantWaveform, QPUDevice, Register, ShotClock
from repro.qrmi import LocalEmulatorResource, OnPremQPUResource
from repro.runtime import DaemonClient
from repro.sdk import Pulse, Sequence
from repro.simkernel import Simulator
from repro.spec import JobSpec


def make_program(shots=50):
    seq = Sequence(Register.chain(2, spacing=6.0), name="jobs-route")
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


def build_daemon(n_resources=1):
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=1.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    resources = {"onprem": OnPremQPUResource("onprem", device)}
    if n_resources > 1:
        resources["emu"] = LocalEmulatorResource("emu", emulator="emu-sv")
    daemon = MiddlewareDaemon(sim, resources, shot_cap=ShotCapPolicy())
    return sim, daemon


def open_session(router, user="alice"):
    response = router.dispatch(
        Request("POST", "/sessions", body={"user": user})
    )
    assert response.status == 201
    return response.body["token"]


class TestJobsRoute:
    def test_spec_submission_lands_on_queue_with_metadata(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        spec = JobSpec(
            program=make_program(),
            shots=20,
            algorithm="easy-backfill",
            metadata={"experiment": "sweep-7"},
        )
        response = router.dispatch(
            Request(
                "POST",
                "/jobs",
                body=spec.to_dict(),
                headers={"Authorization": f"Bearer {token}"},
            )
        )
        assert response.status == 202
        task = daemon.queue.get(response.body["task_id"])
        assert task.metadata["tenant"] == "alice"  # session user wins
        assert task.metadata["algorithm"] == "easy-backfill"
        assert task.metadata["experiment"] == "sweep-7"

    def test_decoding_one_body_leaves_the_next_equal(self):
        """Every payload of one program shares its encoded IR dict, so
        the daemon's decode must leave it as it found it."""
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        spec = JobSpec(program=make_program(), shots=20, metadata={"run": "r1"})
        body = spec.to_dict()
        expected = copy.deepcopy(body)
        response = router.dispatch(
            Request("POST", "/jobs", body=body, headers={"Authorization": f"Bearer {token}"})
        )
        assert response.status == 202
        again = spec.to_dict()
        assert again == expected
        assert again["program"] is body["program"]
        assert JobSpec.from_dict(again).validate() == spec.validate()

    def test_resource_fallback_on_single_resource_daemon(self):
        sim, daemon = build_daemon(n_resources=1)
        router = build_router(daemon)
        token = open_session(router)
        body = JobSpec(program=make_program(), shots=10).to_dict()
        assert body["resource"] is None
        response = router.dispatch(
            Request("POST", "/jobs", body=body, headers={"Authorization": f"Bearer {token}"})
        )
        assert response.status == 202
        task = daemon.queue.get(response.body["task_id"])
        assert task.resource == "onprem"

    def test_multi_unit_spec_is_422(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        body = JobSpec(program=make_program(), shots=30, iterations=4).to_dict()
        response = router.dispatch(
            Request("POST", "/jobs", body=body, headers={"Authorization": f"Bearer {token}"})
        )
        assert response.status == 422
        assert "federation" in response.body["error"]

    def test_refused_spec_publishes_nothing_and_leaves_no_task(self):
        """A program the target refuses never becomes a task: no
        ``queued``/``cancelled`` pair on the bus, nothing in the queue."""
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        seq = Sequence(Register.chain(2, spacing=6.0), name="too-strong")
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 50.0), 0.0), "ch")
        seq.measure()
        body = JobSpec(program=seq.build(shots=20)).to_dict()
        published = daemon.events.published
        response = router.dispatch(
            Request("POST", "/jobs", body=body, headers={"Authorization": f"Bearer {token}"})
        )
        assert response.status == 422
        assert daemon.events.published == published
        assert daemon.queue.all_tasks() == []
        (session,) = daemon.sessions.active()
        assert session.task_ids == []

    def test_unknown_algorithm_is_client_error(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        body = JobSpec(program=make_program(), algorithm="easy-backfill").to_dict()
        body["algorithm"] = "warp-drive"  # bypass client-side validation
        response = router.dispatch(
            Request("POST", "/jobs", body=body, headers={"Authorization": f"Bearer {token}"})
        )
        assert 400 <= response.status < 500
        assert "warp-drive" in response.body["error"]

    def test_missing_program_is_400(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        token = open_session(router)
        response = router.dispatch(
            Request("POST", "/jobs", body={"shots": 5}, headers={"Authorization": f"Bearer {token}"})
        )
        assert response.status == 400

    def test_bad_token_is_401(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        body = JobSpec(program=make_program()).to_dict()
        response = router.dispatch(
            Request("POST", "/jobs", body=body, headers={"Authorization": "Bearer nope"})
        )
        assert response.status == 401


class TestDaemonClientSubmitSpec:
    """``DaemonClient.submit``: one spec, one ``POST /jobs``."""

    def test_client_ships_spec_and_runs_to_completion(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        client = DaemonClient(router)
        client.open_session("carol")
        task_id = client.submit(JobSpec(program=make_program(), shots=8))
        assert client.status(task_id)["state"] == "queued"
        sim.run()
        status = client.status(task_id)
        assert status["state"] == "completed"
        result = client.result(task_id)
        assert result["shots"] == 8

    def test_client_refuses_plain_dict(self):
        sim, daemon = build_daemon()
        client = DaemonClient(build_router(daemon))
        client.open_session("dave")
        body = JobSpec(program=make_program(), shots=6).to_dict()
        with pytest.raises(SpecError, match="DaemonClient.submit takes a JobSpec"):
            client.submit(body)
        assert daemon.queue.all_tasks() == []

    def test_client_carries_every_spec_field_onto_the_task(self):
        """Tenant, algorithm and metadata, a trace context included,
        all reach the daemon task."""
        sim, daemon = build_daemon()
        client = DaemonClient(build_router(daemon))
        client.open_session("frank")
        trace_context = {"trace_id": "t-1", "span_id": "s-1"}
        task_id = client.submit(
            JobSpec(
                program=make_program(),
                resource="onprem",
                tenant="acme",
                algorithm="easy-backfill",
                metadata={"run": "r1", "trace_context": trace_context},
            )
        )
        task = daemon.queue.get(task_id)
        assert task.user == "frank"
        assert task.metadata == {
            "run": "r1",
            "trace_context": trace_context,
            "tenant": "acme",
            "algorithm": "easy-backfill",
        }

    def test_spec_error_surfaces_client_side(self):
        with pytest.raises(SpecError, match="unknown scheduling algorithm"):
            JobSpec(program=make_program(), algorithm="warp-drive").validate()

    def test_daemon_refuses_multi_via_client(self):
        sim, daemon = build_daemon()
        router = build_router(daemon)
        client = DaemonClient(router)
        client.open_session("erin")
        with pytest.raises(ValidationError, match="federation"):
            client.submit(JobSpec(program=make_program(), iterations=3))
