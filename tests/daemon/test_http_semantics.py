"""HTTP-semantics tests: 404 vs 405, client error mapping, QRMI task API."""

import pytest

from repro.errors import DaemonError, TaskError, ValidationError
from repro.daemon import Request, Response, Router
from repro.qrmi import LocalEmulatorResource, TaskStatus


class Test404vs405:
    def build(self):
        router = Router()
        router.add("GET", "/things/{id}", lambda req: Response(body={"id": req.params["id"]}))
        router.add("POST", "/things", lambda req: Response(status=201))
        return router

    def test_known_path_wrong_method_is_405(self):
        router = self.build()
        assert router.dispatch(Request("DELETE", "/things/7")).status == 405
        assert router.dispatch(Request("GET", "/things")).status == 405

    def test_unknown_path_is_404(self):
        router = self.build()
        assert router.dispatch(Request("GET", "/widgets/7")).status == 404
        assert router.dispatch(Request("GET", "/things/7/extra")).status == 404

    def test_correct_method_dispatches(self):
        router = self.build()
        assert router.dispatch(Request("POST", "/things")).status == 201
        assert router.dispatch(Request("GET", "/things/7")).body["id"] == "7"

    def test_trailing_slash_equivalent(self):
        router = self.build()
        assert router.dispatch(Request("GET", "/things/9/")).body["id"] == "9"


class TestRouteIndex:
    """Routes are bucketed by segment count; registration order still
    decides between routes of one length."""

    def build(self):
        router = Router()
        router.add("GET", "/tasks/stats", lambda req: Response(body={"route": "stats"}))
        router.add("GET", "/tasks/{id}", lambda req: Response(body={"id": req.params["id"]}))
        router.add("GET", "/tasks/{id}/result", lambda req: Response(body={"of": req.params["id"]}))
        router.add("DELETE", "/admin/tasks/{id}", lambda req: Response(status=204))
        return router

    def test_templated_route_binds_params(self):
        router = self.build()
        assert router.dispatch(Request("GET", "/tasks/mw-task-3")).body == {"id": "mw-task-3"}
        assert router.dispatch(Request("GET", "/tasks/t9/result")).body == {"of": "t9"}

    def test_first_registered_route_wins_within_a_length(self):
        router = self.build()
        assert router.dispatch(Request("GET", "/tasks/stats")).body == {"route": "stats"}

    def test_404_and_405_per_length(self):
        router = self.build()
        assert router.dispatch(Request("GET", "/admin/tasks/7")).status == 405
        assert router.dispatch(Request("POST", "/tasks/7/result")).status == 405
        assert router.dispatch(Request("GET", "/admin/jobs/7")).status == 404
        assert router.dispatch(Request("GET", "/tasks/7/result/extra")).status == 404
        assert router.dispatch(Request("GET", "/")).status == 404

    def test_handler_error_after_index_lookup_is_500(self):
        router = Router()
        router.add("GET", "/things/{id}", lambda req: 1 / 0)
        response = router.dispatch(Request("GET", "/things/1"))
        assert response.status == 500
        assert "ZeroDivisionError" in response.body["error"]


class TestClientErrorMapping:
    def test_validation_error_carries_violations(self):
        from repro.runtime import DaemonClient

        router = Router()

        def reject(req):
            return Response(status=422, body={"error": "invalid", "violations": ["too big"]})

        router.add("POST", "/tasks", reject)
        client = DaemonClient(router)
        with pytest.raises(ValidationError) as err:
            client._call("POST", "/tasks", {})
        assert err.value.violations == ["too big"]

    def test_other_errors_become_daemon_errors(self):
        from repro.runtime import DaemonClient

        router = Router()
        router.add("GET", "/boom", lambda req: Response(status=500, body={"error": "dead"}))
        client = DaemonClient(router)
        with pytest.raises(DaemonError, match="500: dead"):
            client._call("GET", "/boom")


class TestQRMITaskAPIEdges:
    def make_program(self):
        from repro.qpu import ConstantWaveform, Register
        from repro.sdk import Pulse, Sequence

        seq = Sequence(Register.chain(2, spacing=6.0))
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 1.0), 0.0), "ch")
        seq.measure()
        return seq.build(shots=5)

    def test_result_before_completion_raises(self):
        res = LocalEmulatorResource("emu", emulator="emu-sv")
        task_id = res.task_start(self.make_program())
        # synchronous backend: completed; force a bogus state to simulate
        res.tasks[task_id].status = TaskStatus.RUNNING
        with pytest.raises(TaskError, match="not finished"):
            res.task_result(task_id)

    def test_stop_cancels_pending(self):
        res = LocalEmulatorResource("emu", emulator="emu-sv")
        task_id = res.task_start(self.make_program())
        res.tasks[task_id].status = TaskStatus.QUEUED
        res.task_stop(task_id)
        assert res.task_status(task_id) is TaskStatus.CANCELLED

    def test_stop_terminal_is_noop(self):
        res = LocalEmulatorResource("emu", emulator="emu-sv")
        task_id = res.task_start(self.make_program())
        res.task_stop(task_id)
        assert res.task_status(task_id) is TaskStatus.COMPLETED

    def test_metadata_surface(self):
        res = LocalEmulatorResource("emu", emulator="emu-sv")
        meta = res.metadata()
        assert meta["accessible"] is True
        assert meta["name"] == "emu"
