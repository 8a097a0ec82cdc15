"""Tests for the REST substrate, token store, sessions, and queue."""

import pytest

from repro.errors import AuthError, DaemonError, QueueError, SessionError
from repro.daemon import (
    PriorityClass,
    Request,
    Response,
    Role,
    Router,
    SessionManager,
    TaskState,
    TokenStore,
)
from repro.daemon.queue import MiddlewareQueue, ShotCapPolicy
from repro.qpu import ConstantWaveform, Register
from repro.sdk import Pulse, Sequence

from tests.daemon.queueutil import take_next


def make_program(shots=100):
    seq = Sequence(Register.chain(2, spacing=6.0))
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


class TestRouter:
    def test_static_route(self):
        router = Router()
        router.add("GET", "/ping", lambda req: Response(body={"pong": True}))
        response = router.dispatch(Request("GET", "/ping"))
        assert response.ok and response.body["pong"]

    def test_path_params(self):
        router = Router()
        router.add("GET", "/tasks/{id}", lambda req: Response(body={"id": req.params["id"]}))
        response = router.dispatch(Request("GET", "/tasks/abc-1"))
        assert response.body["id"] == "abc-1"

    def test_404(self):
        router = Router()
        assert router.dispatch(Request("GET", "/nope")).status == 404

    def test_method_mismatch(self):
        router = Router()
        router.add("GET", "/thing", lambda req: Response())
        assert router.dispatch(Request("POST", "/thing")).status in (404, 405)

    def test_handler_exception_becomes_500(self):
        router = Router()

        def boom(req):
            raise RuntimeError("oops")

        router.add("GET", "/boom", boom)
        response = router.dispatch(Request("GET", "/boom"))
        assert response.status == 500
        assert "oops" in response.body["error"]

    def test_duplicate_route_rejected(self):
        router = Router()
        router.add("GET", "/x", lambda r: Response())
        with pytest.raises(DaemonError):
            router.add("GET", "/x", lambda r: Response())

    def test_bearer_token_parsing(self):
        req = Request("GET", "/", headers={"Authorization": "Bearer abc123"})
        assert req.token == "abc123"
        assert Request("GET", "/").token == ""


class TestTokenStore:
    def test_issue_and_authenticate(self):
        store = TokenStore()
        token = store.issue("alice")
        assert store.authenticate(token) == ("alice", Role.USER)

    def test_unknown_token(self):
        with pytest.raises(AuthError):
            TokenStore().authenticate("bogus")

    def test_missing_token(self):
        with pytest.raises(AuthError):
            TokenStore().authenticate("")

    def test_revocation(self):
        store = TokenStore()
        token = store.issue("alice")
        store.revoke(token)
        with pytest.raises(AuthError):
            store.authenticate(token)

    def test_role_enforcement(self):
        store = TokenStore()
        user_token = store.issue("alice", Role.USER)
        admin_token = store.issue("root", Role.ADMIN)
        assert store.require_role(admin_token, Role.ADMIN) == "root"
        with pytest.raises(AuthError):
            store.require_role(user_token, Role.ADMIN)

    def test_tokens_unique(self):
        store = TokenStore()
        assert store.issue("a") != store.issue("a")


class TestSessions:
    def test_create_and_resolve(self):
        mgr = SessionManager(TokenStore())
        session = mgr.create("alice", PriorityClass.PRODUCTION, now=0.0)
        resolved = mgr.resolve(session.token, now=10.0)
        assert resolved.session_id == session.session_id
        assert resolved.last_active_at == 10.0

    def test_unknown_token(self):
        mgr = SessionManager(TokenStore())
        with pytest.raises(SessionError):
            mgr.resolve("nope", now=0.0)

    def test_expiry(self):
        mgr = SessionManager(TokenStore(), idle_timeout=100.0)
        session = mgr.create("alice", now=0.0)
        with pytest.raises(SessionError):
            mgr.resolve(session.token, now=200.0)
        assert mgr.get(session.session_id).closed

    def test_close_revokes_token(self):
        mgr = SessionManager(TokenStore())
        session = mgr.create("alice", now=0.0)
        mgr.close(session.session_id)
        with pytest.raises(SessionError):
            mgr.resolve(session.token, now=1.0)

    def test_expire_idle_bulk(self):
        mgr = SessionManager(TokenStore(), idle_timeout=50.0)
        s1 = mgr.create("a", now=0.0)
        mgr.create("b", now=40.0)
        expired = mgr.expire_idle(now=60.0)
        assert expired == [s1.session_id]
        assert len(mgr.active()) == 1


class TestQueue:
    def test_priority_order(self):
        q = MiddlewareQueue()
        q.submit("s1", "u", make_program(), PriorityClass.DEVELOPMENT, "qpu", now=0.0)
        q.submit("s2", "u", make_program(), PriorityClass.PRODUCTION, "qpu", now=1.0)
        q.submit("s3", "u", make_program(), PriorityClass.TEST, "qpu", now=2.0)
        order = [take_next(q).priority for _ in range(3)]
        assert order == [
            PriorityClass.PRODUCTION,
            PriorityClass.TEST,
            PriorityClass.DEVELOPMENT,
        ]

    def test_fifo_within_class(self):
        q = MiddlewareQueue()
        t1 = q.submit("s", "u", make_program(), PriorityClass.TEST, "qpu", now=0.0)
        t2 = q.submit("s", "u", make_program(), PriorityClass.TEST, "qpu", now=1.0)
        assert take_next(q).task_id == t1.task_id
        assert take_next(q).task_id == t2.task_id

    def test_pop_empty_returns_none(self):
        assert take_next(MiddlewareQueue()) is None

    def test_shot_cap_policy(self):
        q = MiddlewareQueue(shot_cap=ShotCapPolicy(dev_max_shots=50))
        task = q.submit("s", "u", make_program(shots=1000), PriorityClass.DEVELOPMENT, "qpu", now=0.0)
        assert task.program.shots == 50
        assert task.metadata["shots_capped_from"] == 1000
        assert task.batched is False

    def test_production_not_capped(self):
        q = MiddlewareQueue(shot_cap=ShotCapPolicy())
        task = q.submit("s", "u", make_program(shots=1000), PriorityClass.PRODUCTION, "qpu", now=0.0)
        assert task.program.shots == 1000
        assert task.batched is True

    def test_cancel_queued(self):
        q = MiddlewareQueue()
        task = q.submit("s", "u", make_program(), PriorityClass.TEST, "qpu", now=0.0)
        q.cancel(task.task_id)
        assert take_next(q) is None
        assert task.state is TaskState.CANCELLED

    def test_requeue_requires_preempted(self):
        q = MiddlewareQueue()
        task = q.submit("s", "u", make_program(), PriorityClass.TEST, "qpu", now=0.0)
        with pytest.raises(QueueError):
            q.requeue(task, now=1.0)
        q.set_state(task, TaskState.PREEMPTED, 1.0)
        q.requeue(task, now=1.0)
        assert take_next(q).task_id == task.task_id

    def test_depth_by_class(self):
        q = MiddlewareQueue()
        q.submit("s", "u", make_program(), PriorityClass.PRODUCTION, "qpu", now=0.0)
        q.submit("s", "u", make_program(), PriorityClass.DEVELOPMENT, "qpu", now=0.0)
        depth = q.depth_by_class()
        assert depth["production"] == 1
        assert depth["development"] == 1
        assert depth["test"] == 0

    def test_priority_class_from_partition(self):
        assert PriorityClass.from_partition("production") is PriorityClass.PRODUCTION
        assert PriorityClass.from_partition("qpu-test") is PriorityClass.TEST
        assert PriorityClass.from_partition("batch") is PriorityClass.DEVELOPMENT

    def test_priority_class_parse(self):
        assert PriorityClass.parse("production") is PriorityClass.PRODUCTION
        with pytest.raises(QueueError):
            PriorityClass.parse("urgent")
