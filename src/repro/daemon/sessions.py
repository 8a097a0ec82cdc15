"""User sessions.

Paper §3.3: "As the user part of the runtime environment connects to
the middleware, a unique session is created, and a session token is
returned."  Sessions carry the user identity, the priority class
(defaulting from the Slurm partition the job runs in), and the task
ids submitted through them.  Idle sessions expire; a session that owns
a queued or running task is never idle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import SessionError
from .auth import Role, TokenStore
from .queue import PriorityClass, TaskState

__all__ = ["Session", "SessionManager"]

#: task states that keep their owning session from going idle
_LIVE_TASK_STATES = (TaskState.QUEUED, TaskState.RUNNING, TaskState.PREEMPTED)


@dataclass
class Session:
    session_id: str
    user: str
    token: str
    priority_class: PriorityClass
    created_at: float
    #: the later of the last request and the last transition of a task
    #: submitted through this session — idle time counts from here
    last_active_at: float
    slurm_job_id: int | None = None
    task_ids: list[str] = field(default_factory=list)
    closed: bool = False
    #: tasks of this session still queued or running
    live_tasks: int = 0

    def idle(self, now: float, timeout: float) -> bool:
        return self.live_tasks == 0 and now - self.last_active_at > timeout


class SessionManager:
    """Creates, resolves, touches and expires sessions."""

    def __init__(self, tokens: TokenStore, idle_timeout: float = 3600.0) -> None:
        if idle_timeout <= 0:
            raise SessionError("idle timeout must be positive")
        self.tokens = tokens
        self.idle_timeout = idle_timeout
        self._sessions: dict[str, Session] = {}
        self._by_token: dict[str, str] = {}
        self._counter = itertools.count(1)

    def create(
        self,
        user: str,
        priority_class: PriorityClass = PriorityClass.DEVELOPMENT,
        now: float = 0.0,
        slurm_job_id: int | None = None,
    ) -> Session:
        session_id = f"sess-{next(self._counter)}"
        token = self.tokens.issue(user, Role.USER)
        session = Session(
            session_id=session_id,
            user=user,
            token=token,
            priority_class=priority_class,
            created_at=now,
            last_active_at=now,
            slurm_job_id=slurm_job_id,
        )
        self._sessions[session_id] = session
        self._by_token[token] = session_id
        return session

    def resolve(self, token: str, now: float) -> Session:
        """Find the live session behind a token; touch its activity clock."""
        if token not in self._by_token:
            raise SessionError("no session for this token")
        session = self._sessions[self._by_token[token]]
        if session.closed:
            raise SessionError(f"session {session.session_id} is closed")
        if session.idle(now, self.idle_timeout):
            self.close(session.session_id)
            raise SessionError(f"session {session.session_id} expired")
        session.last_active_at = now
        return session

    def get(self, session_id: str) -> Session:
        if session_id not in self._sessions:
            raise SessionError(f"unknown session {session_id!r}")
        return self._sessions[session_id]

    def close(self, session_id: str) -> None:
        session = self.get(session_id)
        if not session.closed:
            session.closed = True
            self.tokens.revoke(session.token)
            self._by_token.pop(session.token, None)

    def expire_idle(self, now: float) -> list[str]:
        """Close every session idle beyond the timeout; returns their ids."""
        expired = [
            s.session_id
            for s in self._sessions.values()
            if not s.closed and s.idle(now, self.idle_timeout)
        ]
        for session_id in expired:
            self.close(session_id)
        return expired

    def task_transition(self, session_id: str, old: TaskState | None, new: TaskState, now: float) -> None:
        """Account one task transition to its owning session."""
        session = self._sessions.get(session_id)
        if session is None:
            return
        session.live_tasks += (new in _LIVE_TASK_STATES) - (old in _LIVE_TASK_STATES)
        session.last_active_at = max(session.last_active_at, now)

    def active(self) -> list[Session]:
        return [s for s in self._sessions.values() if not s.closed]

    def __len__(self) -> int:
        return len(self._sessions)
