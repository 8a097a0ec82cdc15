"""Tokens and roles for the daemon API.

Two roles: ``USER`` (session operations, task submission) and ``ADMIN``
(device management, low-level controls, observability admin).  The
"Administration area" in the paper's Figure 2 is exactly the set of
endpoints gated on ADMIN.
"""

from __future__ import annotations

import enum
import hashlib
import itertools

from ..errors import AuthError

__all__ = ["Role", "TokenStore"]


class Role(enum.Enum):
    USER = "user"
    ADMIN = "admin"


class TokenStore:
    """Issues and validates opaque bearer tokens.

    Tokens are deterministic digests of (seed, counter) so simulations
    replay exactly; entropy is irrelevant in a testbed, unforgeability
    is modeled by the lookup table.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._counter = itertools.count(1)
        self._tokens: dict[str, tuple[str, Role]] = {}

    def issue(self, subject: str, role: Role = Role.USER) -> str:
        raw = f"{self._seed}:{next(self._counter)}:{subject}:{role.value}"
        token = hashlib.sha256(raw.encode()).hexdigest()[:32]
        self._tokens[token] = (subject, role)
        return token

    def revoke(self, token: str) -> None:
        if token not in self._tokens:
            raise AuthError("cannot revoke unknown token")
        del self._tokens[token]

    def authenticate(self, token: str) -> tuple[str, Role]:
        """Return (subject, role) or raise :class:`AuthError`."""
        if not token:
            raise AuthError("missing bearer token")
        if token not in self._tokens:
            raise AuthError("invalid or revoked token")
        return self._tokens[token]

    def require_role(self, token: str, role: Role) -> str:
        subject, actual = self.authenticate(token)
        if actual is not role:
            raise AuthError(f"operation requires role {role.value!r}")
        return subject
