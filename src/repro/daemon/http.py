"""Transport-agnostic REST substrate.

Requests and responses are plain objects; the router matches
``METHOD /path/{param}`` templates.  No sockets — the science in this
reproduction is in the scheduling and session semantics, not in TCP —
but the surface mirrors a real HTTP daemon closely enough that every
handler maps 1:1 onto a real framework route.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..errors import DaemonError

__all__ = ["HttpError", "Request", "Response", "Router"]


class HttpError(DaemonError):
    """Handler-level error with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One API call."""

    method: str
    path: str
    body: dict[str, Any] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    params: dict[str, str] = field(default_factory=dict)  # filled by router

    @property
    def token(self) -> str:
        """Bearer token from the Authorization header ('' if absent)."""
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            return auth[len("Bearer ") :]
        return ""


@dataclass
class Response:
    """Handler result."""

    status: int = 200
    body: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


Handler = Callable[[Request], Response]


class _Route:
    __slots__ = ("method", "template", "segments", "handler")

    def __init__(self, method: str, template: str, handler: Handler) -> None:
        self.method = method.upper()
        self.template = template
        self.segments = [s for s in template.split("/") if s]
        self.handler = handler

    def match(self, parts: list[str]) -> dict[str, str] | None:
        """Template parameters for a split path of this route's length,
        ignoring the method (for 404-vs-405); ``None`` on a mismatch."""
        params: dict[str, str] = {}
        for seg, part in zip(self.segments, parts, strict=True):
            if seg.startswith("{") and seg.endswith("}"):
                params[seg[1:-1]] = part
            elif seg != part:
                return None
        return params


class Router:
    """Ordered route table with template parameters.

    Routes are bucketed by segment count, in registration order within a
    bucket: a request path is split once and matched only against the
    routes of its length.
    """

    def __init__(self) -> None:
        self._routes: list[_Route] = []
        self._by_length: dict[int, list[_Route]] = {}

    def add(self, method: str, template: str, handler: Handler) -> None:
        for route in self._routes:
            if route.method == method.upper() and route.template == template:
                raise DaemonError(f"route {method} {template} already registered")
        route = _Route(method, template, handler)
        self._routes.append(route)
        self._by_length.setdefault(len(route.segments), []).append(route)

    def routes(self) -> list[tuple[str, str]]:
        return [(r.method, r.template) for r in self._routes]

    def dispatch(self, request: Request) -> Response:
        """Route + invoke; converts handler errors to status codes.

        Unknown path -> 404; known path with the wrong method -> 405.
        """
        parts = [s for s in request.path.split("/") if s]
        method = request.method.upper()
        matched_path = False
        for route in self._by_length.get(len(parts), ()):
            params = route.match(parts)
            if params is None:
                continue
            matched_path = True
            if route.method != method:
                continue
            request.params = params
            try:
                return route.handler(request)
            except HttpError as err:
                return Response(status=err.status, body={"error": err.message})
            except Exception as err:  # handler bug -> 500, never a crash
                return Response(
                    status=500,
                    body={"error": f"{type(err).__name__}: {err}"},
                )
        status = 405 if matched_path else 404
        return Response(
            status=status,
            body={"error": f"no route for {request.method} {request.path}"},
        )
