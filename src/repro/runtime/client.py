"""REST client for daemon mode.

Wraps a :class:`~repro.daemon.http.Router` (the in-process transport)
with the call conventions a real HTTP client would use: base token
handling, JSON bodies, error mapping.  Every method corresponds to one
route in :mod:`repro.daemon.api`.  A job has one way in, ``POST /jobs``
with a whole :class:`~repro.spec.JobSpec` (:meth:`DaemonClient.submit`);
:class:`~repro.session.Session` submits daemon-bound specs through it,
and :class:`~repro.runtime.RuntimeEnvironment` in daemon mode goes
through its session.
"""

from __future__ import annotations

from typing import Any

from ..daemon.http import Request, Response, Router
from ..errors import DaemonError, SpecError, ValidationError
from ..spec import JobSpec, require_spec

__all__ = ["DaemonClient"]


class DaemonClient:
    """Typed client over the daemon's REST surface."""

    def __init__(self, router: Router, token: str = "") -> None:
        self.router = router
        self.token = token

    def _call(
        self, method: str, path: str, body: dict | None = None, token: str | None = None
    ) -> Response:
        headers = {}
        bearer = self.token if token is None else token
        if bearer:
            headers["Authorization"] = f"Bearer {bearer}"
        response = self.router.dispatch(
            Request(method=method, path=path, body=body or {}, headers=headers)
        )
        if not response.ok:
            error = response.body.get("error", "unknown error")
            if response.status == 422:
                raise ValidationError(error, violations=response.body.get("violations", []))
            if response.body.get("error_type") == "SpecError":
                raise SpecError(error)
            raise DaemonError(f"{response.status}: {error}")
        return response

    # -- sessions -----------------------------------------------------------

    def open_session(
        self,
        user: str,
        priority_class: str = "development",
        slurm_partition: str | None = None,
        slurm_job_id: int | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"user": user, "priority_class": priority_class}
        if slurm_partition is not None:
            body["slurm_partition"] = slurm_partition
        if slurm_job_id is not None:
            body["slurm_job_id"] = slurm_job_id
        response = self._call("POST", "/sessions", body)
        self.token = response.body["token"]
        return response.body

    # -- tasks --------------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """``POST /jobs``: ship one :class:`~repro.spec.JobSpec` as the
        request body and return the new task id.  The whole spec
        travels — tenant, metadata (a trace context included) and the
        scheduling ``algorithm`` land on the daemon task.  The daemon is
        the trust boundary: it validates the spec, fills an unset
        tenant with the session's user, refuses a multi-unit spec and
        falls back to its only resource when none is named.  Anything
        but a spec raises :class:`~repro.errors.SpecError` here."""
        body = require_spec(spec, "DaemonClient.submit").to_dict()
        return self._call("POST", "/jobs", body).body["task_id"]

    def status(self, task_id: str) -> dict[str, Any]:
        return self._call("GET", f"/tasks/{task_id}").body

    def result(self, task_id: str) -> dict[str, Any]:
        return self._call("GET", f"/tasks/{task_id}/result").body

    def job_metadata(self, task_id: str) -> dict[str, Any]:
        return self._call("GET", f"/tasks/{task_id}/metadata").body

    # -- discovery -------------------------------------------------------------

    def resources(self) -> list[dict[str, Any]]:
        return self._call("GET", "/resources").body["resources"]

    def target(self, resource: str) -> dict[str, Any]:
        return self._call("GET", f"/resources/{resource}/target").body

    def sdks(self) -> list[str]:
        return self._call("GET", "/sdks").body["sdks"]

    def metrics_text(self) -> str:
        return self._call("GET", "/metrics").body["text"]
