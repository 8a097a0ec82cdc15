"""REST route table over the daemon.

The paper's RESTful API (§3.3), "limited to managing the currently
running jobs and sessions of the QPU", plus the admin/observability
surface of Figure 2.  Routes:

User (bearer token = session token unless noted):

    POST   /sessions                      open a session (no token)
    POST   /jobs                          submit a JobSpec dict (the one submission route)
    GET    /tasks/{id}                    status
    GET    /tasks/{id}/result             counts, metadata, program digest, queue timestamps
    GET    /tasks/{id}/metadata           per-job metadata (paper §2.5)
    GET    /resources                     resource discovery (no token)
    GET    /resources/{name}/target       current device specs (no token)
    GET    /sdks                          supported SDKs (no token)
    GET    /metrics                       Prometheus exposition (no token)
    GET    /healthz                      liveness/readiness summary (no token)
    GET    /profiles                     per-workload phase profiles (no token)

Admin (bearer token must have the ADMIN role):

    GET    /admin/queue                   queue statistics
    GET    /admin/sessions                active sessions
    DELETE /admin/sessions/{id}           force-close a session
    DELETE /admin/tasks/{id}              cancel a queued task
    POST   /admin/devices/{name}/maintenance        start maintenance
    DELETE /admin/devices/{name}/maintenance        finish + recalibrate
    POST   /admin/devices/{name}/qa       run the QA reference job
    GET    /admin/devices/{name}/telemetry
    GET    /admin/devices/{name}/lowlevel            read calibration params
    PUT    /admin/devices/{name}/lowlevel/{param}    guarded write
    GET    /admin/alerts                  firing alerts
"""

from __future__ import annotations

from ..errors import DaemonError, QueueError, ReproError, SessionError, SpecError, ValidationError
from .auth import Role
from .http import HttpError, Request, Response, Router
from .service import MiddlewareDaemon

__all__ = ["build_router"]


def _wrap(fn):
    """Convert stack errors into HTTP statuses."""

    def handler(request: Request) -> Response:
        try:
            return fn(request)
        except HttpError:
            raise
        except ValidationError as err:
            return Response(
                status=422, body={"error": str(err), "violations": err.violations}
            )
        except SessionError as err:
            return Response(status=401, body={"error": str(err)})
        except QueueError as err:
            return Response(status=404, body={"error": str(err)})
        except DaemonError as err:
            message = str(err)
            status = 404 if "unknown" in message else 400
            return Response(status=status, body={"error": message})
        except SpecError as err:
            # typed, so a client re-raises a spec refused here as the
            # SpecError an in-process intake raises
            return Response(status=400, body={"error": str(err), "error_type": "SpecError"})
        except ReproError as err:
            return Response(status=400, body={"error": str(err)})

    return handler


def build_router(daemon: MiddlewareDaemon) -> Router:
    router = Router()

    def require_admin(request: Request) -> str:
        try:
            return daemon.tokens.require_role(request.token, Role.ADMIN)
        except ReproError as err:
            raise HttpError(403, str(err)) from err

    # -- user surface ---------------------------------------------------------

    @_wrap
    def create_session(request: Request) -> Response:
        body = request.body
        if "user" not in body:
            raise HttpError(400, "body must include 'user'")
        session = daemon.create_session(
            user=body["user"],
            priority_class=body.get("priority_class", "development"),
            slurm_partition=body.get("slurm_partition"),
            slurm_job_id=body.get("slurm_job_id"),
        )
        return Response(
            status=201,
            body={
                "session_id": session.session_id,
                "token": session.token,
                "priority_class": session.priority_class.label,
            },
        )

    @_wrap
    def submit_job(request: Request) -> Response:
        body = request.body
        if "program" not in body:
            raise HttpError(400, "body must include 'program'")
        task = daemon.submit_spec(token=request.token, spec=body)
        return Response(
            status=202,
            body={
                "task_id": task.task_id,
                "state": task.state.value,
                "priority": task.priority.label,
                "metadata": dict(task.metadata),
            },
        )

    @_wrap
    def task_status(request: Request) -> Response:
        return Response(body=daemon.task_status(request.token, request.params["id"]))

    @_wrap
    def task_result(request: Request) -> Response:
        task = daemon.finished_task(request.token, request.params["id"])
        result = task.result
        # the digest of the program that ran and the queue timestamps
        # ride along: a client builds its whole result from this one read
        return Response(
            body={
                "counts": result.counts,
                "shots": result.shots,
                "backend": result.backend,
                "metadata": result.metadata,
                "program_hash": task.program.content_hash(),
                "enqueued_at": task.enqueued_at,
                "started_at": task.started_at,
            }
        )

    @_wrap
    def task_metadata(request: Request) -> Response:
        return Response(body=daemon.job_metadata(request.token, request.params["id"]))

    @_wrap
    def list_resources(request: Request) -> Response:
        return Response(body={"resources": daemon.list_resources()})

    @_wrap
    def resource_target(request: Request) -> Response:
        return Response(body=daemon.resource_target(request.params["name"]))

    @_wrap
    def list_sdks(request: Request) -> Response:
        return Response(body={"sdks": daemon.supported_sdks()})

    @_wrap
    def metrics(request: Request) -> Response:
        return Response(body={"text": daemon.metrics_text()})

    @_wrap
    def healthz(request: Request) -> Response:
        return Response(body=daemon.healthz())

    @_wrap
    def profiles(request: Request) -> Response:
        return Response(body={"profiles": daemon.profiles.snapshot()})

    router.add("POST", "/sessions", create_session)
    router.add("POST", "/jobs", submit_job)
    router.add("GET", "/tasks/{id}", task_status)
    router.add("GET", "/tasks/{id}/result", task_result)
    router.add("GET", "/tasks/{id}/metadata", task_metadata)
    router.add("GET", "/resources", list_resources)
    router.add("GET", "/resources/{name}/target", resource_target)
    router.add("GET", "/sdks", list_sdks)
    router.add("GET", "/metrics", metrics)
    router.add("GET", "/healthz", healthz)
    router.add("GET", "/profiles", profiles)

    # -- admin surface -----------------------------------------------------------

    @_wrap
    def admin_queue(request: Request) -> Response:
        require_admin(request)
        return Response(body=daemon.admin_ops.queue_stats())

    @_wrap
    def admin_sessions(request: Request) -> Response:
        require_admin(request)
        return Response(body={"sessions": daemon.admin_ops.list_sessions()})

    @_wrap
    def admin_close_session(request: Request) -> Response:
        require_admin(request)
        return Response(body=daemon.admin_ops.close_session(request.params["id"]))

    @_wrap
    def admin_cancel_task(request: Request) -> Response:
        require_admin(request)
        return Response(body=daemon.admin_ops.cancel_task(request.params["id"]))

    @_wrap
    def admin_start_maintenance(request: Request) -> Response:
        require_admin(request)
        return Response(body=daemon.admin_ops.start_maintenance(request.params["name"]))

    @_wrap
    def admin_finish_maintenance(request: Request) -> Response:
        require_admin(request)
        return Response(body=daemon.admin_ops.finish_maintenance(request.params["name"]))

    @_wrap
    def admin_qa(request: Request) -> Response:
        require_admin(request)
        shots = int(request.body.get("shots", 200))
        return Response(body=daemon.admin_ops.run_qa(request.params["name"], shots=shots))

    @_wrap
    def admin_telemetry(request: Request) -> Response:
        require_admin(request)
        return Response(body=daemon.telemetry(request.params["name"]))

    @_wrap
    def admin_lowlevel_read(request: Request) -> Response:
        require_admin(request)
        return Response(
            body={
                "parameters": daemon.admin_ops.lowlevel_read(request.params["name"]),
                "writable": daemon.lowlevel_for(request.params["name"]).writable_parameters(),
            }
        )

    @_wrap
    def admin_lowlevel_write(request: Request) -> Response:
        actor = require_admin(request)
        if "value" not in request.body:
            raise HttpError(400, "body must include 'value'")
        return Response(
            body=daemon.admin_ops.lowlevel_write(
                request.params["name"],
                request.params["param"],
                float(request.body["value"]),
                actor=actor,
            )
        )

    @_wrap
    def admin_alerts(request: Request) -> Response:
        require_admin(request)
        return Response(body={"firing": daemon.evaluate_alerts()})

    router.add("GET", "/admin/queue", admin_queue)
    router.add("GET", "/admin/sessions", admin_sessions)
    router.add("DELETE", "/admin/sessions/{id}", admin_close_session)
    router.add("DELETE", "/admin/tasks/{id}", admin_cancel_task)
    router.add("POST", "/admin/devices/{name}/maintenance", admin_start_maintenance)
    router.add("DELETE", "/admin/devices/{name}/maintenance", admin_finish_maintenance)
    router.add("POST", "/admin/devices/{name}/qa", admin_qa)
    router.add("GET", "/admin/devices/{name}/telemetry", admin_telemetry)
    router.add("GET", "/admin/devices/{name}/lowlevel", admin_lowlevel_read)
    router.add("PUT", "/admin/devices/{name}/lowlevel/{param}", admin_lowlevel_write)
    router.add("GET", "/admin/alerts", admin_alerts)

    return router
