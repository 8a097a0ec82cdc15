"""Session: the one submission surface over every backend.

A :class:`~repro.spec.JobSpec` describes *what* to run; a
:class:`Session` decides *where* — the local middleware daemon, the
multi-site federation broker, or the cloud gateway — from the spec and
the backends this session was built with, and hands back a uniform
:class:`JobHandle`.  The same spec object submits unchanged through all
three doors:

>>> spec = JobSpec(program=program, shots=200)
>>> session = Session(daemon=daemon, federation=broker)
>>> handle = session.submit(spec)          # backend picked from the spec
>>> result = sim.run_until_process(sim.spawn(handle.wait()))

Backend choice (see :meth:`Session.backend_for`): a spec that declares
federation-shaped placement (``sites``, ``iterations``, a ``pin``, or a
qualified ``site/resource`` target) goes to the federation; a plain
spec goes to the local daemon when one is wired, else the federation,
else the cloud gateway.  ``backend=`` overrides.  A
:class:`~repro.runtime.RuntimeEnvironment` reaches a daemon or a
broker through one session too: its ``run_process`` is a submit here
and a ``handle.wait()``.

A session listens on one :class:`~repro.federation.events.LifecycleBus`
(:attr:`Session.events`), onto which each backend daemon publishes its
queue's transitions once, however many sessions share it.
``JobHandle.wait()`` wakes on the pushed terminal event and
``JobHandle.on(...)`` delivers per-job callbacks.

With :meth:`Session.attach_tracer` each submission additionally opens
a root span, the spec carries its
:class:`~repro.observability.tracing.TraceContext` into the backend,
and every stage (admission, placement, queue wait, execution, dispatch,
result fetch) lands as a child span — the whole tree is retrievable by
job id from the returned :class:`~repro.observability.tracing.Tracer`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from .errors import DaemonError, SessionError, SpecError
from .federation.events import TERMINAL_TASK_KINDS, LifecycleBus, wait_for
from .runtime.backend_select import select_resource, spec_request
from .runtime.results import RunResult
from .spec import JobSpec, require_spec

__all__ = ["JobHandle", "Session"]


class JobHandle:
    """One submitted job, whatever backend it landed on."""

    def __init__(
        self,
        session: "Session",
        spec: JobSpec,
        job_id: str,
        backend: str,
        token: str = "",
    ) -> None:
        self._session = session
        self.spec = spec
        self.job_id = job_id
        self.backend = backend
        #: daemon-backend REST token — each priority class owns its own
        #: session, so the handle must carry the one that owns its task
        self._token = token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self.job_id!r}, backend={self.backend!r})"

    # -- queries --------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Backend status document; always carries ``state``."""
        return self._session._backend_status(self)

    def done(self) -> bool:
        return self.status()["state"] in TERMINAL_TASK_KINDS

    def result(self) -> RunResult:
        """The uniform result, whichever backend executed the job."""
        return self._session._backend_result(self)

    # -- lifecycle events ------------------------------------------------------

    def _event_filter(self) -> tuple[str, str | None]:
        """(job id, site filter) for bus subscriptions.  Federation jobs
        are tracked by broker-level ``job_*`` events (federation-unique
        ids, no site filter); daemon/cloud tasks by the queue's own task
        transitions — those ids are only unique per daemon, so the
        subscription is pinned to the label its daemon publishes under."""
        if self.backend == "federation":
            return self.job_id, None
        session = self._session
        daemon = session.daemon if self.backend == "daemon" else session.cloud.daemon
        return self.job_id, daemon.site

    def on(self, callback, kinds: tuple[str, ...] | None = None) -> int:
        """Subscribe ``callback(event)`` to this job's lifecycle events;
        returns the handle for ``session.events.unsubscribe``."""
        job_id, site = self._event_filter()
        return self._session.events.subscribe(
            callback, job_id=job_id, kinds=kinds, site=site
        )

    def wait(self):
        """Generator form: yield it from a simulated process; returns
        the :class:`~repro.runtime.results.RunResult`.

        It reads the status once; a job not yet terminal is then waited
        for on the *pushed* terminal transition alone, with no timer and
        no further status read.  The broker advances every unit of a
        federated job, fixed-size or malleable, at its task's pushed
        transition.  Releasing a budget-held job and dispatching a
        malleable job's remaining units take its housekeeping sweep
        (:meth:`~repro.federation.FederationBroker.spawn_housekeeping`);
        when the job needs one and no sweep runs — on entry, or after a
        unit loses its task — this raises
        :class:`~repro.errors.FederationError` instead of waiting
        forever (see :meth:`~repro.federation.FederationBroker.wait`).
        """
        if self.status()["state"] not in TERMINAL_TASK_KINDS:
            session = self._session
            if self.backend == "federation":
                yield from session.federation.wait(self.job_id)
            else:
                job_id, site = self._event_filter()
                yield from wait_for(session.sim, session.events, job_id, TERMINAL_TASK_KINDS, site)
        return self.result()


class Session:
    """Facade routing :class:`~repro.spec.JobSpec` submissions to the
    right backend.  Wire in any subset of:

    * ``daemon`` — a :class:`~repro.daemon.service.MiddlewareDaemon`
      (the session speaks to it through the standard REST router),
    * ``federation`` — a :class:`~repro.federation.FederationBroker`,
    * ``cloud`` — a :class:`~repro.daemon.cloud.CloudGateway` plus the
      ``cloud_api_key`` identifying this session's tenant.

    Inside a Slurm job, ``slurm_partition`` and ``slurm_job_id`` go to
    every daemon session this session opens: the daemon derives the
    queue priority from the partition (paper §3.3), not from the spec.
    """

    def __init__(
        self,
        daemon=None,
        federation=None,
        cloud=None,
        cloud_api_key: str = "",
        user: str = "user",
        slurm_partition: str | None = None,
        slurm_job_id: int | None = None,
    ) -> None:
        if daemon is None and federation is None and cloud is None:
            raise DaemonError("session needs at least one backend")
        if cloud is not None and not cloud_api_key:
            raise DaemonError("a cloud backend needs cloud_api_key=")
        self.daemon = daemon
        self.federation = federation
        self.cloud = cloud
        self.cloud_api_key = cloud_api_key
        self.user = user
        self.slurm_partition = slurm_partition
        self.slurm_job_id = slurm_job_id
        self.tracer = None
        self._daemon_client = None
        self._fed_client = None
        #: one REST session token per priority class — priority lives on
        #: the daemon session, so specs of different classes cannot
        #: share one (the first submission's class would silently win)
        self._daemon_tokens: dict[str, str] = {}
        # other backend daemons move onto this session's bus; one already
        # on it keeps its label.  Only a daemon alone on the bus it was
        # built with moves: moving one that others use strands their waits
        bus = self.events
        for backend_daemon, label in ((daemon, "local"), (cloud and cloud.daemon, "cloud")):
            if backend_daemon is None or backend_daemon.events is bus:
                continue
            if backend_daemon.events is not backend_daemon.home_events or backend_daemon.events.subscriber_count():
                raise DaemonError(f"the {label} daemon publishes onto a lifecycle bus others use; it cannot join this one")
            backend_daemon.attach_bus(bus, label)

    @property
    def events(self) -> LifecycleBus:
        """The broker's bus, else the daemon's, else the gateway's."""
        if self.federation is not None:
            return self.federation.events
        if self.daemon is not None:
            return self.daemon.events
        return self.cloud.daemon.events

    # -- wiring ---------------------------------------------------------------

    @property
    def sim(self):
        """The shared simulated clock behind whichever backends exist."""
        if self.federation is not None:
            return self.federation.sim
        if self.daemon is not None:
            return self.daemon.sim
        return self.cloud.daemon.sim

    def attach_events(self) -> LifecycleBus:
        """The session's lifecycle bus (:attr:`events`), which every
        backend publishes onto from construction on."""
        return self.events

    def attach_tracer(self, tracer=None):
        """Join the tracing plane: wire a
        :class:`~repro.observability.tracing.Tracer` into the bus and
        the federation broker, and make it the simulator's tracer, on
        which every daemon scheduler opens its dispatch spans — so each
        submission from here on yields a complete span tree.
        Idempotent; returns the tracer.  Raises
        :class:`~repro.errors.ObservabilityError` if the simulator
        already has a different tracer."""
        if self.tracer is not None:
            return self.tracer
        from .observability.tracing import Tracer

        tracer = tracer if tracer is not None else Tracer()
        tracer.attach_sim(self.sim)
        tracer.attach_bus(self.events)
        if self.federation is not None:
            self.federation.attach_tracer(tracer)
        self.tracer = tracer
        return tracer

    # -- backend choice --------------------------------------------------------

    def backend_for(self, spec: JobSpec) -> str:
        """Which backend a spec routes to: federation-shaped placement
        (``sites``/``iterations``/``pin``/qualified ``site/resource``)
        needs the broker; plain specs prefer the local daemon, then the
        federation, then the cloud gateway."""
        if spec.is_multi or spec.pin is not None:
            if self.federation is None:
                raise SpecError(
                    "spec declares federation placement but this session "
                    "has no federation backend"
                )
            return "federation"
        if (
            spec.resource is not None
            and "/" in spec.resource
            and self.federation is not None
            and self.federation.has_resource(spec.resource)
        ):
            return "federation"
        if self.daemon is not None:
            return "daemon"
        if self.federation is not None:
            return "federation"
        return "cloud"

    # -- discovery -------------------------------------------------------------

    def resources(self) -> dict[str, str]:
        """``name -> type`` of the local daemon's catalog, over REST."""
        return {m["name"]: m["type"] for m in self._client().resources()}

    def target(self, resource: str) -> dict[str, Any]:
        """The current spec document of ``resource``, from the daemon
        over REST, else from the federation."""
        if self.daemon is None:
            return self.federation.target(resource)
        return self._client().target(resource)

    # -- submission ------------------------------------------------------------

    def submit(self, spec: JobSpec, backend: str | None = None) -> JobHandle:
        """Submit one spec; returns the uniform :class:`JobHandle`.

        A spec bound for the daemon is validated once, at the daemon's
        REST boundary (``POST /jobs``), which fills an unset tenant with
        this session's user; a spec for any other backend is validated
        here."""
        spec = require_spec(spec, "Session.submit")
        backend = backend or self.backend_for(spec)
        if backend != "daemon":
            spec = spec.validate(default_tenant=self.user)
        root = None
        if self.tracer is not None:
            tenant = spec.tenant if spec.tenant is not None else self.user
            root = self.tracer.start_trace(
                "job", self.sim.now, tenant=tenant, backend=backend
            )
            if backend == "federation":
                # the broker re-binds the job from this propagated
                # context, so its spans join the session's trace
                spec = replace(
                    spec,
                    metadata={
                        **spec.metadata,
                        "trace_context": self.tracer.context(root).to_dict(),
                    },
                )
        token = ""
        if backend == "daemon":
            job_id, token = self._submit_daemon(spec)
        elif backend == "federation":
            job_id = self._fed().submit_spec(spec)
        elif backend == "cloud":
            job_id = self._submit_cloud(spec)
        else:
            raise SpecError(f"unknown backend {backend!r}")
        if root is not None and backend != "federation":
            self.tracer.bind_job(job_id, root)
            if backend == "daemon":
                # the queue task *is* the job: its job record closes the
                # whole trace.  Binding right after submit is race-free —
                # the scheduler runs in a simulated process that cannot
                # have advanced yet.
                self.tracer.bind_task(self.daemon.site, job_id, root)
        return JobHandle(self, spec, job_id, backend, token=token)

    # -- daemon backend --------------------------------------------------------

    def _client(self):
        if self._daemon_client is None:
            from .daemon.api import build_router
            from .runtime.client import DaemonClient

            self._daemon_client = DaemonClient(build_router(self.daemon))
        return self._daemon_client

    def _fed(self):
        if self._fed_client is None:
            from .federation.client import FederatedClient

            self._fed_client = FederatedClient(self.federation, user=self.user)
        return self._fed_client

    def _daemon_token(self, priority_class: str) -> str:
        """The REST session token for one priority class, opened on
        first use and reopened after idle expiry — each class gets its
        own session so the daemon sees the class every spec declares,
        not the first submission's."""
        token = self._daemon_tokens.get(priority_class)
        if token is not None:
            try:
                self.daemon.resolve_session(token)
                return token
            except SessionError:
                pass  # idle-expired: open a fresh one
        client = self._client()
        client.token = ""
        client.open_session(
            self.user,
            priority_class=priority_class,
            slurm_partition=self.slurm_partition,
            slurm_job_id=self.slurm_job_id,
        )
        token = self._daemon_tokens[priority_class] = client.token
        return token

    def _submit_daemon(self, spec: JobSpec) -> tuple[str, str]:
        client = self._client()
        client.token = self._daemon_token(spec.priority_class)
        if spec.resource is None:
            spec = replace(
                spec,
                resource=select_resource(self.resources(), requested=spec_request(spec)),
            )
        # POST /jobs ships the whole spec: tenant, metadata, and the
        # scheduling-algorithm selection land on the daemon task
        return client.submit(spec), client.token

    def _submit_cloud(self, spec: JobSpec) -> str:
        if self.cloud is None:
            raise DaemonError("this session has no cloud backend")
        if spec.resource is None:
            available = {
                m["name"]: m["type"] for m in self.cloud.daemon.list_resources()
            }
            spec = replace(
                spec,
                resource=select_resource(available, requested=spec_request(spec)),
            )
        return self.cloud.submit(self.cloud_api_key, spec)

    # -- handle plumbing -------------------------------------------------------

    def _backend_status(self, handle: JobHandle) -> dict[str, Any]:
        if handle.backend == "daemon":
            client = self._client()
            client.token = handle._token
            return client.status(handle.job_id)
        if handle.backend == "cloud":
            return self.cloud.status(self.cloud_api_key, handle.job_id)
        return self.federation.status(handle.job_id)

    def _backend_result(self, handle: JobHandle) -> RunResult:
        spec = handle.spec
        if handle.backend == "daemon":
            return self._daemon_result(handle)
        if handle.backend == "cloud":
            emulation = self.cloud.result(self.cloud_api_key, handle.job_id)
            result = RunResult.from_emulation(
                emulation, f"cloud/{handle.job_id}", spec.program.content_hash()
            )
            result.metadata["cloud_tenant"] = spec.tenant
            return result
        return self._fed().result(handle.job_id)

    def _daemon_result(self, handle: JobHandle) -> RunResult:
        client = self._client()
        client.token = handle._token
        body = client.result(handle.job_id)
        wait = 0.0
        if body["started_at"] is not None:
            wait = body["started_at"] - body["enqueued_at"]
        return RunResult(
            counts=dict(body["counts"]),
            shots=body["shots"],
            backend=body["backend"],
            resource=handle.spec.resource or "daemon",
            program_hash=body["program_hash"],
            queue_wait_s=wait,
            execution_s=float(body["metadata"].get("execution_seconds", 0.0)),
            metadata=dict(body["metadata"]),
        )
