"""RuntimeEnvironment: one interface from laptop to QPU.

The object a user's hybrid program holds.  The *same* calls work in
every environment of Figure 1:

* **direct mode** (:meth:`from_config`) — resources come from QRMI
  environment variables and execute in-process.  This is the developer
  laptop and also what a Slurm job uses when it talks to QRMI without
  the daemon.
* **daemon mode** (:meth:`with_daemon`) — jobs go through one
  :class:`~repro.session.Session` on the middleware daemon, whose REST
  session token and second-level scheduler decide when the QPU runs
  the task.
* **federated** — a :class:`~repro.session.Session` on a federation
  broker: names missing from the local catalog resolve to the broker's
  ``site/resource`` targets.

In every mode ``run_process()``:

1. resolves the target via the ``--qpu`` switching policy,
2. fetches the target's *current* spec document,
3. validates the program against it (point-of-execution validation),
4. executes, returning a uniform :class:`RunResult` — in process, or by
   submitting one :class:`~repro.spec.JobSpec` through the session and
   waiting on its handle for the pushed terminal event.

``run()`` does the same synchronously, for in-process targets only.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

from ..config import ConfigSource
from ..errors import QRMIError, TaskError
from ..qrmi.env import load_resources
from ..qrmi.interface import QuantumResource, TaskStatus
from ..sdk.registry import SDKRegistry, default_registry
from ..spec import JobSpec
from .backend_select import select_resource, spec_request
from .results import RunResult
from .validation import ensure_valid

if TYPE_CHECKING:
    from ..session import Session

__all__ = ["RuntimeEnvironment"]


class RuntimeEnvironment:
    """Portable execution environment for hybrid programs."""

    def __init__(
        self,
        resources: dict[str, QuantumResource] | None = None,
        session: Session | None = None,
        default_resource: str | None = None,
        sdk_registry: SDKRegistry | None = None,
    ) -> None:
        if resources is None and session is None:
            raise QRMIError("runtime needs QRMI resources or a session")
        self.resources = resources or {}
        #: the one way to a daemon or a federation broker
        self.session = session
        self.default_resource = default_resource
        self.sdk_registry = sdk_registry or default_registry()
        #: the priority class of every daemon submission (set by
        #: :meth:`with_daemon`); ``None`` keeps each spec's own
        self.priority_class: str | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_config(cls, config: ConfigSource, devices: dict | None = None) -> "RuntimeEnvironment":
        """Direct mode from QRMI environment variables."""
        return cls(
            resources=load_resources(config, devices),
            default_resource=config.get("QRMI_DEFAULT_RESOURCE") or None,
        )

    @classmethod
    def with_daemon(
        cls,
        daemon,
        user: str = "user",
        priority_class: str = "development",
        slurm_partition: str | None = None,
        slurm_job_id: int | None = None,
        default_resource: str | None = None,
    ) -> "RuntimeEnvironment":
        """Daemon mode: every job goes through one
        :class:`~repro.session.Session` on ``daemon``, which opens its
        REST session on the first submission (with the Slurm partition
        and job id, when given)."""
        from ..session import Session

        session = Session(
            daemon=daemon,
            user=user,
            slurm_partition=slurm_partition,
            slurm_job_id=slurm_job_id,
        )
        env = cls(session=session, default_resource=default_resource)
        env.priority_class = priority_class
        return env

    # -- discovery --------------------------------------------------------------

    @property
    def _federation(self):
        """The broker behind a daemon-less session, consulted for names
        the local catalog lacks; ``None`` otherwise."""
        if self.session is None or self.session.daemon is not None:
            return None
        return self.session.federation

    def available_resources(self) -> dict[str, str]:
        """name -> type for the local catalog plus, in daemon mode, the
        daemon's (federated names resolve through :meth:`resolve`)."""
        available = {name: res.resource_type for name, res in self.resources.items()}
        if self.session is not None and self.session.daemon is not None:
            available.update(self.session.resources())
        return available

    def _via_session(self, resource: str) -> bool:
        """Does ``resource`` run through the session rather than in
        process: a daemon's resource, or a federated ``site/resource``
        that the local catalog lacks?"""
        if self.session is None or resource in self.resources:
            return False
        federation = self._federation
        return federation is None or federation.has_resource(resource)

    def fetch_target(self, resource: str) -> dict[str, Any]:
        """Fresh spec document for a resource."""
        if resource in self.resources:
            return self.resources[resource].target()
        if self._via_session(resource):
            return self.session.target(resource)
        raise QRMIError(f"unknown resource {resource!r}")

    def resolve(
        self, qpu: str | tuple[str, ...] | list[str] | None = None
    ) -> str | tuple[str, ...]:
        """Resolve ``--qpu``; a tuple/list request resolves every leg
        and returns a multi-site placement (see :meth:`run_process`)."""
        return select_resource(
            self.available_resources(),
            requested=qpu,
            env_default=self.default_resource,
            federation=self._federation,
        )

    # -- execution ---------------------------------------------------------------

    def _as_spec(self, program: Any, shots: int | None) -> JobSpec:
        """Normalize any submission payload to a validated
        :class:`~repro.spec.JobSpec` — the one place IR lowering and
        shot resolution happen (an explicit ``shots=`` argument wins
        over the spec's own request).  An unset tenant becomes the
        session's user, as :meth:`Session.submit` would fill it."""
        spec = program if isinstance(program, JobSpec) else JobSpec(program=program)
        if shots is not None and spec.shots != shots:
            spec = replace(spec, shots=shots)
        if self.session is None:
            return spec.validate()
        return spec.validate(default_tenant=self.session.user)

    def run(self, program: Any, qpu: str | None = None, shots: int | None = None) -> RunResult:
        """Execute a program (any SDK object / IR / dict / JobSpec) in
        process and return the result.  A job bound for a daemon or a
        federation finishes on the simulated clock, so it raises
        :class:`~repro.errors.TaskError`, before submitting: yield
        :meth:`run_process` from a simulated job instead."""
        spec = self._as_spec(program, shots)
        if spec.is_multi:
            raise TaskError(
                "multi-unit specs are asynchronous by construction; "
                "use run_process() from a simulated job (or Session.submit)"
            )
        resource = self.resolve(qpu if qpu is not None else spec_request(spec))
        if isinstance(resource, tuple):
            raise TaskError(
                "multi-site placements are asynchronous by construction; "
                "use run_process() from a simulated job"
            )
        ensure_valid(spec.program, self.fetch_target(resource))
        if self._via_session(resource):
            raise TaskError(
                f"resource {resource!r} runs through a daemon or federation "
                "session; use run_process() from a simulated job (or Session.submit)"
            )
        return self._run_direct(spec.program, resource)

    def _run_direct(self, ir, resource: str) -> RunResult:
        backend = self.resources[resource]
        task_id = backend.task_start(ir)
        status = backend.task_status(task_id)
        if status is not TaskStatus.COMPLETED:
            task = backend.tasks[task_id]
            raise TaskError(f"task {task_id} ended {status.value}: {task.error}")
        emulation = backend.task_result(task_id)
        return RunResult.from_emulation(emulation, resource, ir.content_hash())

    def run_process(
        self,
        program: Any,
        qpu: str | tuple[str, ...] | list[str] | None = None,
        shots: int | None = None,
        iterations: int | None = None,
    ):
        """Generator form of :meth:`run`: yield it from a simulated job.
        A job for a daemon or a federation is submitted through the
        session, and the generator waits on its handle for the pushed
        terminal event (see :meth:`~repro.session.JobHandle.wait`).  In
        direct mode it completes synchronously (no yields).

        A tuple/list ``qpu`` is a *multi-site placement*: the program
        runs as a malleable federated job of ``iterations`` burst units
        (default: two per named site) spread over exactly those
        ``site/resource`` legs, with the broker's resize loop shifting
        the remaining units between them as load and health move.

        ``program`` may be a :class:`~repro.spec.JobSpec`: its
        ``resource``/``pin``/``sites`` fields stand in for ``qpu=`` and
        its ``iterations`` for ``iterations=`` (explicit arguments
        win); its other fields travel with the job."""
        spec = self._as_spec(program, shots)
        if qpu is None:
            qpu = spec_request(spec)
            if iterations is None and spec.sites is not None:
                iterations = spec.iterations
        resource = self.resolve(qpu)
        if spec.iterations is not None and not isinstance(resource, tuple):
            # a declared multi-unit job must not silently run as one
            # fixed execution — the broker path honors the declaration
            raise TaskError(
                "spec declares iterations but resolves to a single "
                "resource; give sites=('site/resource', ...) legs or "
                "submit through Session/FederationBroker"
            )
        if isinstance(resource, tuple):
            if self._federation is None:
                raise TaskError("multi-site placements need a federation session")
            for name in resource:
                if not self._via_session(name):
                    # a local catalog name resolves, but it is not a
                    # site the broker can hold a share on — rejecting
                    # beats silently running every unit elsewhere
                    raise TaskError(
                        f"multi-site placement leg {name!r} is not a "
                        "federated site/resource"
                    )
                ensure_valid(spec.program, self.fetch_target(name))
            if iterations is None:
                iterations = 2 * len(resource)
            spec = replace(spec, resource=None, pin=None, sites=resource, iterations=iterations)
        else:
            if iterations is not None:
                raise TaskError(
                    "iterations= only applies to multi-site (tuple) placements"
                )
            ensure_valid(spec.program, self.fetch_target(resource))
            if not self._via_session(resource):
                # direct mode: synchronous, but keep the generator protocol
                return self._run_direct(spec.program, resource)
            if self._federation is not None:
                # pin to the resolved site/resource: the --qpu contract
                # means the job runs exactly where it was validated, not
                # wherever the routing policy would send it
                spec = replace(spec, resource=None, pin=resource)
            else:
                spec = replace(
                    spec,
                    resource=resource,
                    priority_class=self.priority_class or spec.priority_class,
                )
        return (yield from self.session.submit(spec).wait())
