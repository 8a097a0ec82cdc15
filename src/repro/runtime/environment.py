"""RuntimeEnvironment: one interface from laptop to QPU.

The object a user's hybrid program holds.  The *same* calls work in
every environment of Figure 1:

* **direct mode** (:meth:`from_config`) — resources come from QRMI
  environment variables and execute in-process.  This is the developer
  laptop and also what a Slurm job uses when it talks to QRMI without
  the daemon.
* **daemon mode** (:meth:`with_daemon`) — calls go through the
  middleware's REST API with a session token; the second-level
  scheduler decides when the QPU runs the task.

In both modes ``run()``:

1. resolves the target via the ``--qpu`` switching policy,
2. fetches the target's *current* spec document,
3. validates the program against it (point-of-execution validation),
4. executes, returning a uniform :class:`RunResult`.
"""

from __future__ import annotations

from typing import Any

from ..config import ConfigSource
from ..errors import QRMIError, TaskError
from ..qrmi.env import load_resources
from ..qrmi.interface import QuantumResource, TaskStatus
from ..sdk.registry import SDKRegistry, default_registry
from ..simkernel import Timeout
from ..spec import JobSpec
from .backend_select import select_resource, spec_request
from .client import DaemonClient
from .results import RunResult
from .validation import ensure_valid

__all__ = ["RuntimeEnvironment"]


class RuntimeEnvironment:
    """Portable execution environment for hybrid programs."""

    def __init__(
        self,
        resources: dict[str, QuantumResource] | None = None,
        client: DaemonClient | None = None,
        default_resource: str | None = None,
        sdk_registry: SDKRegistry | None = None,
        federation=None,
    ) -> None:
        if resources is None and client is None:
            raise QRMIError("runtime needs QRMI resources or a daemon client")
        self.resources = resources or {}
        self.client = client
        self.default_resource = default_resource
        self.sdk_registry = sdk_registry or default_registry()
        #: optional FederationBroker-shaped handle; lets resolution fall
        #: through to remote sites when the local catalog is empty
        self.federation = federation

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
        client: DaemonClient,
        user: str = "user",
        priority_class: str = "development",
        slurm_partition: str | None = None,
        slurm_job_id: int | None = None,
        default_resource: str | None = None,
    ) -> "RuntimeEnvironment":
        """Daemon mode: opens a session immediately."""
        client.open_session(
            user,
            priority_class=priority_class,
            slurm_partition=slurm_partition,
            slurm_job_id=slurm_job_id,
        )
        return cls(client=client, default_resource=default_resource)

    # -- discovery --------------------------------------------------------------

    def available_resources(self) -> dict[str, str]:
        """name -> type for everything this environment can execute on."""
        if self.client is not None:
            return {m["name"]: m["type"] for m in self.client.resources()}
        return {name: res.resource_type for name, res in self.resources.items()}

    def fetch_target(self, resource: str) -> dict[str, Any]:
        """Fresh spec document for a resource."""
        if self.client is not None:
            return self.client.target(resource)
        if resource in self.resources:
            return self.resources[resource].target()
        if self._is_federated(resource):
            return self.federation.target(resource)
        raise QRMIError(f"unknown resource {resource!r}")

    def _is_federated(self, resource: str) -> bool:
        """Does ``resource`` resolve through the federation fall-through
        rather than the local catalog / daemon?"""
        if (
            self.federation is None
            or self.client is not None
            or resource in self.resources
        ):
            return False
        checker = getattr(self.federation, "has_resource", None)
        if checker is not None:
            # membership probe — avoids materializing full site
            # snapshots on every fetch_target/run call
            return bool(checker(resource))
        return resource in self.federation.available_resources()

    def resolve(
        self, qpu: str | tuple[str, ...] | list[str] | None = None
    ) -> str | tuple[str, ...]:
        """Resolve ``--qpu``; a tuple/list request resolves every leg
        and returns a multi-site placement (see :meth:`run_process`)."""
        return select_resource(
            self.available_resources(),
            requested=qpu,
            env_default=self.default_resource,
            federation=self.federation,
        )

    # -- execution ---------------------------------------------------------------

    def _as_spec(self, program: Any, shots: int | None) -> JobSpec:
        """Normalize any submission payload to a validated
        :class:`~repro.spec.JobSpec` — the one place IR lowering and
        shot resolution happen (an explicit ``shots=`` argument wins
        over the spec's own request)."""
        if isinstance(program, JobSpec):
            spec = program
            if shots is not None and spec.shots != shots:
                from dataclasses import replace

                spec = replace(spec, shots=shots)
        else:
            spec = JobSpec(program=program, shots=shots)
        return spec.validate()

    def run(self, program: Any, qpu: str | None = None, shots: int | None = None) -> RunResult:
        """Execute a program (any SDK object / IR / dict / JobSpec) and
        block for the result.  In daemon mode this requires the task to
        complete within the daemon's simulation — for long QPU queues
        use :meth:`run_process` from inside a simulated job instead."""
        spec = self._as_spec(program, shots)
        if spec.is_multi:
            raise TaskError(
                "multi-unit specs are asynchronous by construction; "
                "use run_process() from a simulated job (or Session.submit)"
            )
        ir = spec.program
        resource = self.resolve(qpu if qpu is not None else spec_request(spec))
        if isinstance(resource, tuple):
            raise TaskError(
                "multi-site placements are asynchronous by construction; "
                "use run_process() from a simulated job"
            )
        target = self.fetch_target(resource)
        ensure_valid(ir, target)
        if self._is_federated(resource):
            # federated execution is asynchronous across site daemons —
            # same constraint as daemon mode inside a simulation
            raise TaskError(
                f"resource {resource!r} lives on a federated site; use "
                "run_process() from a simulated job (or a FederatedClient)"
            )
        if self.client is None:
            return self._run_direct(ir, resource)
        return self._run_daemon(ir, resource)

    def _run_direct(self, ir, resource: str) -> RunResult:
        backend = self.resources[resource]
        task_id = backend.task_start(ir)
        status = backend.task_status(task_id)
        if status is not TaskStatus.COMPLETED:
            task = backend.tasks[task_id]
            raise TaskError(f"task {task_id} ended {status.value}: {task.error}")
        emulation = backend.task_result(task_id)
        return RunResult.from_emulation(emulation, resource, ir.content_hash())

    def _run_daemon(self, ir, resource: str) -> RunResult:
        assert self.client is not None
        task_id = self.client.submit(JobSpec(program=ir, resource=resource))
        status = self.client.status(task_id)
        if status["state"] != "completed":
            raise TaskError(
                f"task {task_id} not complete (state {status['state']}); "
                "in simulations, drive the simulator or use run_process()"
            )
        return self._daemon_result(task_id, ir, resource)

    def _daemon_result(self, task_id: str, ir, resource: str) -> RunResult:
        assert self.client is not None
        body = self.client.result(task_id)
        status = self.client.status(task_id)
        wait = 0.0
        if status["started_at"] is not None:
            wait = status["started_at"] - status["enqueued_at"]
        return RunResult(
            counts=dict(body["counts"]),
            shots=body["shots"],
            backend=body["backend"],
            resource=resource,
            program_hash=ir.content_hash(),
            queue_wait_s=wait,
            execution_s=float(body["metadata"].get("execution_seconds", 0.0)),
            metadata=dict(body["metadata"]),
        )

    def run_process(
        self,
        program: Any,
        qpu: str | tuple[str, ...] | list[str] | None = None,
        shots: int | None = None,
        poll_interval: float = 1.0,
        iterations: int | None = None,
    ):
        """Generator form of :meth:`run` for daemon/federated mode inside
        a simulation: submits, then waits on the simulated clock until
        the task reaches a terminal state — a daemon task by polling
        every ``poll_interval`` seconds, a federated job on its pushed
        terminal event.  Yield it from a job payload.  In direct mode it
        completes synchronously (no yields).

        A tuple/list ``qpu`` is a *multi-site placement*: the program
        runs as a malleable federated job of ``iterations`` burst units
        (default: two per named site) spread over exactly those
        ``site/resource`` legs, with the broker's resize loop shifting
        the remaining units between them as load and health move.

        ``program`` may be a :class:`~repro.spec.JobSpec`: its
        ``resource``/``pin``/``sites`` fields stand in for ``qpu=`` and
        its ``iterations`` for ``iterations=`` (explicit arguments
        win)."""
        spec = self._as_spec(program, shots)
        ir = spec.program
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
            if self.federation is None:
                raise TaskError(
                    "multi-site placements need a federation= handle"
                )
            for name in resource:
                if not self._is_federated(name):
                    # a local catalog name resolves, but it is not a
                    # site the broker can hold a share on — rejecting
                    # beats silently running every unit elsewhere
                    raise TaskError(
                        f"multi-site placement leg {name!r} is not a "
                        "federated site/resource"
                    )
                ensure_valid(ir, self.fetch_target(name))
            from ..federation.client import FederatedClient

            result = yield from FederatedClient(self.federation).run_process(
                JobSpec(
                    program=ir,
                    sites=resource,
                    iterations=iterations if iterations is not None else 2 * len(resource),
                )
            )
            return result
        if iterations is not None:
            raise TaskError(
                "iterations= only applies to multi-site (tuple) placements"
            )
        target = self.fetch_target(resource)
        ensure_valid(ir, target)
        if self._is_federated(resource):
            from ..federation.client import FederatedClient

            # pin to the resolved site/resource: the --qpu contract means
            # the job runs exactly where it was validated, not wherever
            # the routing policy would send it
            result = yield from FederatedClient(self.federation).run_process(
                JobSpec(program=ir, pin=resource)
            )
            return result
        if self.client is None:
            # direct mode: synchronous, but keep the generator protocol
            return self._run_direct(ir, resource)
        task_id = self.client.submit(JobSpec(program=ir, resource=resource))
        while True:
            status = self.client.status(task_id)
            if status["state"] in ("completed", "failed", "cancelled"):
                break
            yield Timeout(poll_interval)
        if status["state"] != "completed":
            raise TaskError(f"task {task_id} ended {status['state']}")
        return self._daemon_result(task_id, ir, resource)
