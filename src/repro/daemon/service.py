"""The middleware daemon object.

Owns every subsystem of the paper's quantum-access-node service
(Figure 2): sessions, the priority queue, the second-level scheduler,
the QRMI resource table, observability (metrics registry + TSDB +
scraper + alerts), admin operations and guarded low-level controls.

Per job it keeps the queue's task with its result.  Per-job metadata
(paper §2.5) is a view of the completed task
(:attr:`MiddlewareDaemon.jobmeta`), and no trace rows are written:
scheduling metrics fold the lifecycle bus
(:class:`~repro.scheduling.metrics.TransitionCollector`).

The REST router (:func:`repro.daemon.api.build_router`) maps paths onto
the public methods here; the runtime client
(:class:`repro.runtime.environment.RuntimeEnvironment`) talks to either
the router (full REST surface) or the daemon object directly.
"""

from __future__ import annotations

from typing import Any

from ..errors import DaemonError, SessionError, ValidationError
from ..observability import (
    AlertManager,
    JobMetadataView,
    MetricRegistry,
    ProfileStore,
    Scraper,
    SLOTracker,
    TimeSeriesDB,
    render_exposition,
)
from ..qpu.device import QPUDevice
from ..qrmi.interface import QuantumResource
from ..sdk.ir import AnalogProgram, DecodedParts
from ..sdk.registry import SDKRegistry, default_registry
from ..simkernel import Simulator
from .admin import AdminOperations
from .auth import Role, TokenStore
from .lowlevel import LowLevelControl
from .queue import MiddlewareQueue, PriorityClass, QueuedTask, ShotCapPolicy, TaskState
from .scheduler import SecondLevelScheduler, SharingMode
from .sessions import Session, SessionManager

__all__ = ["MiddlewareDaemon"]


class MiddlewareDaemon:
    """The quantum-access-node middleware service."""

    def __init__(
        self,
        sim: Simulator,
        resources: dict[str, QuantumResource],
        mode: SharingMode = SharingMode.SHOT_CAP,
        shot_cap: ShotCapPolicy | None = None,
        sdk_registry: SDKRegistry | None = None,
        scrape_interval: float = 15.0,
        session_idle_timeout: float = 3600.0,
        selection_policy=None,
        algorithm=None,
    ) -> None:
        if not resources:
            raise DaemonError("daemon needs at least one QRMI resource")
        self.sim = sim
        self.resources = dict(resources)
        self.tokens = TokenStore()
        self.sessions = SessionManager(self.tokens, idle_timeout=session_idle_timeout)
        self.queue = MiddlewareQueue(
            shot_cap=shot_cap if shot_cap is not None else ShotCapPolicy()
        )
        self.sdk_registry = sdk_registry or default_registry()
        #: registers and segments decoded from REST bodies: a recurring
        #: program content is decoded, and its JSON encoded, once
        self.decoded_parts = DecodedParts()
        #: per-job metadata of the completed tasks, built on read
        self.jobmeta = JobMetadataView(self.queue)
        self.scheduler = SecondLevelScheduler(
            sim,
            self.queue,
            self.resources,
            mode=mode,
            selection_policy=selection_policy,
            on_task_done=self._count_finished,
            algorithm=algorithm,
        )
        # observability stack
        self.metrics = MetricRegistry()
        self.tsdb = TimeSeriesDB()
        self.scraper = Scraper(sim, self.tsdb, interval=scrape_interval)
        self._m_tasks = self.metrics.counter(
            "daemon_tasks_total", "Tasks by terminal state", label_names=("state",)
        )
        self._m_queue = self.metrics.gauge(
            "daemon_queue_depth", "Queued tasks per class", label_names=("class",)
        )
        self._m_wait = self.metrics.histogram(
            "daemon_task_wait_seconds",
            "Queue wait per class",
            buckets=(1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 7200.0),
            label_names=("class",),
        )
        self._m_sessions = self.metrics.gauge("daemon_active_sessions", "Live sessions")
        #: per-workload phase signatures of the stage records at this
        #: daemon's site (served raw by ``GET /profiles``)
        self.profiles = ProfileStore()
        # deferred: repro.federation imports this package at import time
        from ..federation.events import LifecycleBus, publish_task_transition

        #: the bus this daemon's queue publishes onto (see
        #: :meth:`attach_bus`), the site label its events carry, and the
        #: bus it was built with
        self.events = self.home_events = LifecycleBus()
        self.site = "local"
        self.events.publishers[self.site] = self
        self.events.stages.add_sink(self.profiles.on_closed, site=self.site)

        def publish(task: QueuedTask, old: TaskState | None, new: TaskState) -> None:
            now = self.sim.now
            self.sessions.task_transition(task.session_id, old, new, now)
            publish_task_transition(
                self.events, now, self.site, task, new, by=self.scheduler.preempted_by
            )

        self.queue.add_transition_listener(publish)
        #: optional :class:`~repro.observability.slo.SLOTracker` — when a
        #: deployment declares objectives (``daemon.slo = SLOTracker(...)``),
        #: its burn rates render in ``/metrics``
        self.slo: SLOTracker | None = None
        self.alerts: AlertManager | None = None
        self._lowlevel: dict[str, LowLevelControl] = {}
        for name, resource in self.resources.items():
            device = getattr(resource, "device", None)
            if isinstance(device, QPUDevice):
                self.scraper.add_qpu(device, name=name)
                self._lowlevel[name] = LowLevelControl(device)
                if self.alerts is None:
                    self.alerts = AlertManager.with_default_qpu_rules(self.tsdb, name)
        if self.alerts is not None:
            # evaluate alert rules on the scrape cadence so for_seconds
            # windows progress without an external ticker
            manager = self.alerts

            def evaluate_alerts(now: float) -> dict[str, float]:
                return {"alerts_firing": float(len(manager.evaluate(now)))}

            self.scraper.add_target("alert-evaluator", evaluate_alerts)
        self.scraper.start()
        self.admin_ops = AdminOperations(self)
        self.admin_token = self.tokens.issue("site-admin", Role.ADMIN)

    # -- lifecycle events -------------------------------------------------------

    def attach_bus(self, bus, site: str) -> None:
        """Publish this daemon's task transitions once, onto ``bus``
        instead of its current bus, labelled ``site``; its profile store
        and its scheduler's dispatch-span label follow.  Idempotent.
        Every daemon numbers its tasks ``mw-task-N``, so a label another
        daemon already publishes under on ``bus`` is refused."""
        if bus.publishers.setdefault(site, self) is not self:
            raise DaemonError(f"site label {site!r} is taken on this lifecycle bus")
        if (bus, site) == (self.events, self.site):
            return
        del self.events.publishers[self.site]
        self.events.stages.remove_sink(self.profiles.on_closed)
        self.events, self.site = bus, site
        self.scheduler.site = site
        bus.stages.add_sink(self.profiles.on_closed, site=site)

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    # -- sessions ---------------------------------------------------------------

    def create_session(
        self,
        user: str,
        priority_class: str | PriorityClass = PriorityClass.DEVELOPMENT,
        slurm_partition: str | None = None,
        slurm_job_id: int | None = None,
    ) -> Session:
        """Open a session; priority comes from the Slurm partition when
        given (paper §3.3: "The daemon retrieves the job's priority from
        Slurm"), else from the explicit class."""
        if slurm_partition is not None:
            priority = PriorityClass.from_partition(slurm_partition)
        elif isinstance(priority_class, str):
            priority = PriorityClass.parse(priority_class)
        else:
            priority = priority_class
        return self.sessions.create(user, priority, now=self.now, slurm_job_id=slurm_job_id)

    def resolve_session(self, token: str) -> Session:
        return self.sessions.resolve(token, self.now)

    # -- task submission ----------------------------------------------------------

    def submit_task(
        self,
        token: str,
        program: Any,
        resource: str,
        shots: int | None = None,
    ) -> QueuedTask:
        """Validate and enqueue a program for the session behind
        ``token`` — the in-process intake; REST submissions arrive as
        specs through :meth:`submit_spec`.

        ``program`` may be any registered SDK object, an
        :class:`AnalogProgram`, or an IR dict.
        """
        return self._enqueue(self.resolve_session(token), program, resource, shots, None)

    def _enqueue(
        self,
        session: Session,
        program: Any,
        resource: str,
        shots: int | None,
        metadata: dict[str, Any] | None,
    ) -> QueuedTask:
        """Translate, target-check and enqueue one program; ``metadata``
        is on the task before its ``queued`` transition is published."""
        if resource not in self.resources:
            raise DaemonError(
                f"unknown resource {resource!r}; available: {sorted(self.resources)}"
            )
        if isinstance(program, dict):
            program = AnalogProgram.from_dict(program, self.decoded_parts)
        else:
            program = self.sdk_registry.translate(program, shots=shots or 100)
        if shots is not None and program.shots != shots:
            program = program.with_shots(shots)
        task = self.queue.submit(
            session_id=session.session_id,
            user=session.user,
            program=program,
            priority=session.priority_class,
            resource=resource,
            now=self.now,
            metadata=metadata,
            admit=self._admit,
        )
        session.task_ids.append(task.task_id)
        self.scheduler.notify_submit(task)
        return task

    def submit_spec(self, token: str, spec: Any) -> QueuedTask:
        """REST-native spec intake: accept a :class:`~repro.spec.JobSpec`
        (or its ``to_dict`` payload, as arriving over ``POST /jobs``),
        validate it, and route it through the normal submit path.

        Tenancy and algorithm selection travel on the task's metadata;
        queue priority stays with the session (paper §3.3 — the daemon
        trusts the resource manager, not the payload, for priority).
        Multi-unit specs belong to the federation and are refused.
        """
        from ..spec import JobSpec

        session = self.resolve_session(token)
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec, self.decoded_parts)
        spec = spec.validate(default_tenant=session.user)
        if spec.is_multi:
            raise ValidationError(
                "daemon runs single-unit jobs; submit multi-unit specs to the federation"
            )
        resource = spec.resource
        if resource is None:
            if len(self.resources) != 1:
                raise DaemonError(
                    f"spec names no resource; available: {sorted(self.resources)}"
                )
            resource = next(iter(self.resources))
        metadata = {**spec.metadata, "tenant": spec.tenant}
        if spec.algorithm is not None:
            metadata["algorithm"] = spec.algorithm
        return self._enqueue(session, spec.program, resource, spec.shots, metadata)

    def _admit(self, task: QueuedTask) -> None:
        """Point-of-submission validation of the *effective* program
        (after the shot cap) against the resource's current target; a
        refusal leaves no task behind.  The digest is the task's one:
        memoized on its program, which the resource hands on to the
        device on every (re)run."""
        program = task.program
        specs = self.resources[task.resource].specs()
        specs.admit(program.register, program.segments, program.shots, program.content_hash())

    def _owned_task(self, token: str, task_id: str) -> QueuedTask:
        session = self.resolve_session(token)
        task = self.queue.get(task_id)
        if task.session_id != session.session_id:
            raise SessionError("task belongs to a different session")
        return task

    def task_status(self, token: str, task_id: str) -> dict[str, Any]:
        task = self._owned_task(token, task_id)
        return {
            "task_id": task.task_id,
            "state": task.state.value,
            "priority": task.priority.label,
            "enqueued_at": task.enqueued_at,
            "started_at": task.started_at,
            "finished_at": task.finished_at,
            "preempt_count": task.preempt_count,
            "metadata": dict(task.metadata),
        }

    def finished_task(self, token: str, task_id: str) -> QueuedTask:
        """The session's completed task; a failed or unfinished one
        raises :class:`DaemonError`."""
        task = self._owned_task(token, task_id)
        if task.state is TaskState.FAILED:
            raise DaemonError(f"task failed: {task.error}")
        if task.state is not TaskState.COMPLETED:
            raise DaemonError(f"task not finished (state {task.state.value})")
        return task

    def task_result(self, token: str, task_id: str) -> Any:
        return self.finished_task(token, task_id).result

    # -- discovery ---------------------------------------------------------------

    def list_resources(self) -> list[dict[str, Any]]:
        return [res.metadata() for res in self.resources.values()]

    def resource_target(self, resource: str) -> dict[str, Any]:
        if resource not in self.resources:
            raise DaemonError(f"unknown resource {resource!r}")
        return self.resources[resource].target()

    def supported_sdks(self) -> list[str]:
        return self.sdk_registry.names()

    # -- observability -------------------------------------------------------------

    def metrics_text(self) -> str:
        # the queue-depth and session gauges have no other reader: they
        # are read from the queue and the sessions here, and nowhere else
        for cls, depth in self.queue.depth_by_class().items():
            self._m_queue.set(float(depth), labels={"class": cls})
        self._m_sessions.set(float(len(self.sessions.active())))
        return render_exposition(self.metrics, alerts=self.alerts, slo=self.slo)

    def healthz(self) -> dict[str, Any]:
        """Liveness/readiness summary for ``GET /healthz``.

        ``ready`` means the scraper is keeping up: before the first
        scrape is even due the daemon is trivially ready; afterwards the
        last scrape must be within two intervals.  ``status`` degrades
        (but the route stays 200 — liveness) when it is not.
        """
        now = self.now
        last = self.scraper.last_scrape_at
        lag = None if last is None else now - last
        due = now >= self.scraper.interval
        ready = (not due) or (lag is not None and lag <= 2 * self.scraper.interval)
        firing = 0 if self.alerts is None else len(self.alerts.firing())
        return {
            "live": True,
            "ready": ready,
            "status": "ok" if ready and firing == 0 else "degraded",
            "scrape_lag_s": lag,
            "scrape_targets": len(self.scraper.targets()),
            "firing_alerts": firing,
            "queue_depth": self.queue.queued_count(),
            # swallowed observer errors and unwaited process deaths
            "bus_dropped": self.events.dropped,
            "process_failures": self.sim.unobserved_failures,
        }

    def telemetry(self, resource: str) -> dict[str, Any]:
        device = self.hardware_device(resource)
        snap = device.telemetry(self.now)
        return snap.to_metrics() | {"status": snap.status}

    def evaluate_alerts(self) -> list[dict[str, Any]]:
        if self.alerts is None:
            return []
        firing = self.alerts.evaluate(self.now)
        return [
            {"name": a.rule.name, "severity": a.rule.severity, "since": a.fired_at}
            for a in firing
        ]

    def _count_finished(self, task: QueuedTask) -> None:
        self._m_tasks.inc(labels={"state": task.state.value})
        wait = task.wait_time()
        if wait is not None:
            self._m_wait.observe(wait, labels={"class": task.priority.label})

    def job_metadata(self, token: str, task_id: str) -> dict[str, Any]:
        """The ``GET /tasks/{id}/metadata`` body of the session's
        completed task, read from the task and its result."""
        self._owned_task(token, task_id)
        record = self.jobmeta.get(task_id)
        return {
            "task_id": record.task_id,
            "backend": record.backend,
            "shots": record.shots,
            "queue_wait_s": record.queue_wait_s,
            "calibration": dict(record.calibration),
            "diagnostics": record.diagnostics,
        }

    # -- internals used by admin/lowlevel --------------------------------------------

    def hardware_device(self, resource: str) -> QPUDevice:
        if resource not in self.resources:
            raise DaemonError(f"unknown resource {resource!r}")
        device = getattr(self.resources[resource], "device", None)
        if not isinstance(device, QPUDevice):
            raise DaemonError(f"resource {resource!r} is not hardware-backed")
        return device

    def lowlevel_for(self, resource: str) -> LowLevelControl:
        if resource not in self._lowlevel:
            raise DaemonError(f"no low-level control for resource {resource!r}")
        return self._lowlevel[resource]
