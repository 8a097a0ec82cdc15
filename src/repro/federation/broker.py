"""The federation broker: place hybrid jobs across HPC-QC sites.

Lifts the paper's second-level-scheduling idea one level up: where the
daemon schedules *tasks within a site*, the broker schedules *jobs
across sites*.  A submitted job gets a federation-stable ID, is placed
on a site chosen by the active routing policy, and is tracked until its
result is fetched, at the instant the site pushes the task's terminal
transition.  Placement respects:

* **health** — only sites with fresh heartbeats are candidates,
* **capability** — the site must export a resource that can take the
  program (register fits, federable type),
* **spillover** — saturated sites are skipped while any unsaturated
  candidate exists; when the whole federation is saturated the least
  unlucky site still absorbs the job (bounded queues, not rejection),
* **failover** — when a placement's site dies (heartbeat expiry or
  mid-run crash) or the site-level task fails, the job re-routes to a
  surviving site with a bounded number of attempts.  The federated job
  ID never changes across re-placements, so callers never see
  duplicates.

There is one job model.  A fixed-size job is a one-unit job; a
multi-unit or converted job of
:class:`~repro.federation.malleable.MalleableManager` also carries a
share ledger.  Both kinds live in a :class:`JobTable` (state index, id
numbering, eviction), enter through one intake, dispatch through one
path and are indexed in one task index ``(site, task_id) -> (job id,
unit)``.  Every unit advances at its site's pushed task transition:
a completion lands at once, and the job completes with its last unit.
Only the step after a lost task differs by kind — a one-unit job
re-places at once, a ledger unit waits in its pool for the resize
sweep.  Reads (:meth:`FederationBroker.status`,
:meth:`~FederationBroker.result`) change nothing.
"""

from __future__ import annotations

import enum
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from ..errors import (
    BudgetExceededError,
    FederationError,
    PlacementError,
    ReproError,
    ResourceNotFound,
    SiteUnavailable,
    SpecError,
)
from ..observability.profiles import ProfileStore
from ..observability.profiling import scoped
from ..observability.tracing import TraceContext, Tracer
from ..runtime.backend_select import select_resource
from ..scheduling.algorithms import (
    PolicyRouting,
    SchedulingAlgorithm,
    federation_views,
    get_algorithm,
    resolve,
)
from ..simkernel import Simulator, Timeout
from ..spec import JobSpec, require_spec
from .events import TERMINAL_JOB_KINDS, TERMINAL_TASK_KINDS, JobEvent, LifecycleBus, wait_for
from .metrics import FederationMetrics
from .policies import LeastQueuePolicy, RoutingPolicy
from .registry import SiteHealth, SiteRegistry, SiteSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .malleable import ResizeState

__all__ = ["FederatedJob", "FederationBroker", "JobState", "JobTable", "Placement"]


class JobState(enum.Enum):
    HELD = "held"            # admitted but parked: budget exhausted (HOLD action)
    PLACED = "placed"        # live on some site
    COMPLETED = "completed"
    FAILED = "failed"        # exhausted placement attempts


#: the states a job never leaves; reaching one stamps ``finished_at``
TERMINAL_STATES = (JobState.COMPLETED, JobState.FAILED)

#: the live-dispatch map every terminal job shares: read-only and empty
_NO_LIVE = MappingProxyType({})


@dataclass(slots=True)
class Placement:
    """One dispatch of one unit of a job to a site: a fixed-size job's
    placement attempt, or one unit of a ledger job."""

    site: str
    task_id: str
    placed_at: float
    unit: int = 0
    started_at: float | None = None  # site-local execution start, pushed
    abandoned: bool = False
    abandon_reason: str = ""


@dataclass(slots=True)
class FederatedJob:
    """Broker-side record of one submitted hybrid job.

    A fixed-size job is a one-unit job without a share ledger: its one
    unit re-places at once when it loses its task.  A multi-unit or
    converted submission carries a
    :class:`~repro.federation.malleable.ResizeState` (``resize``) whose
    share ledger spreads its ``units`` over sites; a lost unit returns
    to the ledger's pool for the next resize sweep.
    """

    job_id: str
    program: Any  # IR; every unit runs it at ``shots``
    shots: int
    owner: str
    affinity_key: str | None
    n_qubits: int
    submitted_at: float
    pin: str | None = None  # "site/resource": bypasses policy routing
    state: JobState = JobState.PLACED
    #: every dispatch ever made, in dispatch order
    placements: list[Placement] = field(default_factory=list)
    #: unit -> its live dispatch; a unit leaves when it lands or is
    #: abandoned, and a terminal job holds the shared empty ``_NO_LIVE``
    live: dict[int, Placement] = field(default_factory=dict)
    #: a one-unit job's result once it landed (a ledger job keeps its
    #: per-unit results on ``resize``)
    result: Any = None
    error: str = ""
    #: submission sequence number — the per-state tables iterate live
    #: jobs in this order, reproducing the pre-indexing full-scan order
    seq: int = 0
    #: set when the job reaches COMPLETED/FAILED; drives terminal-record
    #: eviction (see :meth:`FederationBroker.evict_terminal`)
    finished_at: float | None = None
    #: the validated :class:`~repro.spec.JobSpec` this job was built
    #: from — the one broker-visible submission payload
    spec: Any = None
    units: int = 1
    #: share ledger and resize history, present only on ledger jobs
    resize: ResizeState | None = None

    @property
    def current(self) -> Placement | None:
        if self.placements and not self.placements[-1].abandoned:
            return self.placements[-1]
        return None

    @property
    def attempts(self) -> int:
        return len(self.placements)

    @property
    def completed_units(self) -> int:
        if self.resize is not None:
            return self.resize.ledger.completed_units
        return int(self.state is JobState.COMPLETED)


class JobTable:
    """The records of one kind of federated job, indexed by state.

    The broker keeps one table for fixed-size ``fed-job-N`` ids and the
    malleable manager one for ``fed-mjob-N`` ids, so each kind numbers
    its own ids and sweeps its own jobs in submission order.
    :meth:`set_state` is the only place a job's state changes, so the
    per-state dicts never drift from ``job.state``: reconcile sweeps and
    state queries touch only the states they need, and terminal jobs
    stay archived out of the sweep until :meth:`evict` drops them.
    """

    def __init__(self, prefix: str, sim: Simulator, publish) -> None:
        self.prefix = prefix
        self._sim = sim
        self._publish = publish
        self._jobs: dict[str, Any] = {}
        self._by_state: dict[JobState, dict[str, Any]] = {s: {} for s in JobState}
        self._seq = itertools.count(1)

    def allocate(self) -> tuple[int, str]:
        """The next submission sequence number and the job id it names."""
        seq = next(self._seq)
        return seq, f"{self.prefix}-{seq}"

    def add(self, job: Any) -> None:
        self._jobs[job.job_id] = job
        self._by_state[job.state][job.job_id] = job

    def get(self, job_id: str) -> Any:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def all(self) -> list[Any]:
        return list(self._jobs.values())

    def set_state(self, job: Any, state: JobState) -> None:
        """Move ``job`` to ``state``.  A terminal state stamps
        ``finished_at``, swaps the job's emptied live map for the shared
        ``_NO_LIVE`` and publishes ``job_<state>``, which is what
        waiters wake on."""
        if state is job.state:
            return
        self._by_state[job.state].pop(job.job_id, None)
        job.state = state
        self._by_state[state][job.job_id] = job
        if state in TERMINAL_STATES:
            job.finished_at = self._sim.now
            job.live = _NO_LIVE
            self._publish(f"job_{state.value}", job.job_id, error=job.error)

    def in_state(self, state: JobState) -> list[Any]:
        """Jobs currently in ``state``, in submission order (a released
        held job re-enters the PLACED table out of order; sorting by
        the submission seq keeps sweep order identical to a full scan)."""
        return sorted(self._by_state[state].values(), key=lambda j: j.seq)

    def count(self, state: JobState) -> int:
        return len(self._by_state[state])

    def evict(self, ttl: float) -> list[Any]:
        """Drop and return the terminal records that finished at least
        ``ttl`` seconds ago (COMPLETED first, then FAILED)."""
        now = self._sim.now
        expired: list[Any] = []
        for state in TERMINAL_STATES:
            table = self._by_state[state]
            done = [
                job
                for job in table.values()
                if job.finished_at is not None and now - job.finished_at >= ttl
            ]
            for job in done:
                del table[job.job_id]
                del self._jobs[job.job_id]
            expired += done
        return expired


class FederationBroker:
    """Route jobs across a :class:`SiteRegistry` with a pluggable policy."""

    def __init__(
        self,
        sim: Simulator,
        registry: SiteRegistry,
        policy: RoutingPolicy | None = None,
        max_attempts: int = 3,
        accounting=None,
        algorithm: SchedulingAlgorithm | str | None = None,
    ) -> None:
        if max_attempts < 1:
            raise PlacementError("max_attempts must be >= 1")
        self.sim = sim
        self.registry = registry
        self.policy = policy or LeastQueuePolicy()
        #: the broker-wide placement discipline — by default a
        #: :class:`~repro.scheduling.algorithms.PolicyRouting` adapter
        #: around :attr:`policy`, so legacy routing is bit-identical.
        #: Jobs whose spec names an ``algorithm`` override it per-job.
        self.algorithm: SchedulingAlgorithm
        self.use_algorithm(algorithm)
        #: per-name instances for spec-selected algorithms — the one
        #: place a spec's algorithm name becomes an instance, so one
        #: instance per name serves placement and slot division alike
        self._algo_cache: dict[str, SchedulingAlgorithm] = {}
        self.max_attempts = max_attempts
        self.metrics = FederationMetrics()
        #: optional :class:`~repro.accounting.FederationAccounting` —
        #: when set, intake runs budget admission, every completion and
        #: retry is metered per tenant, and the malleable resize loop
        #: arbitrates slots across jobs by tenant fair-share weight
        self.accounting = accounting
        #: the fixed-size jobs; terminal ones stay archived out of the
        #: reconcile sweep until :meth:`evict_terminal` drops them
        self.table = JobTable("fed-job", sim, self._publish)
        self._reroutes = 0  # maintained: sum over jobs of attempts - 1
        #: the broker's lifecycle bus — the only way it learns task
        #: state.  Every current and future site publishes its task
        #: transitions here, next to the broker's own publishes
        #: (placements, outcomes, admissions, resizes), which is what
        #: lets FederationMetrics derive every counter from
        #: subscriptions instead of record_* call sites.
        self.events: LifecycleBus = LifecycleBus()
        #: optional :class:`~repro.observability.tracing.Tracer` (see
        #: :meth:`attach_tracer`); ``None`` skips all span bookkeeping
        self.tracer: Tracer | None = None
        #: optional :class:`~repro.observability.profiles.ProfileStore`
        #: (see :meth:`attach_profiles`)
        self.profiles: ProfileStore | None = None
        self.metrics.attach_broker(self)
        self.events.subscribe(self._on_site_event, kinds=("running",) + TERMINAL_TASK_KINDS)
        for name in registry.names():
            registry.site(name).attach_bus(self.events)
        registry.on_register(lambda site: site.attach_bus(self.events))
        #: live task index: (site, task_id) -> (job id, unit), unit 0 for
        #: a fixed-size job; every dispatch enters it and leaves it when
        #: abandoned or finished, so a pushed site event resolves to its
        #: owner without a scan
        self._tasks: dict[tuple[str, str], tuple[str, int]] = {}
        #: terminal records dropped by :meth:`evict_terminal`
        self._evicted = 0
        #: the :meth:`spawn_housekeeping` processes, kept so a sweep
        #: that died is reported by :meth:`stats`
        self._housekeeping: list = []
        #: summary of the last reconcile sweep — ``jobs_scanned`` counts
        #: the fixed-size jobs the sweep actually touched (live + held),
        #: ``duration_s`` its wall-clock cost; the C6 scale bench and
        #: the metrics read hook read this
        self.last_reconcile: dict[str, float] = {}
        from .malleable import MalleableManager

        #: the resize-loop manager for multi-site malleable jobs (see
        #: :mod:`repro.federation.malleable`)
        self.malleable = MalleableManager(self)

    def configure_resize(self, config) -> None:
        """Install a non-default :class:`~repro.federation.malleable.ResizeConfig`.
        Must happen before the first malleable submission."""
        if len(self.malleable.table):
            raise PlacementError("resize config must be set before submissions")
        self.malleable.config = config

    # -- lifecycle events ------------------------------------------------------

    def attach_tracer(self, tracer: Tracer | None = None) -> Tracer:
        """Trace every job end-to-end: attaches the tracer to the
        lifecycle bus (its stage records become spans) and makes it the
        simulator's tracer, on which every site scheduler — current and
        future joiners — opens the dispatch spans that nest under
        execute spans.  Idempotent; returns the active tracer.  Raises
        :class:`~repro.errors.ObservabilityError` if the simulator
        already has a different tracer.
        """
        if self.tracer is not None:
            return self.tracer
        tracer = tracer if tracer is not None else Tracer()
        tracer.attach_sim(self.sim)
        tracer.attach_bus(self.events)
        self.tracer = tracer
        return tracer

    def attach_profiles(self, store: ProfileStore | None = None) -> ProfileStore:
        """Collect per-workload phase signatures: feeds a
        :class:`ProfileStore` from the lifecycle bus's stage records.
        The store's summary appears in :meth:`stats`; site daemons also
        expose their own stores via ``GET /profiles``.  Idempotent;
        returns the active store.
        """
        if self.profiles is not None:
            return self.profiles
        self.profiles = store if store is not None else ProfileStore()
        self.profiles.attach_bus(self.events)
        return self.profiles

    def _publish(self, kind: str, job_id: str, site: str = "", task_id: str = "", **payload) -> None:
        self.events.publish(
            JobEvent(
                time=self.sim.now,
                kind=kind,
                job_id=job_id,
                site=site,
                task_id=task_id,
                payload=payload,
            )
        )

    def _on_site_event(self, event: JobEvent) -> None:
        """Advance the dispatch that owns one pushed site task
        transition, found through the task index; transitions for tasks
        the broker never placed — e.g. a site's local users — are
        dropped."""
        owner = self._tasks.get((event.site, event.task_id))
        if owner is None:
            return
        job_id, unit = owner
        self._refresh(self._lookup(job_id), unit, event)

    def _lookup(self, job_id: str) -> FederatedJob | None:
        return self.table.get(job_id) or self.malleable.table.get(job_id)

    def _table_of(self, job: FederatedJob) -> JobTable:
        return self.table if job.resize is None else self.malleable.table

    def _untrack(self, job: FederatedJob, unit: int) -> Placement:
        """Take ``unit``'s dispatch out of the live set and the task index."""
        dispatch = job.live.pop(unit)
        self._tasks.pop((dispatch.site, dispatch.task_id), None)
        return dispatch

    def _drop(self, job: FederatedJob, unit: int, reason: str, keep_hold: bool = False) -> Placement:
        """Abandon ``unit``'s live dispatch, best-effort cancel its site
        task and release its budget hold — unless ``keep_hold``, for a
        one-unit job whose re-placement takes the hold over."""
        dispatch = self._untrack(job, unit)
        dispatch.abandoned = True
        dispatch.abandon_reason = reason
        self._cancel_task(dispatch.site, dispatch.task_id)
        if not keep_hold:
            self._release_hold(job, unit)
        return dispatch

    def _release_hold(self, job: FederatedJob, unit: int) -> None:
        if self.accounting is not None:
            self.accounting.release_placement(f"{job.job_id}/u{unit}")

    def _cancel_task(self, site: str, task_id: str) -> None:
        """Best-effort cancel of an abandoned task: the site may have
        left the federation (:class:`~repro.errors.FederationError`) or
        forgotten the task (:class:`~repro.errors.QueueError`).  Any
        other error is a bug and propagates."""
        try:
            self.registry.site(site).cancel(task_id)
        except ReproError:
            pass

    def _fetch_result(self, job: FederatedJob, dispatch: Placement) -> tuple[Any, Exception | None]:
        """Pull one finished dispatch's result from its site, under a
        ``result-fetch`` span when the broker traces.  Returns
        ``(result, None)``, or ``(None, err)`` when the site would not
        serve it."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.start_job_span(
                job.job_id, "result-fetch", self.sim.now, site=dispatch.site,
                task_id=dispatch.task_id, unit=dispatch.unit,
            )
        try:
            result = self.registry.site(dispatch.site).task_result(job.owner, dispatch.task_id)
        except Exception as err:
            # the one broad boundary to a remote site: a site that left,
            # a session that idle-expired and no longer owns the task, a
            # status query that blew up — whatever it raised, the
            # caller treats it as a lost placement and re-routes, so the
            # reconcile sweep that failover depends on never dies of it
            if span is not None:
                tracer.end_span(span, self.sim.now, status="error")
            return None, err
        if span is not None:
            tracer.end_span(span, self.sim.now)
        return result, None

    def _capable(self, n_qubits: int, exclude: tuple[str, ...] = ()) -> list[SiteSnapshot]:
        """Healthy sites exporting a resource that can hold an
        ``n_qubits`` register."""
        healthy = self.registry.healthy_snapshots(self.sim.now, exclude=exclude)
        return [
            snap for snap in healthy if snap.catalog and snap.max_qubits >= n_qubits
        ]

    # -- intake ---------------------------------------------------------------

    def submit_spec(self, spec: JobSpec) -> str:
        """Accept one :class:`~repro.spec.JobSpec` into the federation;
        returns its stable job id.

        Multi-unit specs (``iterations``/``sites`` set) route to the
        malleable manager; everything else becomes a fixed-size
        federated job.  This is the single intake every surface funnels
        into — shot resolution and IR normalization happen exactly once,
        inside :meth:`JobSpec.validate <repro.spec.JobSpec.validate>`.
        Anything but a spec, and any spec that fails validation, raises
        :class:`~repro.errors.PlacementError`.

        ``spec.pin`` is a qualified ``site/resource`` name: the job runs
        exactly there (the ``--qpu`` contract — an explicit request is
        honored or fails, never silently rerouted) instead of going
        through the routing policy.
        """
        try:
            spec = require_spec(spec, "FederationBroker.submit_spec").validate()
        except SpecError as err:
            raise PlacementError(str(err)) from err
        if spec.is_multi:
            return self.malleable.submit_spec(spec)
        if self._should_convert(spec):
            return self._convert_and_submit(spec)
        job = self._intake(self.table, spec, pin=spec.pin)
        if job.state is JobState.PLACED:
            self._place(job)
        return job.job_id

    def _intake(self, table: JobTable, spec: JobSpec, **kind) -> FederatedJob:
        """The intake both job kinds share: run budget admission, file
        the new record in ``table`` (``kind`` holds a fixed job's pin or
        a ledger job's units and resize state), open its trace and
        announce it as held or submitted.  Placement is the caller's."""
        admit_wall = time.perf_counter()
        hold = self._admit(spec)
        seq, job_id = table.allocate()
        job = FederatedJob(
            job_id=job_id,
            program=spec.program,
            shots=spec.shots,
            owner=spec.tenant,
            affinity_key=spec.affinity_key,
            n_qubits=spec.program.num_qubits,
            submitted_at=self.sim.now,
            state=JobState.HELD if hold else JobState.PLACED,
            seq=seq,
            spec=spec,
            **kind,
        )
        table.add(job)
        tracer = self.tracer
        if tracer is not None:
            # continue the spec's propagated trace context, or open a
            # fresh root for a broker-direct submission
            now = self.sim.now
            ctx_dict = spec.metadata.get("trace_context")
            if ctx_dict:
                tracer.bind_job(job.job_id, TraceContext.from_dict(ctx_dict))
            else:
                root = tracer.start_trace(
                    "job", now, job_id=job.job_id, tenant=spec.tenant
                )
                tracer.bind_job(job.job_id, root)
            span = tracer.start_job_span(
                job.job_id, "admission", now, wall_start=admit_wall,
                decision="hold" if hold else "admit",
            )
            if span is not None:
                tracer.end_span(span, now)
        self._publish(
            "job_held" if hold else "job_submitted",
            job.job_id,
            tenant=spec.tenant,
            program=spec.program.name,
            qubits=job.n_qubits,
        )
        return job

    # -- fixed -> malleable conversion -----------------------------------------

    def _should_convert(self, spec: JobSpec) -> bool:
        """Convert a fixed submission into malleable units when (a) the
        spec declared convertibility (``malleable`` with ``min_units``
        set and no pin), (b) the job's placement algorithm opted in via
        ``convert_when_saturated``, and (c) every capable site is
        saturated — i.e. the job would otherwise spill onto an
        already-full queue as one indivisible blob."""
        if (
            spec.min_units is None
            or not spec.malleable
            or spec.pin is not None
            or spec.resource is not None
        ):
            return False
        if not self._placement_for(spec).convert_when_saturated:
            return False
        capable = self._capable(spec.program.num_qubits)
        return bool(capable) and all(snap.is_saturated for snap in capable)

    def _convert_and_submit(self, spec: JobSpec) -> str:
        """Split the fixed spec into ``min_units`` malleable units whose
        shot counts sum to (at least) the original request, and route it
        through the malleable manager.  The returned malleable job id is
        transparent to the caller: :meth:`status` and :meth:`result`
        delegate for converted jobs."""
        units = spec.min_units or 1
        shots_per_unit = max(1, -(-int(spec.shots) // units))
        converted = replace(
            spec, iterations=units, shots=shots_per_unit
        ).validate()
        job_id = self.malleable.submit_spec(converted)
        self._publish(
            "job_converted",
            job_id,
            units=units,
            shots_per_unit=shots_per_unit,
            tenant=spec.tenant,
        )
        return job_id

    def _admit(self, spec: JobSpec) -> bool:
        """Run budget admission for one new submission.  Returns True
        when the job must enter HELD (budget exhausted, HOLD action);
        raises :class:`~repro.errors.BudgetExceededError` on REJECT, and
        up front when the spec *declares* a cost the tenant's remaining
        budget cannot cover — cheaper than finding out mid-flight."""
        if self.accounting is None:
            return False
        from ..accounting import AdmissionDecision

        tenant = spec.tenant
        if spec.budget_hint is not None and not self.accounting.can_afford(
            tenant, spec.budget_hint
        ):
            raise BudgetExceededError(
                f"tenant {tenant!r} declared a cost of "
                f"{spec.budget_hint:.3f} but has "
                f"{self.accounting.remaining(tenant):.3f} remaining",
                tenant=tenant,
            )
        decision = self.accounting.admission(tenant)
        # no job id exists yet at intake time: the event carries only
        # the decision (which is all the admissions counter keys on)
        self._publish("admission", "", decision=decision.value)
        if decision is AdmissionDecision.REJECT:
            raise BudgetExceededError(
                f"tenant {tenant!r} exhausted its federation budget "
                f"(spend {self.accounting.spend(tenant):.3f}, "
                f"remaining {self.accounting.remaining(tenant):.3f})",
                tenant=tenant,
            )
        return decision is AdmissionDecision.HOLD

    def available_resources(self) -> dict[str, str]:
        """Aggregate catalog over healthy sites, names qualified as
        ``site/resource`` — the federation-aware fall-through surface
        :func:`~repro.runtime.backend_select.select_resource` consumes."""
        merged: dict[str, str] = {}
        for snap in self.registry.healthy_snapshots(self.sim.now):
            for name, rtype in sorted(snap.catalog.items()):
                merged[f"{snap.name}/{name}"] = rtype
        return merged

    def has_resource(self, qualified: str) -> bool:
        """Does some registered site export this ``site/resource`` name?
        (Membership only — no snapshot materialization; use
        :meth:`available_resources` for the health-filtered catalog.)"""
        site_name, _, resource = qualified.partition("/")
        if not resource:
            return False
        try:
            site = self.registry.site(site_name)
        except FederationError:
            return False
        return resource in site.catalog()

    def target(self, qualified: str) -> dict[str, Any]:
        """Spec document for a ``site/resource`` name from
        :meth:`available_resources` (the runtime's validation input)."""
        site_name, _, resource = qualified.partition("/")
        if not resource:
            raise PlacementError(
                f"federated resource names are 'site/resource', got {qualified!r}"
            )
        return self.registry.site(site_name).daemon.resource_target(resource)

    # -- placement ------------------------------------------------------------

    def use_algorithm(self, algorithm: SchedulingAlgorithm | str | None) -> None:
        """Swap the broker-wide placement discipline by registry name
        (or instance); ``None`` restores policy routing."""
        algorithm = resolve(algorithm, PolicyRouting(policy=self.policy))
        if not algorithm.handles_placement:
            raise PlacementError(
                f"algorithm {algorithm.name!r} does not make placement "
                "decisions and cannot drive broker routing"
            )
        self.algorithm = algorithm

    def _algorithm_for(self, spec: JobSpec | None) -> SchedulingAlgorithm:
        """The discipline one job's spec selects: its named algorithm,
        otherwise the broker-wide default.  The resize loop divides
        slots with it; placement goes through :meth:`_placement_for`."""
        name = getattr(spec, "algorithm", None)
        if name is None:
            return self.algorithm
        algo = self._algo_cache.get(name)
        if algo is None:
            algo = get_algorithm(name)
            self._algo_cache[name] = algo
        return algo

    def _placement_for(self, spec: JobSpec | None) -> SchedulingAlgorithm:
        """The placement discipline for one job's spec: its algorithm
        when that makes placement decisions, otherwise the broker-wide
        default — a convertible fixed spec may name a slot-division
        discipline such as ``agreement-elastic``, and the default
        places it until it is converted."""
        algo = self._algorithm_for(spec)
        return algo if algo.handles_placement else self.algorithm

    @scoped("algorithm.schedule")
    def _choose_site(
        self, job: FederatedJob, candidates: list[SiteSnapshot]
    ) -> SiteSnapshot:
        """Run the job's scheduling algorithm over adapter views of the
        candidate snapshots and map its decision back to a snapshot.

        The default :class:`PolicyRouting` algorithm calls
        ``self.policy.choose`` exactly once, so legacy routing (including
        stateful policies like round-robin) is bit-identical to the
        pre-algorithm broker.  Algorithms that return no usable decision
        fall back to direct policy choice rather than failing the job.
        """
        algorithm = self._placement_for(job.spec)
        pending, resources, system = federation_views(job, candidates, self.sim.now)
        by_name = {snap.name: snap for snap in candidates}
        for decision in algorithm.schedule(pending, resources, system):
            if decision.kind in ("place", "start", "backfill", "reserve"):
                snap = by_name.get(decision.resource)
                if snap is not None:
                    return snap
        return self.policy.choose(job, candidates, self.sim.now)

    def _candidates(
        self, job: FederatedJob, exclude: tuple[str, ...] = ()
    ) -> list[SiteSnapshot]:
        """Healthy sites that can hold ``job``'s register.  A one-unit
        job spills onto saturated ones only when nothing else is left; a
        ledger job keeps them (the watermark zeroes their weight instead
        of retiring them) within its ``spec.sites`` restriction."""
        capable = self._capable(job.n_qubits, exclude)
        if job.resize is not None:
            only = job.resize.restrict_sites
            return capable if only is None else [s for s in capable if s.name in only]
        unsaturated = [snap for snap in capable if not snap.is_saturated]
        return unsaturated or capable

    def _resource_for(self, job: FederatedJob, site: Any, pinned: str | None) -> str:
        """The resource of ``site`` one dispatch of ``job`` runs on: the
        ``pinned`` one, or the best of those that can hold the register
        (the site filter only guarantees one exists).  Raises
        :class:`~repro.errors.ResourceNotFound` when the pin cannot take
        the program."""
        catalog = site.capable_catalog(job.n_qubits)
        if pinned is None:
            return select_resource(catalog)
        if pinned not in catalog:
            raise ResourceNotFound(
                f"pinned resource {site.name + '/' + pinned!r} cannot take a "
                f"{job.n_qubits}-qubit program"
            )
        return pinned

    def _pinned_site(self, job: FederatedJob) -> tuple[Any, str]:
        """``(site, "")`` when the job's pinned ``site/resource`` can take
        it right now, else ``(None, reason)``."""
        site_name, _, resource = job.pin.partition("/")
        try:
            health = self.registry.health_of(site_name, self.sim.now)
            site = self.registry.site(site_name)
            if health is SiteHealth.UNHEALTHY:
                return None, f"pinned site {site_name!r} is unhealthy"
            self._resource_for(job, site, resource)
        except (FederationError, ResourceNotFound) as err:
            return None, str(err)
        return site, ""

    def _place_pinned(self, job: FederatedJob) -> None:
        """Honor an explicit ``site/resource`` request or fail — pinned
        jobs retry on *their* site only, never reroute elsewhere."""
        site, problem = self._pinned_site(job)
        if site is None:
            self._fail(job, problem)
            return
        try:
            self._dispatch(job, 0, site, job.pin.partition("/")[2])
        except SiteUnavailable as err:
            self._fail(job, str(err))

    def _dispatch(self, job: FederatedJob, unit: int, site: Any, resource: str) -> None:
        """Submit one unit of ``job`` to ``site`` and record it: the
        dispatch, its task-index entry and its budget hold.  Every
        dispatch is announced as one ``job_placed`` naming the task and
        its ``unit``; for a one-unit job it is also the job's placement.
        Raises :class:`~repro.errors.SiteUnavailable` when the site
        refuses the task."""
        task_id = site.submit(job.program, resource, shots=job.shots, owner=job.owner)
        dispatch = Placement(
            site=site.name, task_id=task_id, placed_at=self.sim.now, unit=unit
        )
        job.placements.append(dispatch)
        job.live[unit] = dispatch
        self._tasks[(site.name, task_id)] = (job.job_id, unit)
        if job.resize is None:
            if len(job.placements) > 1:
                self._reroutes += 1
            self.table.set_state(job, JobState.PLACED)
        self._publish("job_placed", job.job_id, site=site.name, task_id=task_id, unit=unit)
        if self.accounting is not None:
            self.accounting.reserve_placement(
                job.owner, site.name, shots=job.shots, key=f"{job.job_id}/u{unit}"
            )

    def _place(self, job: FederatedJob, exclude: tuple[str, ...] = ()) -> None:
        """Place a one-unit job: through its pin, or on the site its
        algorithm picks among the candidates."""
        if job.attempts >= self.max_attempts:
            self._fail(job, f"exhausted {self.max_attempts} placement attempts")
            return
        if job.pin is not None:
            self._place_pinned(job)
            return
        excluded = list(exclude)
        while True:
            # only a successful placement adds an attempt, and it returns
            candidates = self._candidates(job, tuple(excluded))
            if not candidates:
                self._fail(
                    job,
                    f"no healthy site can take a {job.n_qubits}-qubit program "
                    f"(excluded: {sorted(excluded)})",
                )
                return
            choice = self._choose_site(job, candidates)
            site = self.registry.site(choice.name)
            try:
                self._dispatch(job, 0, site, self._resource_for(job, site, None))
            except (SiteUnavailable, ResourceNotFound):
                # lost a race with a mid-decision crash or a shrunk
                # catalog: exclude this site and retry
                excluded.append(choice.name)
                continue
            return

    def _fail(self, job: FederatedJob, reason: str) -> None:
        """Fail ``job``: cancel every live dispatch, release every
        budget hold, then announce the failure."""
        job.error = reason
        for unit in list(job.live):
            self._drop(job, unit, "job failed")
        if job.resize is None:
            # a one-unit job keeps its hold across a reroute, so it may
            # hold budget with nothing live
            self._release_hold(job, 0)
        self._table_of(job).set_state(job, JobState.FAILED)

    def _abandon(self, job: FederatedJob, unit: int, reason: str) -> None:
        """``unit`` lost its task: cancel it, announce and bill the
        retry, then take the next step of the job's kind.  A one-unit
        job re-places at once off the lost site (the new placement takes
        over its budget hold, or :meth:`_fail` releases it); a ledger
        unit returns to its pool for the next resize sweep, within its
        bounded attempts."""
        dispatch = self._drop(job, unit, reason, keep_hold=job.resize is None)
        self._rerouted(job, dispatch.site, reason, unit, task_id=dispatch.task_id)
        if job.resize is None:
            self._place(job, exclude=(dispatch.site,))
            return
        job.resize.ledger.abandon(unit)
        self.malleable._fail_if_exhausted(job, unit, reason)

    def _rerouted(self, job: FederatedJob, site: str, reason: str, unit: int, task_id: str = "") -> None:
        """Announce that ``unit`` of ``job`` lost its task on ``site`` and
        charge the tenant for the retry."""
        self._publish(
            "job_rerouted", job.job_id, site=site, task_id=task_id, unit=unit, reason=reason
        )
        if self.accounting is not None:
            self.accounting.meter_retry(
                job.owner, site, now=self.sim.now, job_id=job.job_id
            )

    # -- tracking --------------------------------------------------------------

    def _refresh(self, job: FederatedJob, unit: int = 0, event: JobEvent | None = None) -> None:
        """Advance one live dispatch of ``job`` from ``event``, the task
        transition its site pushed.  A one-unit job first reroutes off
        an unhealthy site — on the push and on the sweep, which calls
        this without an event."""
        if job.state is not JobState.PLACED:
            return
        dispatch = job.live.get(unit)
        if dispatch is None:
            return
        if event is not None and event.kind == "running":
            dispatch.started_at = event.payload.get("started_at")
            return
        site = dispatch.site
        if job.resize is None and self.registry.health_of(site, self.sim.now) is SiteHealth.UNHEALTHY:
            self._abandon(job, unit, f"site {site} unhealthy")
            return
        if event is None:
            return
        status = event.payload
        if status["state"] != "completed":
            self._abandon(job, unit, f"task {dispatch.task_id} {status['state']} on {site}")
            return
        result, err = self._fetch_result(job, dispatch)
        if err is not None:
            self._abandon(job, unit, f"query failed on {site}: {err}")
            return
        self._complete(job, unit, result, status)

    def _complete(self, job: FederatedJob, unit: int, result: Any, status: dict) -> None:
        """Land one finished unit: keep its result, checkpoint it on the
        share ledger, bill it and drop its hold.  The job completes with
        its last unit."""
        dispatch = self._untrack(job, unit)
        resize = job.resize
        if resize is None:
            job.result = result
        else:
            resize.results[unit] = result
        # service time from execution start, so queue wait neither
        # pollutes the resize loop's latency signal nor gets billed
        started = status.get("started_at")
        finished = status.get("finished_at")
        base = started if started is not None else dispatch.placed_at
        seconds = (finished if finished is not None else self.sim.now) - base
        if resize is not None:
            resize.ledger.checkpoint(unit)
            self.malleable._observe_latency(job, dispatch.site, seconds)
            self._publish("unit_completed", job.job_id, site=dispatch.site, unit=unit)
        if resize is None or resize.ledger.done:
            self._table_of(job).set_state(job, JobState.COMPLETED)
        if self.accounting is None:
            return
        self._release_hold(job, unit)
        self.accounting.meter_completion(
            job.owner,
            dispatch.site,
            shots=job.shots,
            cpu_seconds=max(0.0, seconds),
            now=self.sim.now,
            job_id=job.job_id,
        )

    def _releasable(self, job: FederatedJob) -> bool:
        """Can a held job start *right now*?  During a transient
        no-healthy-site window (heartbeat lapse) release must wait for
        the next sweep — HELD means parked, never failed-by-timing."""
        if job.pin is None:
            return bool(self._candidates(job))
        return self._pinned_site(job)[0] is not None

    def _release_held(self, table: JobTable) -> None:
        """Start ``table``'s held jobs whose tenant budget regained
        headroom (submission order — the hold queue is FIFO per pass).
        A job no site can take right now stays parked for the next pass.

        Admission is memoized per tenant for the pass (budgets move
        between passes): a hundred held jobs of one exhausted tenant
        cost one budget lookup, not one each."""
        from ..accounting import AdmissionDecision

        memo: dict = {}
        for job in table.in_state(JobState.HELD):
            decision = memo.get(job.owner)
            if decision is None:
                decision = memo[job.owner] = self.accounting.admission(job.owner)
            if decision is not AdmissionDecision.ADMIT:
                continue
            if not self._releasable(job):
                continue
            self._publish("admission", job.job_id, decision="released")
            if job.resize is None:
                self._place(job)
            else:
                self.malleable._activate(job)
            # activating reserved budget (or failing released it): the
            # tenant's next admission answer may differ — drop the memo
            memo.pop(job.owner, None)

    @scoped("broker.reconcile")
    def reconcile(self) -> None:
        """One failover sweep over the *live* jobs (held-job release,
        fixed-size refresh, the malleable resize loop).  Terminal jobs
        are archived out of the sweep tables, so tick cost tracks
        in-flight work, not completed history."""
        started = time.perf_counter()
        scanned = self.table.count(JobState.HELD)
        if self.accounting is not None:
            self._release_held(self.table)
        held_done = time.perf_counter()
        live = self.table.in_state(JobState.PLACED)
        scanned += len(live)
        for job in live:
            self._refresh(job)
        fixed_done = time.perf_counter()
        # the malleable pass builds its own admission memo: the refresh
        # loop above may have moved tenants' budgets
        malleable_scanned = self.malleable.tick()
        ended = time.perf_counter()
        # per-stage wall profile of the tick — the C6 bench turns these
        # into the self-calibrated latency ratios the CI gate watches
        self.last_reconcile = {
            "jobs_scanned": float(scanned),
            "malleable_scanned": float(malleable_scanned),
            "duration_s": ended - started,
            "held_s": held_done - started,
            "fixed_s": fixed_done - held_done,
            "malleable_s": ended - fixed_done,
        }

    # -- terminal-record eviction ----------------------------------------------

    def evict_terminal(self, ttl: float = 0.0) -> int:
        """Drop archived COMPLETED/FAILED records older than ``ttl``
        seconds so a long-lived broker's job tables stay bounded.

        Each evicted record is spilled to the accounting ledger's
        archive (when accounting is wired) before it leaves memory —
        billing history survives, the hot tables don't.  After eviction
        the job id is unknown to :meth:`job`/:meth:`result`; fetch
        results before the TTL or from the archive.  Returns the number
        of records evicted (fixed-size + malleable).
        """
        if ttl < 0:
            raise PlacementError("evict ttl must be >= 0")
        evicted = 0
        for table in (self.table, self.malleable.table):
            for job in table.evict(ttl):
                self._spill(job)
                evicted += 1
        if evicted:
            self._evicted += evicted
            self._publish("jobs_evicted", "", count=evicted)
        return evicted

    def _spill(self, job: FederatedJob) -> None:
        """Archive one evicted record in the ledger: a fixed job's last
        site and attempts, a ledger job's units, sites and resizes."""
        if self.accounting is None:
            return
        record = {
            "job_id": job.job_id,
            "tenant": job.owner,
            "state": job.state.value,
            "submitted_at": job.submitted_at,
            "finished_at": job.finished_at,
        }
        if job.resize is None:
            last = job.placements[-1] if job.placements else None
            record["site"] = last.site if last is not None else None
            record["shots"] = job.shots
            record["attempts"] = job.attempts
        else:
            record["units"] = job.units
            record["completed_units"] = job.completed_units
            record["completions_by_site"] = job.resize.ledger.completions_by_site()
            record["shots"] = job.shots * job.units
            record["resize_events"] = len(job.resize.events)
        record["error"] = job.error
        self.accounting.archive_job(record)

    def spawn_housekeeping(
        self,
        interval: float = 15.0,
        jitter: float = 0.0,
        seed: int = 0,
        evict_ttl: float | None = None,
    ) -> None:
        """Run :meth:`reconcile` on a cadence inside the simulation.

        ``jitter`` spreads each cycle uniformly over
        ``interval ± jitter`` seconds (drawn from a private
        deterministic stream seeded by ``seed``), so several brokers on
        one clock don't reconcile in lockstep — multi-broker tests and
        benches stop seeing synchronized sweep artifacts.

        ``evict_ttl`` additionally runs :meth:`evict_terminal` after
        every sweep: terminal records older than the TTL spill to the
        accounting archive and leave memory.  ``None`` (the default)
        keeps records forever — opt in for long-lived brokers.

        A sweep that raises ends its process; :meth:`stats` then
        reports the error as ``housekeeping_error``.
        """
        if not (0.0 <= jitter < interval):
            raise PlacementError("jitter must be in [0, interval)")
        rng = random.Random(seed) if jitter else None

        def run():
            while True:
                delay = interval
                if rng is not None:
                    delay += rng.uniform(-jitter, jitter)
                yield Timeout(delay)
                self.reconcile()
                if evict_ttl is not None:
                    self.evict_terminal(evict_ttl)

        self._housekeeping.append(
            self.sim.spawn(run(), name="federation-housekeeping", background=True)
        )

    # -- queries ---------------------------------------------------------------

    def job(self, job_id: str) -> FederatedJob:
        """The record behind any federated id: fixed-size, converted or
        multi-unit."""
        job = self._lookup(job_id)
        if job is None:
            raise PlacementError(f"unknown federated job {job_id!r}", job_id=job_id)
        return job

    def status(self, job_id: str) -> dict[str, Any]:
        """A read of one job's record: a fixed job's site, task and
        attempts, or a ledger job's units, shares and resizes."""
        job = self.job(job_id)
        status = {"job_id": job.job_id, "state": job.state.value}
        resize = job.resize
        if resize is None:
            placement = job.current
            status["site"] = placement.site if placement else None
            status["task_id"] = placement.task_id if placement else None
            status["attempts"] = job.attempts
        else:
            ledger = resize.ledger
            status["units"] = job.units
            status["completed_units"] = ledger.completed_units
            status["in_flight_units"] = ledger.in_flight_units
            status["shares"] = resize.weights()
            status["completions_by_site"] = ledger.completions_by_site()
            status["resize_events"] = len(resize.events)
            status["min_units"] = job.spec.min_units
            status["max_units"] = job.spec.max_units
            status["finished_at"] = job.finished_at
        status["submitted_at"] = job.submitted_at
        status["error"] = job.error
        return status

    def result(self, job_id: str) -> Any:
        """A fixed job's emulation result, or — for multi-unit and
        converted ids — the per-unit result map keyed by unit, which
        :meth:`FederatedClient.result
        <repro.federation.client.FederatedClient.result>` merges."""
        job = self.job(job_id)
        if job.state is JobState.FAILED:
            raise PlacementError(
                f"job {job_id} failed: {job.error}", job_id=job_id
            )
        if job.state is not JobState.COMPLETED:
            raise PlacementError(
                f"job {job_id} not finished (state {job.state.value})",
                job_id=job_id,
            )
        return job.result if job.resize is None else dict(job.resize.results)

    def wait(self, job_id: str):
        """Generator: suspend the calling simulated process until
        ``job_id`` is terminal, woken by its pushed ``job_*`` events.
        Raises :class:`~repro.errors.FederationError` instead of waiting
        forever when the job can only move on through a housekeeping
        sweep and none runs — checked on entry and again whenever one of
        its units loses its task (``job_rerouted``).

        One wake is one event: a reroute that fails the job in the same
        step publishes ``job_failed`` after the waiter has been woken,
        so each wake re-reads the state.  Rerouting a fixed job off a
        site whose heartbeat lapsed, with nothing pushed, is the sweep's
        work too; with no sweep its task stays where it is and the wait
        ends at that task's push."""
        kinds = TERMINAL_JOB_KINDS + ("job_rerouted",)
        while self.job(job_id).state not in TERMINAL_STATES:
            self._check_waitable(job_id)
            event = yield from wait_for(self.sim, self.events, job_id, kinds)
            if event.kind in TERMINAL_JOB_KINDS:
                return

    def _check_waitable(self, job_id: str) -> None:
        """Raise :class:`~repro.errors.FederationError` when ``job_id``
        is held, or is a ledger job with units left to dispatch, and no
        sweep of this broker is alive to move it on."""
        job = self.job(job_id)
        if any(process.alive for process in self._housekeeping):
            return
        if job.state is JobState.HELD:
            why = "is held for budget"
        elif (
            job.state is JobState.PLACED
            and job.resize is not None
            and job.resize.ledger.pending_units
        ):
            why = f"has {job.resize.ledger.pending_units} units left to dispatch"
        else:
            return
        raise FederationError(
            f"job {job_id} {why} and no housekeeping sweep runs: "
            "call spawn_housekeeping() on its broker"
        )

    def jobs(self, state: JobState | None = None) -> list[FederatedJob]:
        """The fixed-size jobs, all of them or those in ``state``
        (O(jobs in that state), not O(all))."""
        if state is None:
            return self.table.all()
        return self.table.in_state(state)

    def stats(self) -> dict[str, Any]:
        """O(1) snapshot from the maintained tables and counters — no
        scan over the (unbounded) job history."""
        mtable = self.malleable.table
        dead = [p.error for p in self._housekeeping if p.error is not None]
        return {
            "jobs": len(self.table) + len(mtable),
            "by_state": {
                s.value: self.table.count(s) + mtable.count(s) for s in JobState
            },
            "reroutes": self._reroutes,
            "malleable_jobs": len(mtable),
            "resize_events": self.malleable.resize_events,
            "evicted": self._evicted,
            # a housekeeping sweep that raised ends its process; say so
            # instead of letting reconcile stop without a trace
            "housekeeping_error": repr(dead[0]) if dead else None,
            # bus subscriber calls and stage-view folds that raised
            # (isolated, counted; reading the count drains the stage log)
            "bus_dropped": self.events.dropped,
            # simulated processes that died with nothing waiting on them
            "process_failures": self.sim.unobserved_failures,
            "sites": self.registry.names(),
            "profiles": (
                self.profiles.summary() if self.profiles is not None else None
            ),
        }
