"""Cross-site malleable placements: the broker as a feedback controller.

The paper's malleability model (§2.4) grows and shrinks a job's *node*
allocation inside one site.  This module lifts the same idea one level
up, to the federation: an iterative hybrid job — a sequence of
identical quantum-burst *units* (VQE parameter sweeps, SQD sampling
batches) — is split across several sites through a
:class:`~repro.scheduling.malleable.ShareLedger`, and a resize loop
re-divides the *future* units while the job runs:

* **shrink** — a site whose queue depth crosses the high watermark, or
  whose per-unit latency degrades against the federation's best, loses
  weight; a site whose heartbeat lapses is retired outright and its
  in-flight units return to the pool (preemption-safe: completed units
  are checkpointed and never redone),
* **grow** — idle healthy sites, including late joiners and recovered
  sites, gain weight and start pulling units,
* **rebalance** — every pass that changes a weight re-divides the
  outstanding units by largest remainder.

The ranking that decides *who deserves share* comes from the broker's
routing policy (:meth:`~repro.federation.policies.RoutingPolicy.rank_resize`),
so placement preference and resize preference cannot diverge.  Job ids
stay stable across every resize, retry, and failover, exactly like the
fixed-size path.

A malleable job is the broker's own :class:`~repro.federation.broker.FederatedJob`
with ``units`` > 1 (or a converted fixed spec) and a
:class:`ResizeState`: its share ledger plus the resize history.  It
lives in a :class:`~repro.federation.broker.JobTable` of ``fed-mjob-N``
ids and shares the broker's intake, held release, dispatch, task
index, completion, abandon and fail paths.  A unit completes at its
site's pushed transition, like a fixed-size job; what stays here is
what only a ledger job has: share seeding, fair-share slot
arbitration, the resize loop and the sweep that dispatches units from
the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import FederationError, PlacementError, ResourceNotFound, SiteUnavailable
from ..observability.profiling import scoped
from ..scheduling.algorithms import SchedulingAlgorithm
from ..scheduling.malleable import ShareLedger
from ..spec import JobSpec, parse_site_leg
from .broker import FederatedJob, JobState, JobTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .broker import FederationBroker
    from .registry import SiteSnapshot

__all__ = ["MalleableManager", "ResizeConfig", "ResizeState", "ShareEvent"]


# the resize loop's transfer function
#: queue_depth / max_queue_depth at or above this → share weight 0
HIGH_WATERMARK = 0.75
#: site EWMA unit latency > ratio x federation best → demote
SLOW_RATIO = 2.5
#: smoothing for per-site unit latency
EWMA_ALPHA = 0.5
#: floor weight a slow-but-alive site keeps (a trickle of units
#: keeps refreshing its latency estimate so recovery is observable)
DEMOTED_WEIGHT = 0.25


@dataclass(frozen=True)
class ResizeConfig:
    """The resize loop's one tunable knob."""

    #: max units concurrently in flight per site per job
    max_outstanding_per_site: int = 2

    def __post_init__(self) -> None:
        if self.max_outstanding_per_site < 1:
            raise PlacementError("max_outstanding_per_site must be >= 1")


@dataclass
class ShareEvent:
    """One resize decision, kept for observability and the benchmarks."""

    time: float
    kind: str  # "grow" | "shrink" | "retire"
    site: str
    weight_before: float
    weight_after: float
    reason: str


@dataclass
class ResizeState:
    """What a ledger job carries beyond a fixed-size one: the share
    ledger its units are spread by, and the resize loop's history."""

    ledger: ShareLedger
    #: ``spec.sites`` restriction (bare site names), None = any site
    restrict_sites: tuple[str, ...] | None = None
    #: site -> pinned resource, from qualified ``site/resource`` legs
    pins: dict[str, str] = field(default_factory=dict)
    events: list[ShareEvent] = field(default_factory=list)
    latency_ewma: dict[str, float] = field(default_factory=dict)
    #: unit -> result of every unit that landed
    results: dict[int, Any] = field(default_factory=dict)

    def weights(self) -> dict[str, float]:
        return {
            s.site: s.weight for s in self.ledger.shares.values() if not s.retired
        }

    def events_of(self, kind: str) -> list[ShareEvent]:
        return [e for e in self.events if e.kind == kind]


class MalleableManager:
    """Owns the malleable jobs of one broker and runs their resize loop.

    The broker's :meth:`~repro.federation.broker.FederationBroker.reconcile`
    sweep calls :meth:`tick` — the same cadence that drives fixed-size
    failover drives shrink/grow, so there is exactly one feedback loop
    to reason about.
    """

    def __init__(
        self, broker: "FederationBroker", config: ResizeConfig | None = None
    ) -> None:
        self.broker = broker
        #: the broker's clock, which also carries the run's profiler
        self.sim = broker.sim
        self.config = config or ResizeConfig()
        #: the malleable jobs: the tick sweeps live ones only
        self.table = JobTable("fed-mjob", broker.sim, broker._publish)
        #: share events recorded over every job (maintained, not scanned)
        self.resize_events = 0
        # fair-share arbitration memo: (signature, caps) of the last
        # pass — recomputed only when contenders/demands/weights change
        self._arb_sig: tuple | None = None
        self._arb_caps: dict[tuple[str, str], int] | None = None

    # -- intake ---------------------------------------------------------------

    def submit_spec(self, spec: JobSpec) -> str:
        """Accept a validated multi-unit :class:`~repro.spec.JobSpec` of
        ``iterations`` burst units; returns a stable job id that
        survives every resize and failover.  Elasticity (units, site
        restriction, malleable-vs-rigid, in-flight bounds) lives in the
        spec, not the call site.

        ``spec.sites`` optionally restricts the candidate set; entries
        may be bare site names or qualified ``site/resource`` pins.
        With ``malleable=False`` the units are pre-assigned round-robin
        and never rebalanced — the rigid baseline the ablation measures
        against (health failover still applies: rigidity is about load,
        not about losing jobs).
        """
        resize = ResizeState(
            ledger=ShareLedger(spec.iterations, max_attempts=self.broker.max_attempts)
        )
        if spec.sites is not None:
            parsed = [parse_site_leg(s) for s in spec.sites]
            resize.restrict_sites = tuple(site for site, _ in parsed)
            resize.pins = {site: res for site, res in parsed if res is not None}
        job = self.broker._intake(
            self.table, spec, units=spec.iterations, resize=resize
        )
        if job.state is JobState.PLACED:
            self._activate(job)
        return job.job_id

    def _activate(self, job: FederatedJob) -> None:
        """Start an admitted job, or a released held one: shares seed
        against the *current* candidate set — the federation may have
        changed while it was parked — and the first dispatch is already
        arbitrated, so a late-arriving job starts at its fair share
        instead of flooding the queues until the next tick."""
        self.table.set_state(job, JobState.PLACED)
        self._seed_shares(job)
        if job.state is JobState.PLACED:
            self._dispatch(job, self._arbitrate_slots())

    def _seed_shares(self, job: FederatedJob) -> None:
        candidates = self.broker._candidates(job)
        if not candidates:
            # mirror the fixed-size intake contract: accept the job and
            # fail it with a diagnosis rather than raising after the
            # job id is already registered
            self.broker._fail(
                job, f"no healthy site can take a {job.n_qubits}-qubit malleable job"
            )
            return
        now = self.broker.sim.now
        ranked = self.broker.policy.rank_resize(job, candidates, now)
        ledger = job.resize.ledger
        if job.spec.malleable:
            for i, snap in enumerate(ranked):
                weight = float(len(ranked) - i)
                ledger.add_site(snap.name, weight)
                self._record_event(job, "grow", snap.name, 0.0, weight, "join")
        else:
            for snap in ranked:
                ledger.add_site(snap.name, 1.0)
            ledger.freeze()

    # -- the resize loop -------------------------------------------------------

    @scoped("malleable.tick")
    def tick(self) -> int:
        """One controller pass: release held jobs, rebalance (or, for a
        rigid job, retire dead sites), then top up dispatches for every
        live job — under the fair-share slot caps when several jobs
        contend and accounting is wired.  Units already advanced at
        their push.
        Sweeps the live tables only; returns how many jobs it touched
        (the broker's reconcile instrumentation)."""
        scanned = self.table.count(JobState.HELD)
        if self.broker.accounting is not None:
            # a fresh admission memo: the fixed-size refresh loop runs
            # before this pass and can move budgets
            self.broker._release_held(self.table)
        live = self.table.in_state(JobState.PLACED)
        scanned += len(live)
        for job in live:
            if job.state is not JobState.PLACED:
                continue  # went terminal earlier this sweep
            if job.spec.malleable:
                self._rebalance(job)
            else:
                self._retire_unhealthy(job)
        caps = self._arbitrate_slots()
        for job in live:
            if job.state is not JobState.PLACED:
                continue
            self._dispatch(job, caps)
            self._fail_if_stranded(job)
        return scanned

    def _arbitrate_slots(self) -> dict[tuple[str, str], int] | None:
        """Couple the per-job resize loops by tenant fair share: on
        every site where several live jobs hold an active share, the
        per-site outstanding-unit budget (``max_outstanding_per_site``)
        becomes a *shared* capacity, divided by one
        :meth:`~repro.scheduling.algorithms.SchedulingAlgorithm.divide`
        call weighted by the
        :class:`~repro.accounting.FairShareArbiter`'s *effective* tenant
        weights (usage-decayed when it has a half-life configured).
        Each contender's discipline is the one its spec selects through
        the broker; the site divides with the default weighted max-min
        fill unless a contender's discipline divides its own way (a
        pairwise negotiation from current in-flight holdings), in which
        case the whole site negotiates, and a division that moved units
        is published as ``slots_agreed``.
        Returns ``{(job_id, site): slots}`` or ``None`` when no
        arbitration applies (no accounting, or no contention)."""
        accounting = self.broker.accounting
        if accounting is None:
            return None
        live = self.table.in_state(JobState.PLACED)
        if len(live) < 2:
            self._arb_sig = None
            return None
        capacity = self.config.max_outstanding_per_site
        active: dict[str, list[str]] = {
            j.job_id: j.resize.ledger.active_sites() for j in live
        }
        sites: set[str] = set()
        for names in active.values():
            sites.update(names)
        # dirty-flag pass: the slot division below only needs to re-run
        # when the contender set, a demand, or a tenant weight actually
        # changed — on a quiet tick the previous grant table stands
        signature = (
            capacity,
            accounting.arbiter.version,
            tuple(
                (
                    j.job_id,
                    j.owner,
                    tuple(active[j.job_id]),
                    min(capacity, j.resize.ledger.pending_units),
                    tuple(
                        (s, len(j.resize.ledger.in_flight_at(s)))
                        for s in active[j.job_id]
                    ),
                )
                for j in live
            ),
        )
        if signature == self._arb_sig:
            return self._arb_caps
        now = self.broker.sim.now
        caps: dict[tuple[str, str], int] = {}
        for site in sorted(sites):
            contenders = [j for j in live if site in active[j.job_id]]
            if len(contenders) < 2:
                continue  # sole occupant keeps the full per-site budget
            # fairness attaches to the *tenant*: one owner's weight is
            # split over however many jobs they run here, so submitting
            # N jobs cannot multiply a tenant's aggregate share
            owner_jobs: dict[str, int] = {}
            for job in contenders:
                owner_jobs[job.owner] = owner_jobs.get(job.owner, 0) + 1
            demands = {}
            weights = {}
            holdings = {}
            for job in contenders:
                ledger = job.resize.ledger
                in_flight = len(ledger.in_flight_at(site))
                outstanding = ledger.pending_units + in_flight
                demands[job.job_id] = min(capacity, outstanding)
                weights[job.job_id] = accounting.arbiter.effective_weight(
                    job.owner, now
                ) / owner_jobs[job.owner]
                holdings[job.job_id] = in_flight
            # one contender whose discipline divides its own way (a
            # negotiation from holdings) makes the whole site divide so
            disciplines = [self.broker._algorithm_for(j.spec) for j in contenders]
            discipline = next(
                (d for d in disciplines if type(d).divide is not SchedulingAlgorithm.divide),
                disciplines[0],
            )
            alloc, transfers = discipline.divide(capacity, demands, weights, holdings)
            if transfers:
                self.broker._publish("slots_agreed", "", site=site, transfers=transfers)
            for job_id, slots in alloc.items():
                caps[(job_id, site)] = slots
        self._arb_sig = signature
        self._arb_caps = caps
        return caps

    def _fail_if_stranded(self, job: FederatedJob) -> None:
        """Mirror the fixed-size broker's behavior when the federation
        runs out of options: a job with work left, nothing in flight,
        and no candidate site fails loudly instead of polling forever."""
        if job.state is not JobState.PLACED:
            return
        ledger = job.resize.ledger
        if ledger.done or ledger.in_flight_units > 0:
            return
        if self.broker._candidates(job):
            return
        self.broker._fail(
            job,
            f"no healthy site can take a {job.n_qubits}-qubit malleable job "
            f"({ledger.pending_units} units stranded)",
        )

    def _site_latency(self, job: FederatedJob, site: str, now: float) -> float | None:
        """Effective unit latency: the completion EWMA, or the running
        age of an *executing* in-flight unit when that is already worse
        — so a stall is detected mid-unit, not only after it finally
        lands.  Queued-but-not-started units carry no evidence."""
        ewma = job.resize.latency_ewma.get(site)
        ages = [
            now - d.started_at
            for d in job.live.values()
            if d.site == site and d.started_at is not None
        ]
        oldest = max(ages, default=None)
        if ewma is None:
            return oldest
        if oldest is None:
            return ewma
        return max(ewma, oldest)

    def _observe_latency(self, job: FederatedJob, site: str, latency: float) -> None:
        ewma = job.resize.latency_ewma
        ewma[site] = (
            latency
            if site not in ewma
            else EWMA_ALPHA * latency + (1.0 - EWMA_ALPHA) * ewma[site]
        )

    def _fail_if_exhausted(self, job: FederatedJob, unit: int, reason: str) -> bool:
        """Enforce the bounded-retry contract after any attempt charge."""
        if job.state is not JobState.PLACED:
            return True
        ledger = job.resize.ledger
        if not ledger.exhausted(unit):
            return False
        self.broker._fail(
            job,
            f"unit {unit} exhausted {ledger.attempts(unit)} placement "
            f"attempts: {reason}",
        )
        return True

    def _reclaim_queued(self, job: FederatedJob, site: str, reason: str) -> None:
        """Trim a shrunk site's dispatches down to its new allocation by
        cancelling queued-but-not-started units (newest first) — they
        hold no work, so the pull-back is attempt-free.  Executing units
        are left alone: the preemption-safe boundary is the unit."""
        ledger = job.resize.ledger
        allowed = ledger.allocation().get(site, 0)
        queued = [
            unit
            for unit in ledger.in_flight_at(site)
            if job.live[unit].started_at is None
        ]
        queued.sort(key=lambda u: job.live[u].placed_at)
        while queued and len(ledger.in_flight_at(site)) > allowed:
            unit = queued.pop()  # newest placement goes back first
            self.broker._drop(job, unit, f"reclaimed: {reason}")
            ledger.reclaim(unit)
            self.broker._publish(
                "resize", job.job_id, site=site, action="reclaim",
                unit=unit, reason=reason,
            )

    def _retire_site(self, job: FederatedJob, site: str, reason: str) -> None:
        """Shrink-to-zero with eviction: cancel the site's in-flight
        units and return them to the pool (checkpointed units stay)."""
        ledger = job.resize.ledger
        weight_before = ledger.weight(site)
        doomed = ledger.in_flight_at(site)
        for unit in doomed:
            self.broker._drop(job, unit, reason)
            self.broker._rerouted(job, site, reason, unit)
        ledger.retire(site)  # abandons the doomed units
        self._record_event(job, "retire", site, weight_before, 0.0, reason)
        for unit in doomed:
            if self._fail_if_exhausted(job, unit, reason):
                return

    def _retire_departed(self, job: FederatedJob) -> list[SiteSnapshot]:
        """Evict the job's shares on sites that fell out of its
        candidate set; returns the candidates."""
        candidates = self.broker._candidates(job)
        names = {s.name for s in candidates}
        for site in list(job.resize.ledger.active_sites()):
            if site not in names:
                self._retire_site(job, site, f"site {site} left the federation")
        return candidates

    def _retire_unhealthy(self, job: FederatedJob) -> None:
        """Rigid jobs still fail over on health — rigidity is about
        load shares, not about losing work when a site dies."""
        candidates = self._retire_departed(job)
        ledger = job.resize.ledger
        if job.state is not JobState.PLACED:
            return
        if not ledger.active_sites() and candidates:
            # every shareholder died before a replacement existed:
            # adopt the current candidates (equal rigid shares) and
            # re-pin the orphaned units so the job survives the wipeout
            for snap in candidates:
                if snap.name in ledger.shares:
                    ledger.revive(snap.name, 1.0)
                else:
                    ledger.add_site(snap.name, 1.0)
                self._record_event(
                    job, "grow", snap.name, 0.0, 1.0, "rigid re-seed"
                )
            ledger.assign_orphans()

    def _rebalance(self, job: FederatedJob) -> None:
        """Recompute target weights from the policy ranking plus the
        controller's degradation signals; emit grow/shrink events."""
        now = self.broker.sim.now
        candidates = self._retire_departed(job)
        ledger = job.resize.ledger
        if job.state is not JobState.PLACED or not candidates:
            return

        ranked = self.broker.policy.rank_resize(job, candidates, now)
        latencies: dict[str, float] = {}
        for snap in ranked:
            lat = self._site_latency(job, snap.name, now)
            if lat is None:
                continue
            # ratchet observed stalls into the EWMA: once a unit has
            # visibly run for 600 s, a fresh unit starting must not
            # reset the evidence — only genuinely fast completions
            # (via the normal EWMA update) walk the estimate back down
            ewma = job.resize.latency_ewma.get(snap.name)
            if ewma is None or lat > ewma:
                job.resize.latency_ewma[snap.name] = lat
            latencies[snap.name] = lat
        best_latency = min(latencies.values(), default=None)
        target: dict[str, float] = {}
        reasons: dict[str, str] = {}
        demoted: set[str] = set()
        for i, snap in enumerate(ranked):
            weight = float(len(ranked) - i)
            reason = "rank"
            if snap.queue_depth >= HIGH_WATERMARK * snap.max_queue_depth:
                weight, reason = 0.0, "queue depth over watermark"
                demoted.add(snap.name)
            else:
                ewma = latencies.get(snap.name)
                if (
                    best_latency is not None
                    and ewma is not None
                    and ewma > SLOW_RATIO * best_latency
                ):
                    # proportional shrink off the *bottom* rank weight —
                    # a starved slow site ranks well on queue depth, and
                    # letting that amplify a demoted share would make the
                    # controller fight itself (shrink, drain, re-grow).
                    # A 10x-slower site keeps ~1/10 of one share, floored
                    # at a probing trickle.
                    weight = max(best_latency / ewma, DEMOTED_WEIGHT)
                    reason = "unit latency degraded"
                    demoted.add(snap.name)
            target[snap.name] = weight
            reasons[snap.name] = reason
        # straggler avoidance: once the remaining units all fit on the
        # healthy sites concurrently, a demoted site's trickle would
        # anchor the tail of the job — starve it outright instead
        outstanding = ledger.pending_units + ledger.in_flight_units
        healthy_slots = (len(ranked) - len(demoted)) * (
            self.config.max_outstanding_per_site
        )
        if demoted and healthy_slots >= outstanding:
            for site in demoted:
                if target[site] > 0.0:
                    target[site] = 0.0
                    reasons[site] += " (tail: no straggler units)"

        changed = False
        for site, weight in target.items():
            share = ledger.shares.get(site)
            if share is None:
                ledger.add_site(site, weight)
                self._record_event(job, "grow", site, 0.0, weight, "join")
                changed = True
                continue
            if share.retired:
                ledger.revive(site, weight)
                self._record_event(job, "grow", site, 0.0, weight, "rejoin")
                changed = True
                continue
            before = share.weight
            # dead-band: ignore sub-0.1 drift so a slowly-aging EWMA
            # does not emit a shrink event on every housekeeping tick
            if abs(weight - before) < 0.1:
                continue
            ledger.set_weight(site, weight)
            kind = "grow" if weight > before else "shrink"
            self._record_event(job, kind, site, before, weight, reasons[site])
            if kind == "shrink" and reasons[site] != "rank":
                # degradation shrink: pull back units still *queued*
                # there (never started executing, so no work is lost
                # and no attempt is charged) for redispatch elsewhere
                self._reclaim_queued(job, site, reasons[site])
            changed = True
        if changed:
            self.broker._publish("rebalance", job.job_id)

    def _dispatch(
        self,
        job: FederatedJob,
        caps: dict[tuple[str, str], int] | None = None,
    ) -> None:
        """Top up every active site to its allocation (pull model: fast
        sites come back for more units sooner).  ``caps`` are the
        fair-share arbiter's per-(job, site) slot grants; absent an
        entry the full per-site budget applies."""
        ledger = job.resize.ledger
        for site_name in ledger.active_sites():
            if job.state is not JobState.PLACED:
                return
            try:
                site = self.broker.registry.site(site_name)
            except FederationError:
                continue
            slot_cap = self.config.max_outstanding_per_site
            if caps is not None:
                slot_cap = caps.get((job.job_id, site_name), slot_cap)
            while len(ledger.in_flight_at(site_name)) < slot_cap:
                if (
                    job.spec.max_units is not None
                    and ledger.in_flight_units >= job.spec.max_units
                ):
                    # spec-declared elasticity ceiling: never more than
                    # max_units concurrently in flight across all sites
                    return
                unit = ledger.claim(site_name)
                if unit is None:
                    break
                try:
                    resource = self.broker._resource_for(
                        job, site, job.resize.pins.get(site_name)
                    )
                    self.broker._dispatch(job, unit, site, resource)
                except (SiteUnavailable, ResourceNotFound) as err:
                    ledger.abandon(unit)
                    self._retire_site(job, site_name, str(err))
                    self._fail_if_exhausted(job, unit, str(err))
                    break

    def _record_event(
        self,
        job: FederatedJob,
        kind: str,
        site: str,
        before: float,
        after: float,
        reason: str,
    ) -> None:
        job.resize.events.append(
            ShareEvent(
                time=self.broker.sim.now,
                kind=kind,
                site=site,
                weight_before=before,
                weight_after=after,
                reason=reason,
            )
        )
        self.resize_events += 1
        self.broker._publish(
            "resize",
            job.job_id,
            site=site,
            action=kind,
            weight_before=before,
            weight_after=after,
            reason=reason,
        )
