"""Pluggable routing policies for the federation broker.

A policy answers one question: given the healthy candidate sites for a
job (the broker has already filtered health, capability, and — when any
unsaturated site exists — saturation), which site runs it?  The four
policies mirror the routing families from the co-scheduling literature
(see PAPERS.md: Uberun-style profile-informed placement, malleable
spillover):

* :class:`RoundRobinPolicy`   — fairness baseline, state is one cursor,
* :class:`LeastQueuePolicy`   — route to the shallowest queue,
* :class:`CalibrationAwarePolicy` — prefer the site whose QPU drift is
  lowest for the program's geometry (big registers weight drift harder,
  since blockade-scale errors compound with atom count),
* :class:`StickyPolicy`       — locality/affinity: iterative workloads
  (VQE/SQD sessions) keep hitting the site that holds their warm state,
  falling back to an inner policy on first placement or failover,
* :class:`CostAwarePolicy`    — budget-coupled: rank sites by the share
  of the tenant's remaining federation budget a placement there would
  burn (per-site rate cards) alongside queue depth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import FederationError
from .registry import SiteSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .broker import FederatedJob

__all__ = [
    "CalibrationAwarePolicy",
    "CostAwarePolicy",
    "LeastQueuePolicy",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "StickyPolicy",
]


class RoutingPolicy:
    """Base class: choose one snapshot from a non-empty candidate list.

    Policies answer two questions, and every concrete policy must
    declare both:

    * :meth:`choose` — which site runs a fixed-size job,
    * :meth:`rank_resize` — for malleable placements, the *order* in
      which candidate sites deserve share.  The broker's resize loop
      turns that order into share weights, so a policy's routing
      preference and its grow/shrink preference cannot drift apart.
    """

    name = "abstract"

    def choose(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> SiteSnapshot:
        raise NotImplementedError

    def rank_resize(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> list[SiteSnapshot]:
        """Candidates ordered most- to least-deserving of malleable share."""
        raise NotImplementedError

    def _require(self, candidates: list[SiteSnapshot]) -> None:
        if not candidates:
            raise FederationError(f"policy {self.name!r} called with no candidates")


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through sites in name order; fair under equal health."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> SiteSnapshot:
        self._require(candidates)
        ordered = sorted(candidates, key=lambda s: s.name)
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice

    def rank_resize(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> list[SiteSnapshot]:
        """Rotate name order by the cursor: shares stay fair over time
        without thrashing within one resize tick (the cursor only
        advances on placements)."""
        self._require(candidates)
        ordered = sorted(candidates, key=lambda s: s.name)
        pivot = self._cursor % len(ordered)
        return ordered[pivot:] + ordered[:pivot]


class LeastQueuePolicy(RoutingPolicy):
    """Shallowest queue wins; ties break on name for determinism."""

    name = "least-queue"

    def choose(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> SiteSnapshot:
        self._require(candidates)
        return min(candidates, key=lambda s: (s.queue_depth, s.name))

    def rank_resize(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> list[SiteSnapshot]:
        """Shallowest queues deserve the biggest shares."""
        self._require(candidates)
        return sorted(candidates, key=lambda s: (s.queue_depth, s.name))


class CalibrationAwarePolicy(RoutingPolicy):
    """Route by drift-adjusted score.

    Score = geometry-weighted infidelity plus a queue-pressure term, so
    a pristine-but-buried site does not starve a slightly-drifted idle
    one.  ``1 - fidelity_proxy`` is scaled by the program's register
    size relative to the site's capacity: the larger the register, the
    more a drifted calibration costs (more atoms see the miscalibrated
    drive), matching how drift degrades blockade-ordered outcomes.
    """

    name = "calibration-aware"

    def __init__(self, queue_weight: float = 0.02) -> None:
        self.queue_weight = queue_weight

    def _score(self, job: "FederatedJob", snap: SiteSnapshot) -> tuple[float, str]:
        n_qubits = max(1, job.n_qubits)
        geometry_weight = 1.0 + n_qubits / max(1, snap.max_qubits)
        drift_cost = (1.0 - snap.fidelity_proxy) * geometry_weight
        return (drift_cost + self.queue_weight * snap.queue_depth, snap.name)

    def choose(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> SiteSnapshot:
        self._require(candidates)
        return min(candidates, key=lambda snap: self._score(job, snap))

    def rank_resize(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> list[SiteSnapshot]:
        """Least drift-adjusted cost deserves the biggest share."""
        self._require(candidates)
        return sorted(candidates, key=lambda snap: self._score(job, snap))


class CostAwarePolicy(RoutingPolicy):
    """Route by budget burn rate alongside queue depth.

    For each candidate site, the score is the fraction of the tenant's
    *remaining* federation budget one placement there would burn (the
    job's shots priced at that site's
    :class:`~repro.accounting.SiteRateCard`) plus a queue-pressure
    term.  The coupling is deliberate:

    * a tenant with plenty of budget routes essentially like
      least-queue (burn is a rounding error against the headroom),
    * as the budget drains, the cheap sites pull ahead even when their
      queues are deeper — the policy stretches the remaining credits,
    * unbudgeted tenants burn nothing and balance purely on load.

    Classical runtime is unknown at placement time, so only the shot
    component prices the burn; metered CPU-seconds still hit the ledger
    at completion.
    """

    name = "cost-aware"

    def __init__(self, accounting, queue_weight: float = 0.05) -> None:
        if accounting is None:
            raise FederationError("cost-aware routing needs a FederationAccounting")
        self.accounting = accounting
        self.queue_weight = queue_weight

    def _job_shots(self, job) -> int:
        shots = getattr(job, "shots", None)
        if shots is None:
            shots = getattr(getattr(job, "program", None), "shots", None)
        return int(shots or 100)

    def _score(self, job, snap: SiteSnapshot) -> tuple[float, str]:
        card = self.accounting.rates.card_for(snap.name)
        cost = card.qpu_shot_price * self._job_shots(job)
        remaining = self.accounting.remaining(getattr(job, "owner", ""))
        if remaining == float("inf"):
            burn = 0.0
        else:
            burn = cost / max(remaining, 1e-9)
        pressure = snap.queue_depth / max(1, snap.max_queue_depth)
        return (burn + self.queue_weight * pressure, snap.name)

    def choose(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> SiteSnapshot:
        self._require(candidates)
        return min(candidates, key=lambda snap: self._score(job, snap))

    def rank_resize(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> list[SiteSnapshot]:
        """Lowest burn-per-unit deserves the biggest malleable share."""
        self._require(candidates)
        return sorted(candidates, key=lambda snap: self._score(job, snap))


class StickyPolicy(RoutingPolicy):
    """Affinity routing: one site per affinity key while it stays healthy.

    Iterative hybrid workloads (VQE parameter loops, SQD batches)
    benefit from landing every burst on the same site: warm sessions,
    one calibration context across iterations.  The binding breaks only
    when the bound site leaves the candidate set (unhealthy/saturated),
    at which point the inner policy re-places and the key re-binds —
    that is the failover path.
    """

    name = "sticky"

    def __init__(self, fallback: RoutingPolicy | None = None) -> None:
        self.fallback = fallback or LeastQueuePolicy()
        self._bindings: dict[str, str] = {}

    def choose(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> SiteSnapshot:
        self._require(candidates)
        key = job.affinity_key
        if key is None:
            return self.fallback.choose(job, candidates, now)
        bound = self._bindings.get(key)
        if bound is not None:
            for snap in candidates:
                if snap.name == bound:
                    return snap
        choice = self.fallback.choose(job, candidates, now)
        self._bindings[key] = choice.name
        return choice

    def rank_resize(
        self, job: "FederatedJob", candidates: list[SiteSnapshot], now: float
    ) -> list[SiteSnapshot]:
        """The bound site keeps the lion's share while it stays a
        candidate; everyone else ranks by the fallback policy."""
        self._require(candidates)
        ranked = self.fallback.rank_resize(job, candidates, now)
        key = job.affinity_key
        bound = self._bindings.get(key) if key is not None else None
        if bound is not None:
            head = [s for s in ranked if s.name == bound]
            if head:
                return head + [s for s in ranked if s.name != bound]
        return ranked

    def binding(self, key: str) -> str | None:
        return self._bindings.get(key)
