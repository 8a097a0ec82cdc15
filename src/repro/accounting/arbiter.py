"""Tenant fair-share weights for slot arbitration across federated jobs.

Two malleable jobs on one federation each run their own
:class:`~repro.scheduling.malleable.ShareLedger` resize loop — without
coupling, both would claim the full per-site outstanding-unit budget
and fairness between *jobs* would be whatever the site queues happen to
serve.  The resize loop closes that gap: it divides a site's
concurrent-unit slots among the contending jobs with one
:meth:`SchedulingAlgorithm.divide
<repro.scheduling.algorithms.base.SchedulingAlgorithm.divide>` call
weighted by the :class:`FairShareArbiter`.  Weights attach to *tenants*
(the federation principal), so every job a tenant runs draws from one
fair-share identity; :attr:`~FairShareArbiter.version` moves on every
weight change, and the resize loop's dirty-flag arbitration keys on it.

With ``half_life_s`` set, the arbiter also tracks **decayed usage** per
tenant (classic Slurm-style fair-share): every metered cost ages out
exponentially with the configured half-life, and
:meth:`FairShareArbiter.effective_weight` discounts the configured
weight by ``0.5 ** (decayed_usage / usage_scale)`` — a tenant that just
burned a lot of budget temporarily weighs less, recovering as its
usage decays.  With the default ``half_life_s=None`` the decay
machinery is inert and ``effective_weight`` equals ``weight`` exactly.
"""

from __future__ import annotations

from ..errors import AccountingError

__all__ = ["FairShareArbiter"]


class FairShareArbiter:
    """Per-tenant share weights, discounted by decayed usage."""

    def __init__(
        self,
        default_weight: float = 1.0,
        half_life_s: float | None = None,
        usage_scale: float = 100.0,
    ) -> None:
        if default_weight <= 0:
            raise AccountingError("default share weight must be > 0")
        if half_life_s is not None and half_life_s <= 0:
            raise AccountingError("usage half-life must be > 0")
        if usage_scale <= 0:
            raise AccountingError("usage_scale must be > 0")
        self.default_weight = default_weight
        #: decay half-life for observed usage (simulated seconds);
        #: ``None`` disables usage-based weight discounting entirely
        self.half_life_s = half_life_s
        #: usage units per halving of effective weight — the knee of
        #: the discount curve
        self.usage_scale = usage_scale
        self._weights: dict[str, float] = {}
        #: per-tenant ``(decayed_usage, as_of)`` pairs; usage is always
        #: decayed forward to the read/write time lazily
        self._usage: dict[str, tuple[float, float]] = {}
        #: bumped on every weight change — callers that cache an
        #: allocation (the resize loop's dirty-flag arbitration) key
        #: on this instead of comparing whole weight tables
        self.version = 0

    # -- weights ------------------------------------------------------------

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise AccountingError("share weight must be > 0")
        self._weights[tenant] = weight
        self.version += 1

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, self.default_weight)

    def weights(self) -> dict[str, float]:
        return dict(self._weights)

    # -- decayed usage -------------------------------------------------------

    def observe_usage(self, tenant: str, cost: float, now: float) -> None:
        """Charge ``cost`` usage units to ``tenant`` at time ``now``.
        A no-op unless a half-life is configured, so wiring this into
        the metering path costs nothing in the default configuration."""
        if self.half_life_s is None or cost <= 0:
            return
        self._usage[tenant] = (self.decayed_usage(tenant, now) + cost, now)
        self.version += 1

    def decayed_usage(self, tenant: str, now: float) -> float:
        """The tenant's usage, aged to ``now`` by the half-life."""
        if self.half_life_s is None:
            return 0.0
        usage, as_of = self._usage.get(tenant, (0.0, now))
        if usage <= 0.0:
            return 0.0
        elapsed = max(0.0, now - as_of)
        return usage * 0.5 ** (elapsed / self.half_life_s)

    def effective_weight(self, tenant: str, now: float) -> float:
        """The configured weight, discounted by decayed usage — equal
        to :meth:`weight` when no half-life is configured."""
        base = self.weight(tenant)
        if self.half_life_s is None:
            return base
        return base * 0.5 ** (self.decayed_usage(tenant, now) / self.usage_scale)
