"""The federation-wide usage ledger and per-tenant invoices.

One :class:`UsageLedger` serves a whole federation: every site's
consumption lands here as immutable, priced :class:`UsageEvent` rows,
so a tenant spilling over three sites still has exactly one ledger —
and gets exactly one :class:`Invoice` whose per-site lines are priced
at each site's own :class:`~repro.accounting.rates.SiteRateCard`.

Feeds:

* the federation broker meters fixed-size job completions (shots +
  classical seconds) and failover retries,
* the malleable resize loop meters per-unit completions and
  unit retries,
* a site's local :class:`~repro.cluster.accounting.AccountingDB` can be
  bulk-ingested (:meth:`UsageLedger.ingest_accounting_db`) so batch
  cluster jobs bill to the same federation principal as brokered ones.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import AccountingError
from .rates import RateBook, UsageKind

__all__ = ["Invoice", "InvoiceLine", "UsageEvent", "UsageLedger"]


@dataclass(frozen=True, slots=True)
class UsageEvent:
    """One immutable metered-consumption row."""

    tenant: str
    site: str
    kind: UsageKind
    quantity: float
    unit_price: float
    cost: float
    time: float
    job_id: str = ""


@dataclass(frozen=True)
class InvoiceLine:
    """One (site, kind) aggregate on an invoice."""

    site: str
    kind: UsageKind
    quantity: float
    unit_price: float
    cost: float


@dataclass(frozen=True)
class Invoice:
    """The single cross-site bill of one tenant."""

    tenant: str
    issued_at: float
    currency: str
    lines: tuple[InvoiceLine, ...]

    @property
    def total(self) -> float:
        return sum(line.cost for line in self.lines)

    def site_subtotal(self, site: str) -> float:
        return sum(line.cost for line in self.lines if line.site == site)

    def sites(self) -> list[str]:
        return sorted({line.site for line in self.lines})


class UsageLedger:
    """Append-only, priced usage metering for one federation."""

    def __init__(self, rates: RateBook | None = None) -> None:
        self.rates = rates or RateBook()
        self._events: list[UsageEvent] = []
        #: (site, job_id) pairs already pulled from a site AccountingDB,
        #: so repeated ingestion sweeps never double-bill
        self._ingested: set[tuple[str, int]] = set()
        # running aggregates so the hot callers (budget admission on
        # every submit, cost-aware scoring per candidate site, the
        # reconcile gauges) never re-scan the full event history
        self._spend: dict[str, float] = {}
        self._spend_site: dict[tuple[str, str], float] = {}
        self._quantity: dict[tuple[str, UsageKind], float] = {}
        #: terminal job records spilled from broker memory by
        #: evict_terminal — the durable archive behind the hot tables
        self._archived: list[dict] = []

    # -- metering -----------------------------------------------------------

    def meter(
        self,
        tenant: str,
        site: str,
        kind: UsageKind,
        quantity: float,
        time: float,
        job_id: str = "",
    ) -> UsageEvent:
        """Record (and price) one consumption event."""
        if not tenant:
            raise AccountingError("metered usage needs a tenant")
        if quantity < 0:
            raise AccountingError("metered quantity must be >= 0")
        card = self.rates.card_for(site)
        event = UsageEvent(
            tenant=tenant,
            site=site,
            kind=kind,
            quantity=float(quantity),
            unit_price=card.unit_price(kind),
            cost=card.price(kind, quantity),
            time=time,
            job_id=job_id,
        )
        self._events.append(event)
        self._spend[tenant] = self._spend.get(tenant, 0.0) + event.cost
        self._spend_site[(tenant, site)] = (
            self._spend_site.get((tenant, site), 0.0) + event.cost
        )
        self._quantity[(tenant, kind)] = (
            self._quantity.get((tenant, kind), 0.0) + event.quantity
        )
        return event

    def ingest_accounting_db(
        self,
        site: str,
        db,
        now: float = 0.0,
        tenant_of: Callable[[str], str] | None = None,
    ) -> int:
        """Pull a site-local :class:`~repro.cluster.accounting.AccountingDB`
        into the federation ledger as CPU-second events.

        ``tenant_of`` maps the site-local user name onto the federation
        principal; the default strips the ``fed:`` session prefix the
        broker's intake path stamps, so brokered and batch work by the
        same tenant land on one invoice.  Idempotent per (site, job_id):
        re-running the sweep never double-bills.  Returns the number of
        newly ingested records.
        """
        mapper = tenant_of or (lambda user: user.removeprefix("fed:"))
        ingested = 0
        for record in db.all():
            key = (site, record.job_id)
            if key in self._ingested:
                continue
            self._ingested.add(key)
            if record.cpu_seconds <= 0:
                continue  # never started (cancelled in queue): nothing consumed
            self.meter(
                mapper(record.user),
                site,
                UsageKind.CPU_SECONDS,
                record.cpu_seconds,
                now if record.end_time is None else record.end_time,
                job_id=f"{site}:{record.job_id}",
            )
            ingested += 1
        return ingested

    # -- terminal-job archive ------------------------------------------------

    def archive(self, record: dict) -> None:
        """Store one evicted terminal job record (broker spill path)."""
        self._archived.append(dict(record))

    def archived_jobs(self, tenant: str | None = None) -> list[dict]:
        if tenant is None:
            return [dict(r) for r in self._archived]
        return [dict(r) for r in self._archived if r.get("tenant") == tenant]

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self, tenant: str | None = None) -> list[UsageEvent]:
        if tenant is None:
            return list(self._events)
        return [e for e in self._events if e.tenant == tenant]

    def tenants(self) -> list[str]:
        return sorted(self._spend)

    def spend(self, tenant: str) -> float:
        """Cumulative metered cost of one tenant across every site (O(1))."""
        return self._spend.get(tenant, 0.0)

    def spend_by_site(self, tenant: str) -> dict[str, float]:
        return {
            site: cost
            for (t, site), cost in self._spend_site.items()
            if t == tenant
        }

    def quantity(self, tenant: str, kind: UsageKind) -> float:
        return self._quantity.get((tenant, kind), 0.0)

    # -- invoicing ----------------------------------------------------------

    def invoice(self, tenant: str, now: float = 0.0) -> Invoice:
        """The tenant's single cross-site invoice: one line per
        (site, kind), priced at that site's card.  The invoice total
        equals the sum of the tenant's metered event costs exactly —
        lines aggregate costs, they are never re-priced."""
        groups: dict[tuple[str, UsageKind], list[UsageEvent]] = {}
        for event in self._events:
            if event.tenant != tenant:
                continue
            groups.setdefault((event.site, event.kind), []).append(event)
        lines = tuple(
            InvoiceLine(
                site=site,
                kind=kind,
                quantity=sum(e.quantity for e in events),
                unit_price=events[-1].unit_price,  # current published price
                cost=sum(e.cost for e in events),
            )
            for (site, kind), events in sorted(
                groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
            )
        )
        return Invoice(
            tenant=tenant,
            issued_at=now,
            currency=self.rates.default.currency,
            lines=lines,
        )
