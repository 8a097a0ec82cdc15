"""Federated accounting: per-tenant metering, budgets, and fair share.

The single-site stack already accounts for itself —
:class:`~repro.cluster.accounting.AccountingDB` records cluster jobs,
:class:`~repro.daemon.cloud.CloudTenant` caps one gateway's shots.  The
federation layer (``repro.federation``) routes and resizes jobs
*across* sites, so a tenant spilling over three sites used to get three
disconnected ledgers and unlimited effective quota.  This package is
the cross-site accounting plane that closes that hole:

* :mod:`rates`   — :class:`SiteRateCard` / :class:`RateBook`: each site
  prices CPU-seconds, QPU shots, and retries independently,
* :mod:`ledger`  — :class:`UsageLedger`: one append-only, priced event
  stream for the whole federation; one :class:`Invoice` per tenant,
* :mod:`budget`  — :class:`TenantBudget` / :class:`BudgetBook`:
  federation-wide spending caps with reject-or-hold admission,
* :mod:`arbiter` — :class:`FairShareArbiter`: the (usage-decayed)
  tenant weights the resize loop divides scarce slots by,
* :mod:`service` — :class:`FederationAccounting`: the facade the
  broker wires in.
"""

from .arbiter import FairShareArbiter
from .budget import AdmissionDecision, BudgetAction, BudgetBook, TenantBudget
from .ledger import Invoice, InvoiceLine, UsageEvent, UsageLedger
from .rates import RateBook, SiteRateCard, UsageKind
from .service import FederationAccounting

__all__ = [
    "AdmissionDecision",
    "BudgetAction",
    "BudgetBook",
    "FairShareArbiter",
    "FederationAccounting",
    "Invoice",
    "InvoiceLine",
    "RateBook",
    "SiteRateCard",
    "TenantBudget",
    "UsageEvent",
    "UsageKind",
    "UsageLedger",
]
