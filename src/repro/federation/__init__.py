"""Multi-site federation: broker hybrid jobs across HPC-QC sites.

The paper's stack serves one site; its §3.3 points outward ("the
system could be extended to also accept jobs via a cloud interface,
similar to ... the JHPC-Quantum project").  This subsystem is that
extension taken to its multi-site conclusion: several independent
sites — each a full cluster + daemon + QRMI resource pool — register
into a federation that routes incoming hybrid jobs by live resource
profiles instead of static assignment.

* :mod:`site`     — :class:`FederatedSite`, the per-site adapter
  (intake via daemon sessions, load/health/calibration introspection),
* :mod:`registry` — :class:`SiteRegistry` membership + heartbeats with
  expiry; produces the :class:`SiteSnapshot` views routing runs on,
* :mod:`policies` — pluggable routing: round-robin, least-queue,
  calibration-aware (drift-weighted by program geometry), sticky
  affinity for iterative workloads,
* :mod:`broker`   — :class:`FederationBroker` and the one job model,
  :class:`FederatedJob` (a fixed-size job is a one-unit job):
  placement, spillover when sites saturate, failover with bounded
  retries and stable job ids when sites die, and every unit advanced
  at its site's pushed transition,
* :mod:`malleable` — cross-site malleable placements: an iterative
  job's burst units spread over a :class:`~repro.scheduling.ShareLedger`
  (its :class:`ResizeState`) and a broker-driven resize loop
  shrinks/grows each site's share as queue depth, latency, or
  heartbeat health moves,
* :mod:`events`   — :class:`LifecycleBus`: push-based lifecycle —
  sites, the middleware queue, and the broker publish state
  transitions the moment they happen, replacing status polling,
* :mod:`client`   — :class:`FederatedClient`, the DaemonClient-shaped
  broker client behind :class:`~repro.session.Session`'s federation
  backend, returning uniform :class:`~repro.runtime.results.RunResult`,
* :mod:`metrics`  — per-site + aggregate federation metrics through
  the existing observability registry/TSDB path.

The accounting plane (per-tenant metering, budgets, fair-share
arbitration) lives in :mod:`repro.accounting`; wire a
:class:`~repro.accounting.FederationAccounting` into the broker to
activate it, and use :class:`CostAwarePolicy` to couple routing to the
remaining budgets.
"""

from .broker import FederatedJob, FederationBroker, JobState, Placement
from .client import FederatedClient
from .events import JobEvent, LifecycleBus
from .malleable import MalleableManager, ResizeConfig, ResizeState, ShareEvent
from .metrics import FederationMetrics
from .policies import (
    CalibrationAwarePolicy,
    CostAwarePolicy,
    LeastQueuePolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    StickyPolicy,
)
from .registry import SiteHealth, SiteRegistry, SiteSnapshot
from .site import FederatedSite

__all__ = [
    "CalibrationAwarePolicy",
    "CostAwarePolicy",
    "FederatedClient",
    "FederatedJob",
    "FederatedSite",
    "FederationBroker",
    "FederationMetrics",
    "JobEvent",
    "JobState",
    "LeastQueuePolicy",
    "LifecycleBus",
    "MalleableManager",
    "Placement",
    "ResizeConfig",
    "ResizeState",
    "RoundRobinPolicy",
    "ShareEvent",
    "RoutingPolicy",
    "SiteHealth",
    "SiteRegistry",
    "SiteSnapshot",
    "StickyPolicy",
]
