"""Site registry: the federation's membership and health table.

Each registered site carries a descriptor snapshot the broker routes
on: the exported resource catalog, current queue depth vs. capacity, a
calibration/drift summary from the site's observability stack, and a
health state maintained by heartbeats with expiry — a site that stops
heartbeating (crash, network partition) is treated as unhealthy after
``heartbeat_expiry`` seconds, triggering failover in the broker.

A snapshot has two parts that change at very different rates.  The
*static* part — catalog, ``max_qubits``, fidelity proxy and calibration
dict — moves only with the site's resource set or a calibration change,
which :meth:`~repro.federation.site.FederatedSite.snapshot_signature`
signals.  The *overlay* — queue depth and health — moves on every
submit and every completion.  The registry keeps the static part per
site and rebuilds it only on a signature change; a depth or health
change just lays a new overlay on the cached static fields.  The static
mappings are shared by every snapshot built on them, so they are handed
out read-only.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from ..errors import FederationError
from ..simkernel import Simulator, Timeout
from .site import FederatedSite

__all__ = ["SiteHealth", "SiteRegistry", "SiteSnapshot"]


class SiteHealth(enum.Enum):
    ONLINE = "online"
    SATURATED = "saturated"    # healthy but at queue capacity
    UNHEALTHY = "unhealthy"    # heartbeat expired or marked down


@dataclass(frozen=True)
class SiteSnapshot:
    """Immutable routing view of one site at decision time."""

    name: str
    health: SiteHealth
    queue_depth: int
    max_queue_depth: int
    fidelity_proxy: float
    max_qubits: int
    catalog: Mapping[str, str] = field(default_factory=dict)
    calibration: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    @property
    def is_healthy(self) -> bool:
        return self.health is not SiteHealth.UNHEALTHY

    @property
    def is_saturated(self) -> bool:
        return self.health is SiteHealth.SATURATED

    @property
    def headroom(self) -> int:
        return max(0, self.max_queue_depth - self.queue_depth)


@dataclass(frozen=True)
class _StaticView:
    """The slow-moving part of a site's snapshot, valid while the site's
    ``snapshot_signature()`` equals ``signature``."""

    signature: tuple
    fidelity_proxy: float
    max_qubits: int
    catalog: Mapping[str, str]
    calibration: Mapping[str, Mapping[str, float]]

    @classmethod
    def of(cls, site: FederatedSite, signature: tuple) -> _StaticView:
        return cls(
            signature=signature,
            fidelity_proxy=site.fidelity_proxy(),
            max_qubits=site.max_qubits(),
            catalog=MappingProxyType(site.catalog()),
            calibration=MappingProxyType(
                {
                    name: MappingProxyType(values)
                    for name, values in site.calibration_snapshot().items()
                }
            ),
        )


@dataclass
class _SiteRecord:
    site: FederatedSite
    registered_at: float
    last_heartbeat: float
    beat_seq: int = 0  # bumps per heartbeat (liveness introspection)
    #: (cache key, snapshot) of the last snapshot built for this site
    snapshot: tuple[tuple, SiteSnapshot] | None = None
    #: the static part that snapshot was built on
    static: _StaticView | None = None


class SiteRegistry:
    """Membership, heartbeats, and snapshot production.

    Snapshot production is the federation's hottest read path — the
    broker rebuilds the candidate view for every placement and every
    reconcile sweep.  It is cached in two layers per site:

    * the *static view* (catalog, ``max_qubits``, fidelity proxy,
      calibration dict) is keyed on the site's
      :meth:`~repro.federation.site.FederatedSite.snapshot_signature`
      (resource set + calibration objects and versions) and rebuilt only
      when that changes — drift, recalibration, a new resource;
    * the *snapshot* itself is keyed on liveness, queue depth, the
      classified health (which folds in heartbeat expiry, so a snapshot
      can never outlive a health transition) and the signature.  A miss
      with an unchanged signature — the common case, since the depth
      moves on every submit and completion — only builds a new
      :class:`SiteSnapshot` around the cached static fields.

    Neither key holds ``now`` or the heartbeat, so quiet housekeeping
    ticks and beats keep hitting; ``snapshot_cache_hits`` /
    ``snapshot_cache_misses`` count the snapshot layer.  The sorted name
    list is likewise cached and invalidated on membership change.
    """

    def __init__(self, heartbeat_expiry: float = 60.0) -> None:
        if heartbeat_expiry <= 0:
            raise FederationError("heartbeat_expiry must be positive")
        self.heartbeat_expiry = heartbeat_expiry
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0
        self._records: dict[str, _SiteRecord] = {}
        self._beat_sim: Simulator | None = None
        self._beat_interval: float = 0.0
        self._names_cache: tuple[str, ...] | None = None
        self._ordered_records: list[_SiteRecord] | None = None
        #: callbacks fired with each newly registered site — the broker
        #: uses this to wire late joiners onto the lifecycle bus
        self._register_hooks: list = []

    # -- membership ---------------------------------------------------------

    def on_register(self, callback) -> None:
        """Run ``callback(site)`` for every future :meth:`register`."""
        self._register_hooks.append(callback)

    def register(self, site: FederatedSite, now: float = 0.0) -> None:
        if site.name in self._records:
            raise FederationError(f"site {site.name!r} already registered")
        self._records[site.name] = _SiteRecord(
            site=site, registered_at=now, last_heartbeat=now
        )
        self._names_cache = None
        self._ordered_records = None
        if self._beat_sim is not None:
            # heartbeats already running: late joiners beat too
            self._spawn_beat(site)
        for callback in self._register_hooks:
            callback(site)

    def deregister(self, name: str) -> None:
        if name not in self._records:
            raise FederationError(f"unknown site {name!r}")
        del self._records[name]
        self._names_cache = None
        self._ordered_records = None

    def site(self, name: str) -> FederatedSite:
        if name not in self._records:
            raise FederationError(f"unknown site {name!r}")
        return self._records[name].site

    def names(self) -> list[str]:
        if self._names_cache is None:
            self._names_cache = tuple(sorted(self._records))
        return list(self._names_cache)

    def __len__(self) -> int:
        return len(self._records)

    # -- health -------------------------------------------------------------

    def heartbeat(self, name: str, now: float) -> None:
        record = self._records.get(name)
        if record is None:
            raise FederationError(f"heartbeat from unknown site {name!r}")
        record.last_heartbeat = now
        record.beat_seq += 1

    def _classify(
        self, record: _SiteRecord, now: float, depth: int
    ) -> SiteHealth:
        """The one site-health rule, shared by :meth:`health_of` and
        the snapshot builder (which already holds the queue depth)."""
        site = record.site
        if not site.alive or now - record.last_heartbeat > self.heartbeat_expiry:
            return SiteHealth.UNHEALTHY
        if depth >= site.max_queue_depth:
            return SiteHealth.SATURATED
        return SiteHealth.ONLINE

    def health_of(self, name: str, now: float) -> SiteHealth:
        record = self._records.get(name)
        if record is None:
            raise FederationError(f"unknown site {name!r}")
        return self._classify(record, now, record.site.queue_depth())

    # -- snapshots -----------------------------------------------------------

    def _build_snapshot(
        self, record: _SiteRecord, now: float
    ) -> SiteSnapshot:
        site = record.site
        depth = site.queue_depth()
        health = self._classify(record, now, depth)
        signature = site.snapshot_signature()
        # the heartbeat itself is NOT in the key: a beat changes no
        # snapshot content, and expiry transitions surface through
        # ``health`` — so quiet ticks keep hitting the cache
        key = (site.alive, depth, health, signature)
        cached = record.snapshot
        if cached is not None and cached[0] == key:
            self.snapshot_cache_hits += 1
            return cached[1]
        self.snapshot_cache_misses += 1
        static = record.static
        if static is None or static.signature != signature:
            static = record.static = _StaticView.of(site, signature)
        snap = SiteSnapshot(
            name=site.name,
            health=health,
            queue_depth=depth,
            max_queue_depth=site.max_queue_depth,
            fidelity_proxy=static.fidelity_proxy,
            max_qubits=static.max_qubits,
            catalog=static.catalog,
            calibration=static.calibration,
        )
        record.snapshot = (key, snap)
        return snap

    def snapshot(self, name: str, now: float) -> SiteSnapshot:
        record = self._records.get(name)
        if record is None:
            raise FederationError(f"unknown site {name!r}")
        return self._build_snapshot(record, now)

    def snapshots(self, now: float) -> list[SiteSnapshot]:
        # the record list in sorted-name order is cached with the name
        # list: no per-name dict lookup on the sweep path
        if self._ordered_records is None:
            self._ordered_records = [
                self._records[name] for name in self.names()
            ]
        return [
            self._build_snapshot(record, now)
            for record in self._ordered_records
        ]

    def healthy_snapshots(
        self, now: float, exclude: tuple[str, ...] = ()
    ) -> list[SiteSnapshot]:
        return [
            snap
            for snap in self.snapshots(now)
            if snap.is_healthy and snap.name not in exclude
        ]

    # -- heartbeat automation -------------------------------------------------

    def start_heartbeats(self, sim: Simulator, interval: float = 15.0) -> None:
        """Spawn one background heartbeat process per registered site.

        A site stops heartbeating the moment it dies (``site.alive`` is
        False), so expiry detection behaves exactly like a lost remote
        peer rather than a graceful deregistration.
        """
        if interval <= 0:
            raise FederationError("heartbeat interval must be positive")
        self._beat_sim = sim
        self._beat_interval = interval
        for record in self._records.values():
            self._spawn_beat(record.site)

    def _spawn_beat(self, site: FederatedSite) -> None:
        sim, interval = self._beat_sim, self._beat_interval
        assert sim is not None

        def beat():
            while site.alive and site.name in self._records:
                self.heartbeat(site.name, sim.now)
                yield Timeout(interval)

        sim.spawn(beat(), name=f"heartbeat:{site.name}", background=True)
