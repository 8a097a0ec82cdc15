"""The common scheduling-algorithm vocabulary, protocol, and registry.

Every scheduling loop in the stack — the daemon's second-level worker,
the federation broker's placement step, and the malleable manager's
slot arbitration — speaks the same narrow language defined here:

* :class:`PendingJob` / :class:`RunningUnit` / :class:`ResourceView` /
  :class:`SystemView` — the state an algorithm may read,
* :class:`Decision` — the only thing an algorithm may emit,
* :class:`SchedulingAlgorithm` — the protocol (``schedule(pending,
  resources, system) -> list[Decision]``), the slot division
  ``divide``, plus capability flags,
* :func:`register` / :func:`get_algorithm` / :func:`available` /
  :func:`resolve` — the name-keyed registry that makes algorithms
  selectable through ``JobSpec.algorithm`` and sweepable by the bench
  harness.

Algorithm modules must stay import-light: they may import this module
and the standard library only.  Anything caller-specific (a federation
``SiteSnapshot``, a daemon ``QueuedTask``) rides in the job and
resource views' ``native`` slots and in ``Decision.payload``, so an
algorithm file never needs to know which loop is driving it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, ClassVar

from ...errors import AlgorithmError

__all__ = [
    "Decision",
    "PendingJob",
    "ResourceView",
    "RunningUnit",
    "SchedulingAlgorithm",
    "SystemView",
    "available",
    "get_algorithm",
    "register",
    "resolve",
]


# -- the vocabulary ----------------------------------------------------------


@dataclass(frozen=True)
class PendingJob:
    """One schedulable unit of work, whatever layer it came from.

    ``units`` is the layer's natural integer grain: queue slots for
    federation placements, pool units in the sweep, always 1 for daemon
    tasks.  ``estimated_runtime <= 0`` means "unknown" — backfillers
    must treat such jobs as potentially infinite.
    """

    job_id: str
    priority: int = 0           # lower = more urgent (daemon convention)
    submit_seq: int = 0         # FIFO tiebreak within a priority level
    units: int = 1
    estimated_runtime: float = 0.0
    malleable: bool = False
    min_units: int | None = None
    max_units: int | None = None
    tenant: str = ""
    native: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class RunningUnit:
    """Occupancy on one resource: ``units`` busy until ``expected_end``."""

    job_id: str
    units: int
    expected_end: float


@dataclass(frozen=True)
class ResourceView:
    """One place work can run: a worker slot, a partition, a site."""

    name: str
    total_units: int
    free_units: int
    running: tuple[RunningUnit, ...] = ()
    native: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class SystemView:
    """Cross-resource context for one scheduling pass."""

    now: float
    fair_weight: Any = None     # callable tenant -> effective share weight
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Decision:
    """One algorithm verdict.  Kinds in use across the three loops:

    * ``"start"``     — run ``job_id`` on ``resource`` now,
    * ``"backfill"``  — a start that jumped the blocked queue head,
    * ``"reserve"``   — shadow reservation for a blocked head
      (``payload["shadow_time"]``; brokers treat it as a spillover
      placement hint),
    * ``"place"``     — route a federated job to ``resource``,
    * ``"resize"``    — set a malleable job's width to ``units``,
    * ``"convert"``   — turn a fixed job into ``units`` malleable units.
    """

    kind: str
    job_id: str
    resource: str | None = None
    units: int = 1
    reason: str = ""
    payload: dict[str, Any] = field(default_factory=dict)


# -- the protocol ------------------------------------------------------------


class SchedulingAlgorithm:
    """Base class every registered algorithm extends.

    Subclasses set ``name`` and implement :meth:`schedule`.  The two
    capability flags let callers route around algorithms that only
    cover part of the vocabulary:

    * ``handles_placement`` — usable for single-job routing decisions
      (the broker's per-job placement step),
    * ``convert_when_saturated`` — the fixed→malleable knob: when the
      algorithm owns a placement and every candidate is saturated, the
      broker may convert a convertible fixed spec into malleable units.
    """

    name: ClassVar[str] = ""
    handles_placement: ClassVar[bool] = True
    convert_when_saturated: bool = False

    def schedule(
        self,
        pending: tuple[PendingJob, ...],
        resources: tuple[ResourceView, ...],
        system: SystemView,
    ) -> list[Decision]:
        raise NotImplementedError

    def divide(
        self,
        capacity: int,
        demands: Mapping[str, int],
        weights: Mapping[str, float] | None = None,
        holdings: Mapping[str, int] | None = None,
    ) -> tuple[dict[str, int], list[dict]]:
        """Divide ``capacity`` integer slots over ``demands``; returns
        ``(allocation, transfers)``.  The default is the weighted
        max-min :func:`fill` from zero (``holdings`` ignored, no
        transfers); a missing weight counts as 1."""
        alloc = dict.fromkeys(demands, 0)
        fill(alloc, capacity, demands, share_weights(capacity, demands, weights))
        return alloc, []

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


def share_weights(capacity: int, demands: Mapping[str, int], weights: Mapping[str, float] | None) -> dict[str, float]:
    """Check one slot division's inputs; every claimant's weight."""
    if capacity < 0:
        raise AlgorithmError("capacity must be >= 0")
    for k, demand in demands.items():
        if demand < 0:
            raise AlgorithmError(f"demand for {k!r} must be >= 0")
    w = {k: (weights.get(k, 1.0) if weights is not None else 1.0) for k in demands}
    for k, weight in w.items():
        if weight <= 0:
            raise AlgorithmError(f"weight for {k!r} must be > 0")
    return w


def fill(alloc: dict[str, int], capacity: int, demands: Mapping[str, int], weights: Mapping[str, float]) -> list[str]:
    """Weighted max-min progressive filling: grant the slots of
    ``capacity`` that ``alloc`` leaves free one at a time, each to the
    claimant below its demand with the lowest ``alloc / weight`` (ties:
    heavier weight, then name).  The result is demand-capped and sums to
    ``min(capacity, sum(demands))``.  Updates ``alloc`` in place;
    returns the takers in grant order."""
    takers: list[str] = []
    for _ in range(capacity - sum(alloc.values())):
        hungry = [k for k in alloc if alloc[k] < demands[k]]
        if not hungry:
            break
        taker = min(hungry, key=lambda k: (alloc[k] / weights[k], -weights[k], k))
        alloc[taker] += 1
        takers.append(taker)
    return takers


# -- the registry ------------------------------------------------------------

_REGISTRY: dict[str, type[SchedulingAlgorithm]] = {}


def register(cls: type[SchedulingAlgorithm]) -> type[SchedulingAlgorithm]:
    """Class decorator: make ``cls`` constructible by name."""
    if not cls.name:
        raise AlgorithmError(f"{cls.__name__} must set a non-empty name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise AlgorithmError(f"algorithm name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str, **kwargs: Any) -> SchedulingAlgorithm:
    """Instantiate a registered algorithm by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown scheduling algorithm {name!r}; available: {available()}"
        ) from None
    return cls(**kwargs)


def available() -> list[str]:
    """Sorted names of every registered algorithm."""
    return sorted(_REGISTRY)


def resolve(algorithm: SchedulingAlgorithm | str | None, default: SchedulingAlgorithm | str) -> SchedulingAlgorithm:
    """A loop's algorithm argument as an instance: ``None`` is the
    loop's ``default``, a name is built from the registry."""
    chosen = default if algorithm is None else algorithm
    return get_algorithm(chosen) if isinstance(chosen, str) else chosen
