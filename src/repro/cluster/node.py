"""Compute nodes.

A node owns CPUs, memory and GRES pools.  Allocation is tracked per job
id with strict conservation: the scheduler can never oversubscribe a
node without raising, which is one of the property-tested invariants
(see ``tests/cluster/test_properties.py``).

Special node kinds used by the paper's architecture (Figure 2):

* classical compute nodes (the default),
* the **quantum access node** — hosts the QPU connection and the
  middleware daemon on *reserved resources* (§3.4); modeled as a node
  with ``reserved_cpus`` carved out from schedulable capacity.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from ..errors import GresError, ResourceUnavailable, SchedulerError
from .gres import GresPool, GresRequest

__all__ = ["Node", "NodeState"]


class NodeState(enum.Enum):
    """Slurm-like node states."""

    IDLE = "idle"
    ALLOCATED = "allocated"  # fully busy
    MIXED = "mixed"          # partially busy
    DOWN = "down"
    DRAIN = "drain"          # finishes current work, accepts nothing new


class Node:
    """One compute node with CPUs, memory (MB) and GRES pools."""

    def __init__(
        self,
        name: str,
        cpus: int = 32,
        memory_mb: int = 128_000,
        gres: dict[str, int] | None = None,
        reserved_cpus: int = 0,
        features: Iterable[str] = (),
    ) -> None:
        if cpus < 1:
            raise SchedulerError(f"node {name!r} must have >= 1 CPU")
        if not (0 <= reserved_cpus < cpus):
            raise SchedulerError(
                f"node {name!r}: reserved_cpus={reserved_cpus} must be in [0, cpus)"
            )
        self.name = name
        self.cpus = cpus
        self.memory_mb = memory_mb
        self.reserved_cpus = reserved_cpus
        self.features = frozenset(features)
        self.state = NodeState.IDLE
        self.gres: dict[str, GresPool] = {
            gname: GresPool(gname, total) for gname, total in (gres or {}).items()
        }
        self._cpu_alloc: dict[int, int] = {}
        self._mem_alloc: dict[int, int] = {}

    # -- capacity queries --------------------------------------------------

    @property
    def schedulable_cpus(self) -> int:
        """CPUs usable by the batch scheduler (total minus daemon reservation)."""
        return self.cpus - self.reserved_cpus

    @property
    def cpus_allocated(self) -> int:
        return sum(self._cpu_alloc.values())

    @property
    def cpus_available(self) -> int:
        return self.schedulable_cpus - self.cpus_allocated

    @property
    def memory_available(self) -> int:
        return self.memory_mb - sum(self._mem_alloc.values())

    def is_schedulable(self) -> bool:
        return self.state not in (NodeState.DOWN, NodeState.DRAIN)

    def can_fit(self, cpus: int, memory_mb: int, gres: Iterable[GresRequest] = ()) -> bool:
        """Could this node host an allocation of the given size right now?"""
        if not self.is_schedulable():
            return False
        if cpus > self.cpus_available or memory_mb > self.memory_available:
            return False
        for request in gres:
            pool = self.gres.get(request.name)
            if pool is None or not pool.can_allocate(request.count):
                return False
        return True

    def could_ever_fit(self, cpus: int, memory_mb: int, gres: Iterable[GresRequest] = ()) -> bool:
        """Could this node host the allocation if it were empty? (feasibility)"""
        if cpus > self.schedulable_cpus or memory_mb > self.memory_mb:
            return False
        for request in gres:
            pool = self.gres.get(request.name)
            if pool is None or request.count > pool.total:
                return False
        return True

    # -- allocation ----------------------------------------------------------

    def allocate(self, job_id: int, cpus: int, memory_mb: int, gres: Iterable[GresRequest] = ()) -> None:
        gres = list(gres)
        if not self.can_fit(cpus, memory_mb, gres):
            raise ResourceUnavailable(
                f"node {self.name!r} cannot fit job {job_id}: "
                f"cpus {cpus}/{self.cpus_available}, mem {memory_mb}/{self.memory_available}"
            )
        if job_id in self._cpu_alloc:
            raise SchedulerError(f"job {job_id} already allocated on node {self.name!r}")
        self._cpu_alloc[job_id] = cpus
        self._mem_alloc[job_id] = memory_mb
        granted: list[str] = []
        try:
            for request in gres:
                self.gres[request.name].allocate(job_id, request.count)
                granted.append(request.name)
        except GresError:
            # roll back partial grants to keep conservation
            for gname in granted:
                self.gres[gname].release(job_id)
            del self._cpu_alloc[job_id]
            del self._mem_alloc[job_id]
            raise
        self._update_state()

    def release(self, job_id: int) -> None:
        if job_id not in self._cpu_alloc:
            raise SchedulerError(f"job {job_id} not allocated on node {self.name!r}")
        del self._cpu_alloc[job_id]
        del self._mem_alloc[job_id]
        for pool in self.gres.values():
            if pool.holder_count(job_id):
                pool.release(job_id)
        self._update_state()

    def jobs(self) -> list[int]:
        return list(self._cpu_alloc)

    def _update_state(self) -> None:
        if self.state in (NodeState.DOWN, NodeState.DRAIN):
            return
        if not self._cpu_alloc:
            self.state = NodeState.IDLE
        elif self.cpus_available == 0:
            self.state = NodeState.ALLOCATED
        else:
            self.state = NodeState.MIXED

    # -- admin -----------------------------------------------------------

    def set_drain(self) -> None:
        self.state = NodeState.DRAIN

    def resume(self) -> None:
        if self.state in (NodeState.DOWN, NodeState.DRAIN):
            self.state = NodeState.IDLE
            self._update_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.name!r}, {self.cpus_allocated}/{self.schedulable_cpus} cpus, "
            f"state={self.state.value})"
        )
