"""Shared resources for simulated processes.

Four primitives, modeled on the classic DES vocabulary:

* :class:`Resource` — ``capacity`` interchangeable slots, FIFO queue.
* :class:`PriorityResource` — slots granted in (priority, fifo) order,
  with optional preemption of lower-priority holders.  Used by the
  middleware daemon's QPU queue (production > test > development).
* :class:`Container` — continuous quantity (e.g. license units,
  GRES timeshare units).
* :class:`Store` — FIFO object store (e.g. result channels).

All requests integrate with the process loop via the
``__sim_request__`` protocol: yielding a request from a process suspends
it until the request is granted.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .process import Process, Simulator

__all__ = ["Container", "PriorityResource", "Resource", "Store"]


class _Request:
    """Base request; subclasses fill in ``_try_grant`` semantics."""

    def __init__(self) -> None:
        self.event = Event(name=type(self).__name__)
        self.process: "Process | None" = None
        self.sim: "Simulator | None" = None
        self.granted = False
        self.cancelled = False

    def __sim_request__(self, sim: "Simulator", process: "Process") -> Event:
        self.sim = sim
        self.process = process
        self._enqueue()
        return self.event

    def _enqueue(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def cancel(self) -> None:
        """Withdraw an ungranted request (e.g. the waiter was interrupted)."""
        self.cancelled = True


class Resource:
    """Counted resource with FIFO granting."""

    def __init__(self, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque["_ResourceRequest"] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> "_ResourceRequest":
        return _ResourceRequest(self)

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        self.in_use -= 1
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._waiters and self.in_use < self.capacity:
            req = self._waiters.popleft()
            if req.cancelled:
                continue
            self.in_use += 1
            req.granted = True
            req.event.trigger(self)
            assert req.sim is not None
            req.sim.schedule(req.event, delay=0.0)

    def queue_length(self) -> int:
        return sum(1 for r in self._waiters if not r.cancelled)


class _ResourceRequest(_Request):
    def __init__(self, resource: Resource) -> None:
        super().__init__()
        self.resource = resource

    def _enqueue(self) -> None:
        self.resource._waiters.append(self)
        self.resource._grant_waiters()


class PriorityResource:
    """Resource granted in (priority, arrival) order; lower value = higher priority.

    With ``preemptive=True``, a request that outranks a current holder
    interrupts that holder's process (the holder receives
    :class:`~repro.simkernel.process.Interrupt` with the request as cause)
    and takes its slot.  This is the mechanism behind the paper's
    "production jobs preempt lower-priority jobs" policy (section 3.3).
    """

    def __init__(self, capacity: int = 1, name: str = "priority-resource", preemptive: bool = False) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.preemptive = preemptive
        self._seq = 0
        self._waiters: list["_PriorityRequest"] = []
        self._holders: list["_PriorityRequest"] = []

    @property
    def in_use(self) -> int:
        return len(self._holders)

    @property
    def available(self) -> int:
        return self.capacity - len(self._holders)

    def request(self, priority: int = 0) -> "_PriorityRequest":
        self._seq += 1
        return _PriorityRequest(self, priority, self._seq)

    def release(self, request: "_PriorityRequest") -> None:
        if request not in self._holders:
            raise SimulationError(f"release of non-holding request on {self.name!r}")
        self._holders.remove(request)
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        self._waiters = [w for w in self._waiters if not w.cancelled]
        self._waiters.sort(key=lambda w: (w.priority, w.seq))
        while self._waiters and len(self._holders) < self.capacity:
            req = self._waiters.pop(0)
            self._grant(req)
        if self.preemptive and self._waiters:
            self._try_preempt()

    def _grant(self, req: "_PriorityRequest") -> None:
        self._holders.append(req)
        req.granted = True
        req.event.trigger(self)
        assert req.sim is not None
        req.sim.schedule(req.event, delay=0.0)

    def _try_preempt(self) -> None:
        # Highest-priority waiter vs lowest-priority holder.
        waiter = min(self._waiters, key=lambda w: (w.priority, w.seq))
        if not self._holders:
            return
        victim = max(self._holders, key=lambda h: (h.priority, h.seq))
        if waiter.priority < victim.priority:
            self._holders.remove(victim)
            self._waiters.remove(waiter)
            if victim.process is not None and victim.process.alive:
                victim.process.interrupt(cause=("preempted", self.name, waiter.priority))
            self._grant(waiter)

    def queue_length(self) -> int:
        return sum(1 for w in self._waiters if not w.cancelled)

    def holders(self) -> list["_PriorityRequest"]:
        return list(self._holders)


class _PriorityRequest(_Request):
    def __init__(self, resource: PriorityResource, priority: int, seq: int) -> None:
        super().__init__()
        self.resource = resource
        self.priority = priority
        self.seq = seq

    def _enqueue(self) -> None:
        self.resource._waiters.append(self)
        self.resource._grant_waiters()


class Container:
    """Continuous-quantity resource (get/put amounts), FIFO granting.

    Used for license pools and GRES timeshare units where jobs take
    fractional shares of the QPU rather than whole slots.
    """

    def __init__(self, capacity: float, initial: float | None = None, name: str = "container") -> None:
        if capacity <= 0:
            raise SimulationError(f"container capacity must be > 0, got {capacity}")
        self.capacity = float(capacity)
        self.level = float(capacity if initial is None else initial)
        if not (0 <= self.level <= self.capacity):
            raise SimulationError(f"initial level {self.level} outside [0, {capacity}]")
        self.name = name
        self._getters: deque["_ContainerGet"] = deque()

    def get(self, amount: float) -> "_ContainerGet":
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot get {amount} from container of capacity {self.capacity}"
            )
        return _ContainerGet(self, amount)

    def put(self, amount: float) -> None:
        if amount <= 0:
            raise SimulationError(f"cannot put non-positive amount {amount}")
        if self.level + amount > self.capacity + 1e-9:
            raise SimulationError(
                f"container {self.name!r} overflow: {self.level} + {amount} > {self.capacity}"
            )
        self.level = min(self.capacity, self.level + amount)
        self._grant_getters()

    def _grant_getters(self) -> None:
        # Strict FIFO: a large blocked request blocks smaller later ones
        # (prevents starvation of large consumers).
        while self._getters:
            req = self._getters[0]
            if req.cancelled:
                self._getters.popleft()
                continue
            if req.amount > self.level + 1e-9:
                break
            self._getters.popleft()
            self.level -= req.amount
            req.granted = True
            req.event.trigger(req.amount)
            assert req.sim is not None
            req.sim.schedule(req.event, delay=0.0)


class _ContainerGet(_Request):
    def __init__(self, container: Container, amount: float) -> None:
        super().__init__()
        self.container = container
        self.amount = float(amount)

    def _enqueue(self) -> None:
        self.container._getters.append(self)
        self.container._grant_getters()


class Store:
    """Unbounded FIFO store of Python objects with blocking get."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self.items: deque[Any] = deque()
        self._getters: deque["_StoreGet"] = deque()

    def put(self, item: Any) -> None:
        self.items.append(item)
        self._grant_getters()

    def get(self) -> "_StoreGet":
        return _StoreGet(self)

    def _grant_getters(self) -> None:
        while self._getters and self.items:
            req = self._getters.popleft()
            if req.cancelled:
                continue
            item = self.items.popleft()
            req.granted = True
            req.event.trigger(item)
            assert req.sim is not None
            req.sim.schedule(req.event, delay=0.0)

    def __len__(self) -> int:
        return len(self.items)


class _StoreGet(_Request):
    def __init__(self, store: Store) -> None:
        super().__init__()
        self.store = store

    def _enqueue(self) -> None:
        self.store._getters.append(self)
        self.store._grant_getters()
