"""One member site of a federation.

A *site* is a complete instance of the paper's single-site stack — a
middleware daemon in front of a QRMI resource pool, usually with a
cluster feeding it locally — that additionally accepts brokered jobs
from the federation.  :class:`FederatedSite` is the thin adapter the
broker talks to: intake (reusing the daemon session machinery the cloud
gateway uses), load/health introspection, and a calibration snapshot
pulled from the site's own observability surface.

All sites of one federation share a single simulated clock (their
daemons are built on the same :class:`~repro.simkernel.Simulator`), so
cross-site brokering decisions and executions interleave causally.
"""

from __future__ import annotations

from typing import Any

from ..daemon.cloud import ensure_session
from ..daemon.queue import PriorityClass
from ..daemon.service import MiddlewareDaemon
from ..errors import SiteUnavailable
from ..qpu.device import QPUDevice
from ..qrmi.resources import ResourceType

__all__ = ["FederatedSite"]


class _Exports:
    """What one resource set exports to the federation, derived once.

    Exported types, max-qubit capacities and the hardware devices are
    static per resource object, but placement asks for them on every
    candidate scan; a site rebuilds this view only when its daemon's
    (name, resource) pairs change — adding, removing or replacing a
    resource, even under the same name.
    """

    __slots__ = ("items", "catalog", "capacity", "max_qubits", "devices")

    def __init__(self, items: tuple) -> None:
        #: the daemon's (name, resource) pairs this view was built from;
        #: holding the resources keeps identity comparison sound
        self.items = items
        self.catalog: dict[str, str] = {
            name: res.resource_type
            for name, res in items
            if ResourceType.parse(res.resource_type).is_federable
        }
        resources = dict(items)
        self.capacity: dict[str, int] = {
            name: resources[name].specs().max_qubits for name in self.catalog
        }
        self.max_qubits = max(self.capacity.values(), default=0)
        self.devices: dict[str, QPUDevice] = {}
        for name, res in items:
            device = getattr(res, "device", None)
            if isinstance(device, QPUDevice):
                self.devices[name] = device


class FederatedSite:
    """Adapter between the federation broker and one site's daemon."""

    def __init__(
        self,
        name: str,
        daemon: MiddlewareDaemon,
        max_queue_depth: int = 8,
        priority_class: PriorityClass = PriorityClass.PRODUCTION,
    ) -> None:
        if max_queue_depth < 1:
            raise SiteUnavailable(f"site {name!r}: max_queue_depth must be >= 1")
        self.name = name
        self.daemon = daemon
        self.max_queue_depth = max_queue_depth
        self.priority_class = priority_class
        self.alive = True
        self._sessions: dict[str, str] = {}  # session owner -> token
        self._exports_cache: _Exports | None = None

    def _exports(self) -> _Exports:
        items = tuple(self.daemon.resources.items())
        exports = self._exports_cache
        if exports is None or exports.items != items:
            exports = self._exports_cache = _Exports(items)
        return exports

    def snapshot_signature(self) -> tuple:
        """Cheap change signal for registry snapshot caching: the
        exported resource set plus every hardware device's calibration
        object and version — identical signatures guarantee identical
        catalog, capacity, fidelity, and calibration snapshots.  The
        object is in the signature because a replacement
        :class:`~repro.qpu.calibration.CalibrationState` starts again at
        version 0."""
        exports = self._exports()
        return (
            exports,
            *[
                (device.calibration, device.calibration.version)
                for device in exports.devices.values()
            ],
        )

    # -- introspection (feeds SiteRegistry snapshots) -----------------------

    def catalog(self) -> dict[str, str]:
        """name -> type for the resources this site exports to the
        federation (local emulators stay site-private)."""
        return dict(self._exports().catalog)

    def queue_depth(self) -> int:
        """Brokered-load signal: queued tasks plus the running one."""
        # queued_count() reads the maintained counters directly — this
        # runs per site per snapshot refresh, so no dict building here
        depth = self.daemon.queue.queued_count()
        if self.daemon.scheduler.current is not None:
            depth += 1
        return depth

    def hardware_devices(self) -> dict[str, QPUDevice]:
        return dict(self._exports().devices)

    def calibration_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-hardware-resource calibration state (drift visibility)."""
        return {
            name: device.calibration.snapshot()
            for name, device in self._exports().devices.items()
        }

    def fidelity_proxy(self) -> float:
        """Worst-case hardware health in [0, 1]; 1.0 for emulator-only sites."""
        devices = self._exports().devices
        if not devices:
            return 1.0
        return min(d.calibration.fidelity_proxy() for d in devices.values())

    def capable_catalog(self, n_qubits: int = 0) -> dict[str, str]:
        """The exported catalog restricted to resources that can hold an
        ``n_qubits`` register — what placement must select from."""
        exports = self._exports()
        return {
            name: rtype
            for name, rtype in exports.catalog.items()
            if exports.capacity[name] >= n_qubits
        }

    def max_qubits(self) -> int:
        """Largest register any federable resource here accepts."""
        return self._exports().max_qubits

    # -- lifecycle events -----------------------------------------------------

    def attach_bus(self, bus) -> None:
        """Move this site's daemon's publisher onto ``bus`` under the
        site name — the only way the broker and the resize loop learn
        task state.  Idempotent; a second bus replaces the first."""
        self.daemon.attach_bus(bus, self.name)

    # -- intake (brokered jobs) ---------------------------------------------

    def submit(
        self, program: Any, resource: str, shots: int | None = None,
        owner: str = "federation",
    ) -> str:
        if not self.alive:
            raise SiteUnavailable(f"site {self.name!r} is down", site=self.name)
        token = ensure_session(
            self.daemon, self._sessions, f"fed:{owner}", self.priority_class
        )
        task = self.daemon.submit_task(token, program, resource, shots=shots)
        return task.task_id

    def task_result(self, owner: str, task_id: str) -> Any:
        token = ensure_session(
            self.daemon, self._sessions, f"fed:{owner}", self.priority_class
        )
        return self.daemon.task_result(token, task_id)

    def cancel(self, task_id: str) -> None:
        self.daemon.queue.cancel(task_id)

    # -- failure injection ----------------------------------------------------

    def kill(self) -> None:
        """Simulate a site outage: refuse intake, drop queued work, and
        abort the running task.  Queued/running jobs become the broker's
        problem — exactly the failover scenario the federation must absorb.
        """
        if not self.alive:
            return
        self.alive = False
        for task in self.daemon.queue.all_tasks():
            self.daemon.queue.cancel(task.task_id)
        worker = self.daemon.scheduler._worker
        if self.daemon.scheduler.current is not None and worker.alive:
            worker.interrupt(cause=("site-down", self.name))
