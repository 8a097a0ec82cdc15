"""The layer ledger: spans around each layer's public entry points.

A traced run patches the entry points listed in :data:`SPANS` from
this file (class attributes and module globals), records one span per
call -- name, start, end, parent -- in memory, and restores every
original when the run ends.  Nothing under ``src/`` knows it is being
measured.

Span names are ``<layer>.<what>``; the layer is a ``src/repro/``
package name.  A span's *self* time is its duration minus the
durations of the spans it directly encloses, so the self times of all
spans partition the wall time covered by the outermost spans.
Generator entry points (``execute_in_sim``, ``JobHandle.wait``) get
one span per resume: a suspended generator costs no wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

__all__ = ["SPANS", "Ledger", "SpanStats"]

#: (span name, module, attribute path, kind, hook) for every patched
#: entry point.  ``kind`` is "func" (plain call), "gen" (generator:
#: one span per resume), "classmethod" or "init" (constructor).
#: ``hook`` names a per-call counter fed from the call's arguments or
#: return value (see :meth:`Ledger._hooks`).
SPANS: tuple[tuple[str, str, str, str, str | None], ...] = (
    ("simkernel.step_batch", "repro.simkernel.process", "Simulator.step_batch", "func", "events"),
    ("session.submit", "repro.session", "Session.submit", "func", None),
    ("session.status", "repro.session", "JobHandle.status", "func", None),
    ("session.result", "repro.session", "JobHandle.result", "func", None),
    ("session.wait", "repro.session", "JobHandle.wait", "gen", None),
    ("spec.validate", "repro.spec.jobspec", "JobSpec.validate", "func", None),
    ("spec.to_dict", "repro.spec.jobspec", "JobSpec.to_dict", "func", None),
    ("spec.from_dict", "repro.spec.jobspec", "JobSpec.from_dict", "classmethod", None),
    ("sdk.ir_decode", "repro.sdk.ir", "AnalogProgram.from_dict", "classmethod", None),
    ("sdk.ir_encode", "repro.sdk.ir", "AnalogProgram.to_dict", "func", None),
    ("sdk.lower", "repro.sdk.translate", "lower_to_hamiltonian", "func", None),
    ("sdk.build", "repro.sdk.pulser_like", "Sequence.build", "func", None),
    ("daemon.http", "repro.daemon.http", "Router.dispatch", "func", None),
    ("daemon.submit", "repro.daemon.service", "MiddlewareDaemon.submit_spec", "func", None),
    ("daemon.submit", "repro.daemon.service", "MiddlewareDaemon.submit_task", "func", None),
    ("daemon.select", "repro.daemon.scheduler", "SecondLevelScheduler._select", "func", None),
    ("daemon.run_task", "repro.daemon.scheduler", "SecondLevelScheduler._run_task", "gen", None),
    ("scheduling.schedule", "repro.scheduling.algorithms.fifo_priority", "FifoPriority.schedule", "func", "pending"),
    ("scheduling.schedule", "repro.scheduling.algorithms.policy_routing", "PolicyRouting.schedule", "func", "pending"),
    ("qrmi.execute", "repro.qrmi.backends", "LocalEmulatorResource._execute", "func", None),
    ("qrmi.execute", "repro.qrmi.backends", "OnPremQPUResource.execute_in_sim", "gen", None),
    ("qpu.specs_check", "repro.qpu.specs", "DeviceSpecs.check", "func", None),
    ("qpu.hamiltonian", "repro.qpu.hamiltonian", "RydbergHamiltonian.__init__", "init", None),
    ("qpu.execute", "repro.qpu.device", "QPUDevice.execute_process", "gen", None),
    ("emulators.sv", "repro.emulators.statevector", "StateVectorEmulator.run", "func", "shots"),
    ("emulators.mps", "repro.emulators.mps", "MPSEmulator.run", "func", "shots"),
    ("federation.submit", "repro.federation.broker", "FederationBroker.submit_spec", "func", None),
    ("federation.status", "repro.federation.broker", "FederationBroker.status", "func", None),
    ("federation.reconcile", "repro.federation.broker", "FederationBroker.reconcile", "func", None),
    ("federation.malleable", "repro.federation.malleable", "MalleableManager.submit_spec", "func", None),
    ("federation.malleable", "repro.federation.malleable", "MalleableManager.tick", "func", None),
    ("federation.registry", "repro.federation.registry", "SiteRegistry.snapshots", "func", None),
    ("federation.registry", "repro.federation.registry", "SiteRegistry.healthy_snapshots", "func", None),
    ("federation.bus_publish", "repro.federation.events", "LifecycleBus.publish", "func", None),
    ("federation.bus_flush", "repro.federation.events", "LifecycleBus.flush", "func", None),
    ("accounting.meter", "repro.accounting.service", "FederationAccounting.meter_completion", "func", None),
    ("observability.tsdb_write", "repro.observability.tsdb", "TimeSeriesDB.write", "func", None),
    ("observability.tsdb_write_many", "repro.observability.tsdb", "TimeSeriesDB.write_many", "func", None),
    ("observability.scrape", "repro.observability.scrape", "Scraper.scrape_once", "func", None),
)


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0      # entry-point invocations (a generator counts once)
    spans: int = 0      # recorded spans (a generator: one per resume)
    total_s: float = 0.0
    self_s: float = 0.0
    counter: float = 0.0  # the span's hook counter (events, shots, ...)


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any       # the raw class-dict / module-dict value


@dataclass
class Ledger:
    """Span recorder plus the patch table that feeds it.

    Use :meth:`installed` around the traced region; :attr:`stats`
    aggregates per span name and :attr:`spans` keeps the raw records
    ``(name, start, end, parent_index)`` (up to :attr:`keep_spans`).
    """

    keep_spans: int = 100_000
    stats: dict[str, SpanStats] = field(default_factory=dict)
    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    _stack: list[list] = field(default_factory=list)
    _patches: list[_Patch] = field(default_factory=list)

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        # frame: [name, start, child_time, parent_index, own_index]
        parent = self._stack[-1][4] if self._stack else -1
        index = len(self.spans) if len(self.spans) < self.keep_spans else -1
        if index >= 0:
            self.spans.append((name, 0.0, 0.0, parent))
        frame = [name, perf_counter(), 0.0, parent, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrapper bug guard
            raise RuntimeError(f"span stack corrupted at {frame[0]!r}")
        duration = end - frame[1]
        stats = self.stats.get(frame[0])
        if stats is None:
            stats = self.stats[frame[0]] = SpanStats()
        stats.spans += 1
        stats.total_s += duration
        stats.self_s += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[4] >= 0:
            self.spans[frame[4]] = (frame[0], frame[1], end, frame[3])

    def _count(self, name: str, calls: int = 0, counter: float = 0.0) -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += calls
        stats.counter += counter

    @contextmanager
    def span(self, name: str):
        """Record one span around benchmark-side work (client code)."""
        frame = self._enter(name)
        self._count(name, calls=1)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers -------------------------------------------------------------

    @staticmethod
    def _hooks(hook: str | None, args: tuple, result: Any) -> float:
        if hook == "events":      # Simulator.step_batch -> (time, processed)
            return float(result[1])
        if hook == "pending":     # schedule(self, pending, resources, system)
            return float(len(args[1]))
        if hook == "shots":       # EmulatorBackend.run -> EmulationResult
            return float(result.shots)
        return 0.0

    def _wrap_func(self, name: str, fn, hook: str | None):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = ledger._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger._exit(frame)
            ledger._count(name, 1, ledger._hooks(hook, args, result) if hook else 0.0)
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger._count(name, calls=1)
            gen = fn(*args, **kwargs)  # creating a generator runs none of its body
            sent: Any = None
            thrown: BaseException | None = None
            while True:
                frame = ledger._enter(name)
                try:
                    if thrown is None:
                        command = gen.send(sent)
                    else:
                        command = gen.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                finally:
                    ledger._exit(frame)
                try:
                    sent, thrown = (yield command), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into the wrapped generator
                    sent, thrown = None, err

        return wrapper

    # -- patching ---------------------------------------------------------------

    @staticmethod
    def _resolve(module: str, path: str) -> tuple[Any, str]:
        owner: Any = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr

    def install(self) -> None:
        """Patch every entry point in :data:`SPANS` (idempotence guard:
        installing twice is an error, not a double wrap)."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        for name, module, path, kind, hook in SPANS:
            owner, attr = self._resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if kind == "classmethod":
                replacement = classmethod(self._wrap_func(name, raw.__func__, hook))
            elif kind == "gen":
                replacement = self._wrap_gen(name, raw)
            else:
                replacement = self._wrap_func(name, raw, hook)
            self._patches.append(_Patch(owner, attr, raw))
            setattr(owner, attr, replacement)
            if not isinstance(owner, type):
                # module-level function: rebind every `from x import f` copy
                for other in list(sys.modules.values()):
                    if (
                        other is not owner
                        and getattr(other, "__name__", "").startswith("repro.")
                        and other.__dict__.get(attr) is raw
                    ):
                        self._patches.append(_Patch(other, attr, raw))
                        setattr(other, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    def is_clean(self) -> bool:
        """True when no entry point in :data:`SPANS` is wrapped."""
        for _, module, path, _, _ in SPANS:
            owner, attr = self._resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            target = raw.__func__ if isinstance(raw, classmethod) else raw
            if hasattr(target, "__wrapped__"):
                return False
        return True

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ----------------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def self_s(self, *names: str) -> float:
        return sum(self.get(n).self_s for n in names)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))

    def attributed_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def dump(self, path) -> None:
        """Write the raw spans as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        records = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records}, handle)
