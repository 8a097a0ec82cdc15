"""Generator-based simulated processes and the simulator loop.

A process is a Python generator that yields *commands*:

* ``Timeout(delay)``   — suspend for ``delay`` simulated seconds,
* ``Wait(event)``      — suspend until ``event`` triggers; resumes with
  the event's value,
* another ``Process``  — wait for a child process to finish; resumes
  with the child's return value,
* a resource request object from :mod:`repro.simkernel.resources`.

Processes can be interrupted (used by the preemption machinery in the
cluster and daemon schedulers): :meth:`Process.interrupt` raises
:class:`Interrupt` inside the generator at its current suspension point.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from time import perf_counter
from typing import Any

from ..errors import ClockError, ProcessError, SimulationError
from .clock import SimClock
from .events import Event, EventQueue, ScheduledEvent

__all__ = ["Interrupt", "Process", "Simulator", "Timeout", "Wait"]


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    ``cause`` carries arbitrary context (e.g. the preempting job id).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class Timeout:
    """Command: suspend the yielding process for ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ClockError(f"negative timeout {delay}")
        self.delay = float(delay)


class Wait:
    """Command: suspend the yielding process until ``event`` triggers."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class Process:
    """A running simulated process wrapping a generator.

    The process exposes an :attr:`done_event` other processes can wait
    on; its value is the generator's return value (or the exception that
    killed it, re-raised in the waiter).
    """

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
        background: bool = False,
    ) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: background processes (scrapers, drift models) never keep an
        #: unbounded Simulator.run() alive — see EventQueue.background.
        self.background = background
        self.done_event = Event(name=f"{self.name}.done")
        self._alive = True
        self._pending_entry: ScheduledEvent | None = None
        self._waiting_on: Event | None = None
        self._resume_callback: Callable[[Event], None] | None = None
        self.return_value: Any = None
        self.error: BaseException | None = None

    @property
    def alive(self) -> bool:
        return self._alive

    # -- driving ---------------------------------------------------------

    def _start(self) -> None:
        self._step(None)

    def _step(self, send_value: Any, exc: BaseException | None = None) -> None:
        """Advance the generator by one yield, then re-arm its suspension."""
        self._pending_entry = None
        self._waiting_on = None
        self._resume_callback = None
        try:
            if exc is not None:
                command = self.generator.throw(exc)
            else:
                command = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Interrupt as leaked:
            # Generator chose not to handle the interrupt: treat as death.
            self._finish(None, leaked)
            return
        except Exception as err:  # deliberate: process bodies may fail
            self._finish(None, err)
            return
        try:
            self._arm(command)
        except ProcessError as err:
            # Bad yield: kill the process rather than unwinding the caller
            # (spawn / event loop) so run_until_process reports it.
            self.generator.close()
            self._finish(None, err)

    def _arm(self, command: Any) -> None:
        sim = self.sim
        if isinstance(command, Timeout):
            event = Event(name=f"{self.name}.timeout")
            resume = lambda ev: self._step(ev.value)  # noqa: E731
            event.callbacks.append(resume)
            self._pending_entry = sim.schedule(
                event, delay=command.delay, background=self.background
            )
            self._waiting_on = event
            self._resume_callback = resume
        elif isinstance(command, Wait):
            self._wait_for(command.event)
        elif isinstance(command, Process):
            self._wait_for(command.done_event, unwrap_process=command)
        elif isinstance(command, Event):
            self._wait_for(command)
        elif hasattr(command, "__sim_request__"):
            # Resource request protocol: object arms itself and returns the
            # event the process should wait on.
            event = command.__sim_request__(sim, self)
            self._wait_for(event)
        else:
            raise ProcessError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )

    def _wait_for(self, event: Event, unwrap_process: "Process | None" = None) -> None:
        def resume(ev: Event) -> None:
            if unwrap_process is not None and unwrap_process.error is not None:
                self._step(None, exc=unwrap_process.error)
            else:
                self._step(ev.value)

        if event.processed:
            # Already done: resume on the next tick at the current time to
            # preserve run-to-yield semantics.
            immediate = Event(name=f"{self.name}.immediate")
            immediate.callbacks.append(resume)
            immediate.trigger(event.value if event.triggered else None)
            self._pending_entry = self.sim.schedule(
                immediate, delay=0.0, background=self.background
            )
            self._waiting_on = immediate
            self._resume_callback = resume
        else:
            event.callbacks.append(resume)
            self._waiting_on = event
            self._resume_callback = resume

    def _finish(self, value: Any, error: BaseException | None) -> None:
        self._alive = False
        self.sim._processes.discard(self)
        self.return_value = value
        self.error = error
        if error is not None and not self.done_event.callbacks and self.sim._driving is not self:
            # nothing waits on this process and no run_until_process
            # drives it: nobody will ever see the error
            self.sim.unobserved_failures += 1
        self.done_event.trigger(value)
        self.sim.schedule(self.done_event, delay=0.0, background=self.background)

    # -- interruption ----------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process at its current suspension point.

        If the process is waiting on a timeout, the timeout is cancelled.
        If it is waiting on an external event, the callback is detached so
        a later trigger will not resume a dead continuation.
        """
        if not self._alive:
            raise ProcessError(f"cannot interrupt finished process {self.name!r}")
        if self._pending_entry is not None:
            self.sim.events.cancel(self._pending_entry)
            self._pending_entry = None
        if self._waiting_on is not None and self._resume_callback is not None:
            # Detach our resume continuation so a later trigger of the event
            # does not resume an already-interrupted frame.
            self._waiting_on.callbacks = [
                cb for cb in self._waiting_on.callbacks if cb is not self._resume_callback
            ]
            self._waiting_on = None
            self._resume_callback = None
        # Deliver the interrupt on the next tick so the interruptor's frame
        # unwinds first (matches simpy semantics and avoids reentrancy).
        event = Event(name=f"{self.name}.interrupt")
        event.callbacks.append(lambda ev: self._step(None, exc=Interrupt(cause)))
        event.trigger(None)
        self.sim.schedule(event, delay=0.0, priority=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, alive={self._alive})"


class Simulator:
    """The event loop: owns the clock and the event queue.

    It also carries the run's observability handles, read by every layer
    that holds the simulator: :attr:`profiler`, a
    :class:`~repro.observability.profiling.Profiler` the hot paths scope
    into, and :attr:`tracer`, the
    :class:`~repro.observability.tracing.Tracer` the second-level
    schedulers open their dispatch spans on.  Neither touches event
    ordering, so an observed run is bit-identical to a plain one.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self.events = EventQueue()
        #: live processes only: a suspended one stays strongly held (a
        #: collected generator would run its ``finally`` blocks at GC
        #: time), a finished one is dropped with its return value
        self._processes: set[Process] = set()
        self._profile: dict[str, float] | None = None
        #: the run's scope profiler; ``None`` costs one branch per
        #: event batch and per scoped call
        self.profiler = None
        #: the run's tracer (see ``Tracer.attach_sim``); ``None`` skips
        #: dispatch spans
        self.tracer = None
        #: processes that died of an error with no waiter and no
        #: run_until_process driving them
        self.unobserved_failures = 0
        #: the process run_until_process is driving, if any
        self._driving: Process | None = None

    def enable_profiling(self) -> dict[str, float]:
        """Accumulate per-step wall cost into a live ``{"steps", "wall_s"}``
        dict (returned; also re-returned on repeat calls).  Used by the
        bench harness to self-calibrate latency ratios — profiling adds
        two branch checks per step and never touches event ordering, so
        a profiled run is bit-identical to an unprofiled one.
        """
        if self._profile is None:
            self._profile = {"steps": 0, "wall_s": 0.0}
        return self._profile

    @property
    def now(self) -> float:
        return self.clock.now

    # -- scheduling ------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = 0, background: bool = False
    ) -> ScheduledEvent:
        """Queue ``event`` to run its callbacks ``delay`` seconds from now.

        The event may already be triggered (it keeps its value) or still
        pending (:meth:`step_batch` triggers it with ``None`` when it is
        popped)."""
        return self.events.push(self.now + delay, event, priority, background=background)

    def timeout_event(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """Create an event that triggers ``delay`` seconds from now."""
        event = Event(name=name)
        event.trigger(value)
        self.schedule(event, delay=delay)
        return event

    # -- processes -------------------------------------------------------

    def spawn(
        self, generator: Generator[Any, Any, Any], name: str = "", background: bool = False
    ) -> Process:
        """Create and start a process from a generator.

        ``background=True`` marks a perpetual housekeeping process
        (telemetry scraper, drift model): its pending events never keep
        an unbounded :meth:`run` alive, so simulations with eternal
        monitors still terminate when the *real* work drains.
        """
        process = Process(self, generator, name=name, background=background)
        self._processes.add(process)
        process._start()
        return process

    def call_at(self, when: float, callback: Callable[[], None], name: str = "call_at") -> ScheduledEvent:
        """Run ``callback()`` at absolute simulated time ``when``."""
        if when < self.now:
            raise ClockError(f"call_at in the past: now={self.now}, when={when}")
        event = Event(name=name)
        event.callbacks.append(lambda ev: callback())
        event.trigger(None)
        return self.events.push(when, event, 0)

    def call_in(self, delay: float, callback: Callable[[], None], name: str = "call_in") -> ScheduledEvent:
        """Run ``callback()`` after ``delay`` simulated seconds."""
        return self.call_at(self.now + delay, callback, name=name)

    # -- running ---------------------------------------------------------

    def step_batch(self, stop: Callable[[], bool] | None = None) -> tuple[float, int]:
        """Process every event at the next timestamp: one clock advance,
        one ``sim.step`` push/pop on :attr:`profiler` when one is set,
        callbacks dispatched in the heap's global (time, priority, seq)
        order.  Callback work (broker reconcile, scheduler select, ...)
        nests under ``sim.step`` in the call-path stats.

        Entries are popped while the heap head shares the batch
        timestamp, so a callback's new same-time entry (interrupt
        delivery uses priority -1) runs where it sorts and a cancelled
        one never surfaces.  ``stop`` is evaluated between dispatches
        (never before the first): when it returns True the method
        returns early with the rest left queued — this reproduces
        :meth:`run`'s per-event foreground / liveness checks under
        batching.

        Returns ``(batch_time, events_processed)``.
        """
        events = self.events
        profile = self._profile
        if profile is not None:
            wall_start = perf_counter()
        sprof = self.profiler
        if sprof is not None:
            sprof.push("sim.step")
        batch_time = events.peek_time()
        self.clock.advance_to(batch_time)
        processed = 0
        try:
            while events and events.peek_time() == batch_time:
                if processed and stop is not None and stop():
                    break
                event = events.pop().event
                if not event.triggered:
                    event.trigger(None)
                event.run_callbacks()
                processed += 1
        finally:
            if sprof is not None:
                sprof.pop()
            if profile is not None:
                profile["steps"] += processed
                profile["wall_s"] += perf_counter() - wall_start
        return batch_time, processed

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the final simulated time.  ``max_events`` guards against
        accidental infinite event loops in tests.
        """
        steps = 0
        events = self.events
        idle = events.foreground_count
        # mid-batch equivalent of the per-step foreground check below
        stop = (lambda: idle() == 0) if until is None else None
        while events:
            if until is not None and events.peek_time() > until:
                self.clock.advance_to(until)
                return self.now
            if until is None and idle() == 0:
                # only perpetual background work (scrapers, drift) left
                break
            _, n = self.step_batch(stop=stop)
            steps += n
            if steps > max_events:
                raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
        if until is not None and until > self.now:
            self.clock.advance_to(until)
        return self.now

    def run_until_process(self, process: Process, max_events: int = 10_000_000) -> Any:
        """Run until ``process`` completes; returns its value or raises its error."""
        steps = 0
        events = self.events

        def stop() -> bool:
            return (
                not process.alive
                or not events
                or events.foreground_count() == 0
            )

        outer, self._driving = self._driving, process
        try:
            while process.alive:
                if not events or events.foreground_count() == 0:
                    raise SimulationError(
                        f"deadlock: {process.name!r} still alive but no events pending"
                    )
                _, n = self.step_batch(stop=stop)
                steps += n
                if steps > max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
        finally:
            self._driving = outer
        if process.error is not None:
            raise process.error
        return process.return_value
