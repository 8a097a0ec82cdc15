"""Continuous profiling: where does the *system* spend its time?

PR 6's tracing answers "what happened to this job"; this module answers
the complementary ops question from paper §2.5 — where the middleware
itself burns wall clock.  A :class:`Profiler` hands out nestable
``scope()`` context managers that the hot paths guard behind a single
``is not None`` check (broker reconcile, the malleable resize loop,
scheduler select, ``SchedulingAlgorithm.schedule`` calls, simkernel
event dispatch, the scraper's TSDB flush), aggregating per-call-path
statistics — count, total, self (minus children), max — that render as
a top-N table or a flamegraph-style tree and flush into the chunked
TSDB beside the trace spans.

Design constraints, in order:

* **near-zero cost when absent** — every instrumented site holds a
  ``profiler`` reference that defaults to ``None`` and pays one branch;
  a disabled :class:`Profiler` instance hands back a shared no-op scope
  so user code can leave ``with profiler.scope(...)`` in place,
* **scheduling-invisible** — the profiler only reads the wall clock and
  mutates its own dicts; it never touches simulator or queue state, so
  a profiled run makes bit-identical scheduling decisions (the C6 bench
  enforces this),
* **path-aware** — stats key on the full scope *path* (e.g.
  ``sim.step/broker.reconcile/malleable.tick``), so time nested under a
  parent is attributed to the parent's children, not double-reported.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

__all__ = ["Profiler", "instrument_scheduler_profiler"]


class _NoopScope:
    """Shared do-nothing context manager for disabled profilers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopScope()


class _Scope:
    """Live scope: pushes a frame on enter, accounts it on exit."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Scope":
        self._profiler.push(self._name)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._profiler.pop()
        return False


class Profiler:
    """Low-overhead hierarchical scope profiler.

    Stats accumulate per call path (tuple of nested scope names) as
    ``[count, total_s, self_s, max_s]``; ``self_s`` is the scope's wall
    time minus the wall time of scopes entered beneath it.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: open frames: [name, wall_start, child_seconds]
        self._stack: list[list] = []
        #: call path -> [count, total_s, self_s, max_s]
        self._stats: dict[tuple[str, ...], list[float]] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting; ``scope()`` returns the shared no-op and the
        hot-path ``push``/``pop`` pair degrades to a branch each."""
        self.enabled = False

    # -- the hot path ------------------------------------------------------

    def scope(self, name: str):
        """Context manager timing one named scope (nestable)."""
        if not self.enabled:
            return _NOOP
        return _Scope(self, name)

    def push(self, name: str) -> None:
        """Open a frame without a context manager — the shape the
        per-event simulator hook uses to avoid an allocation per step."""
        if not self.enabled:
            return
        self._stack.append([name, perf_counter(), 0.0])

    def pop(self) -> None:
        """Close the innermost frame and account it to its call path."""
        if not self.enabled:
            return
        stack = self._stack
        if not stack:
            return  # disabled/enabled mid-flight: never raise on a hot path
        name, started, child_s = stack.pop()
        elapsed = perf_counter() - started
        if stack:
            stack[-1][2] += elapsed
        path = (*(frame[0] for frame in stack), name)
        stat = self._stats.get(path)
        if stat is None:
            self._stats[path] = [1.0, elapsed, elapsed - child_s, elapsed]
            return
        stat[0] += 1.0
        stat[1] += elapsed
        stat[2] += elapsed - child_s
        if elapsed > stat[3]:
            stat[3] = elapsed

    def profile(self, name: str):
        """Decorator form of :meth:`scope`."""

        def wrap(fn):
            def inner(*args: Any, **kwargs: Any):
                if not self.enabled:
                    return fn(*args, **kwargs)
                self.push(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.pop()

            inner.__name__ = getattr(fn, "__name__", name)
            inner.__doc__ = fn.__doc__
            return inner

        return wrap

    # -- queries -----------------------------------------------------------

    def snapshot(self) -> dict[tuple[str, ...], dict[str, float]]:
        """Copy of the aggregates, keyed by call path."""
        return {
            path: {
                "count": stat[0],
                "total_s": stat[1],
                "self_s": stat[2],
                "max_s": stat[3],
            }
            for path, stat in self._stats.items()
        }

    def paths(self) -> list[tuple[str, ...]]:
        return sorted(self._stats)

    def total_seconds(self) -> float:
        """Wall seconds under root scopes (nested time counted once)."""
        return sum(stat[1] for path, stat in self._stats.items() if len(path) == 1)

    def reset(self) -> None:
        self._stats.clear()
        self._stack.clear()

    # -- rendering ---------------------------------------------------------

    def report_top(self, n: int = 10) -> str:
        """Top-N call paths by self time, as a text table."""
        rows = sorted(
            self._stats.items(), key=lambda item: item[1][2], reverse=True
        )[:n]
        header = f"{'self ms':>10}  {'total ms':>10}  {'calls':>8}  {'max ms':>9}  path"
        lines = [f"== profile top-{n} (by self time) ==", header]
        for path, (count, total, self_s, max_s) in rows:
            lines.append(
                f"{self_s * 1e3:>10.3f}  {total * 1e3:>10.3f}  {int(count):>8}"
                f"  {max_s * 1e3:>9.3f}  {'/'.join(path)}"
            )
        if not rows:
            lines.append("  (no scopes recorded)")
        return "\n".join(lines)

    def render_flame(self, width: int = 40) -> str:
        """Flamegraph-style text tree beside the trace timeline: one
        line per call path, indented by depth, with a bar proportional
        to its share of the total root wall time."""
        total = self.total_seconds()
        lines = [f"== profile flame ({total * 1e3:.3f} ms total) =="]
        if not self._stats:
            lines.append("  (no scopes recorded)")
            return "\n".join(lines)
        horizon = max(total, 1e-12)
        paths = sorted(self._stats)
        label_width = max(len(p[-1]) + 2 * (len(p) - 1) for p in paths) + 2
        for path in paths:
            count, total_s, self_s, _ = self._stats[path]
            filled = min(width, max(1, round(total_s / horizon * width)))
            bar = "█" * filled + " " * (width - filled)
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f" {label:<{label_width}}|{bar}| "
                f"{total_s * 1e3:.3f}ms self={self_s * 1e3:.3f}ms n={int(count)}"
            )
        return "\n".join(lines)

    # -- persistence -------------------------------------------------------

    def flush_to_tsdb(self, tsdb: Any, now: float, reset: bool = True) -> int:
        """Write one point per call path and stat into the TSDB.

        Measurements are ``profile_scope_calls`` / ``profile_scope_seconds``
        / ``profile_scope_self_seconds`` / ``profile_scope_max_seconds``,
        labeled by the ``/``-joined path.  Flush at nondecreasing ``now``
        values — same monotone-append contract as every other writer.
        ``reset`` (default) drains the aggregates so repeated flushes
        form a per-interval series rather than a cumulative one.
        """
        flushed = 0
        for path in sorted(self._stats):
            count, total_s, self_s, max_s = self._stats[path]
            tsdb.write_many(
                {
                    "profile_scope_calls": count,
                    "profile_scope_seconds": total_s,
                    "profile_scope_self_seconds": self_s,
                    "profile_scope_max_seconds": max_s,
                },
                now,
                labels={"path": "/".join(path)},
            )
            flushed += 1
        if reset:
            self._stats.clear()
        return flushed


def instrument_scheduler_profiler(scheduler: Any, profiler: Profiler) -> None:
    """Point a daemon scheduler's select hook at ``profiler`` (the
    profiling twin of :func:`~repro.observability.tracing.instrument_scheduler`):
    each ``_select`` pass runs under a ``scheduler.select`` scope."""
    scheduler.scope_profiler = profiler
