"""Continuous profiling: where does the *system* spend its time?

PR 6's tracing answers "what happened to this job"; this module answers
the complementary ops question from paper §2.5 — where the middleware
itself burns wall clock.  A :class:`Profiler` hands out nestable
``scope()`` context managers and a ``push``/``pop`` pair, aggregating
per-call-path statistics — count, total, self (minus children), max —
that render as a top-N table or a flamegraph-style tree and flush into
the chunked TSDB beside the trace spans.

The run's profiler lives on the shared simulator: ``sim.profiler =
Profiler()`` profiles every layer on that clock, brokered or not.  The
simulator wraps each event batch in ``sim.step``, and the hot paths
(broker reconcile, the malleable resize loop, placement, scheduler
select, the scraper's TSDB flush) carry :func:`scoped`.

Design constraints, in order:

* **near-zero cost when absent** — ``sim.profiler`` defaults to
  ``None`` and every scoped call pays one ``is None`` check,
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

__all__ = ["Profiler", "scoped"]


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

    def __init__(self) -> None:
        #: open frames: [name, wall_start, child_seconds]
        self._stack: list[list] = []
        #: call path -> [count, total_s, self_s, max_s]
        self._stats: dict[tuple[str, ...], list[float]] = {}

    # -- the hot path ------------------------------------------------------

    def scope(self, name: str):
        """Context manager timing one named scope (nestable)."""
        return _Scope(self, name)

    def push(self, name: str) -> None:
        """Open a frame without a context manager — the shape the
        per-event simulator hook uses to avoid an allocation per step."""
        self._stack.append([name, perf_counter(), 0.0])

    def pop(self) -> None:
        """Close the innermost frame and account it to its call path."""
        stack = self._stack
        if not stack:
            return  # attached or reset mid-flight: never raise on a hot path
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


def scoped(name: str):
    """Method decorator: run the call under the ``name`` scope of
    ``self.sim.profiler``.  Without a profiler on the simulator the call
    costs one ``is None`` check."""

    def wrap(fn):
        def inner(self, *args: Any, **kwargs: Any):
            profiler = self.sim.profiler
            if profiler is None:
                return fn(self, *args, **kwargs)
            profiler.push(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                profiler.pop()

        # copied by hand, not functools.wraps: a ``__wrapped__`` attribute
        # marks an entry point the perfbench Ledger patched and left behind
        inner.__name__ = fn.__name__
        inner.__qualname__ = fn.__qualname__
        inner.__doc__ = fn.__doc__
        return inner

    return wrap
