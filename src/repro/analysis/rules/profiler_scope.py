"""profiler-scope: every manifest-listed hot path opens its scope.

PR 8's continuous-profiling plane only answers "what got slow" if the
hot paths actually open their scopes — a refactor that splits
``reconcile`` and forgets the ``with profiler.scope(...)`` silently
blinds the flamegraphs, the C6 walltime ratio gates, and the SLO
burn-rate inputs that are calibrated against them.  ``HOT_PATHS`` is
the manifest: (file, qualified function, scope name).  The rule checks
each listed function still exists and somewhere in its body opens the
named scope — via ``with <x>.scope("name")`` or the simulator's paired
``<x>.push("name")`` form.  Manifest drift (a listed function that no
longer exists) is a finding too: stale manifests are how contracts rot.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..engine import FileContext, Rule

__all__ = ["ProfilerScopeRule", "HOT_PATHS"]

#: (arch_path, qualified name, scope-name literal) — one entry per
#: hot path the profiling plane promises to cover (see ROADMAP PR 8)
HOT_PATHS: tuple[tuple[str, str, str], ...] = (
    ("simkernel/process.py", "Simulator.step_batch", "sim.step"),
    ("federation/broker.py", "FederationBroker.reconcile", "broker.reconcile"),
    ("federation/broker.py", "FederationBroker._reconcile", "malleable.tick"),
    ("federation/broker.py", "FederationBroker._choose_site", "algorithm.schedule"),
    ("daemon/scheduler.py", "SecondLevelScheduler._select", "scheduler.select"),
    ("observability/scrape.py", "Scraper.scrape_once", "tsdb.flush"),
)


def _opens_scope(func: ast.AST, scope_name: str) -> bool:
    """True if the function body opens ``scope_name`` via a
    ``with <x>.scope("...")`` item or a ``<x>.push("...")`` call."""
    for node in ast.walk(func):
        if isinstance(node, ast.withitem):
            call = node.context_expr
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "scope"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value == scope_name
            ):
                return True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "push"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == scope_name
        ):
            return True
    return False


class ProfilerScopeRule(Rule):
    id = "profiler-scope"
    description = (
        "hot-path functions named in the manifest must open their "
        "Profiler scope (with profiler.scope(...) / push)"
    )
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def __init__(self, manifest: Iterable[tuple[str, str, str]] | None = None) -> None:
        super().__init__()
        self.manifest = tuple(HOT_PATHS if manifest is None else manifest)
        self._seen: set[tuple[str, str]] = set()

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qualname = ctx.qualname(node)
        for arch_path, target, scope_name in self.manifest:
            if ctx.arch_path != arch_path or qualname != target:
                continue
            self._seen.add((arch_path, target))
            if not _opens_scope(node, scope_name):
                self.emit(
                    ctx,
                    node,
                    f"hot path {target} must open profiler scope "
                    f"{scope_name!r} (with profiler.scope(...) guarded "
                    "by the usual `if profiler is None` fast path) — "
                    "the flamegraphs and walltime CI gates depend on it",
                )

    def finalize(self) -> None:
        for arch_path, target, scope_name in self.manifest:
            if (arch_path, target) not in self._seen:
                self.emit_at(
                    arch_path,
                    1,
                    f"hot-path manifest drift: {target} (scope "
                    f"{scope_name!r}) not found in {arch_path} — move "
                    "the manifest entry with the refactor or re-open "
                    "the scope in the new location",
                )
