"""profiler-scope: every manifest-listed hot path opens its scope.

PR 8's continuous-profiling plane only answers "what got slow" if the
hot paths actually open their scopes — a refactor that splits
``reconcile`` and forgets its ``@scoped("broker.reconcile")`` silently
blinds the flamegraphs, the C6 walltime ratio gates, and the SLO
burn-rate inputs that are calibrated against them.  ``HOT_PATHS`` is
the manifest: (file, qualified function, scope name).  The rule checks
each listed function still exists and opens the named scope — via a
``@scoped("name")`` decorator, a ``with <x>.scope("name")`` in its body
or the simulator's paired ``<x>.push("name")`` form.  Manifest drift (a
listed function that no longer exists) is a finding too: stale
manifests are how contracts rot.
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
    ("federation/malleable.py", "MalleableManager.tick", "malleable.tick"),
    ("federation/broker.py", "FederationBroker._choose_site", "algorithm.schedule"),
    ("daemon/scheduler.py", "SecondLevelScheduler._select", "scheduler.select"),
    ("observability/scrape.py", "Scraper.scrape_once", "tsdb.flush"),
)


def _calls(node: ast.AST, name: str, scope_name: str, bare: bool = False) -> bool:
    """True if ``node`` is ``<x>.name("scope_name")`` — or, with
    ``bare``, also ``name("scope_name")``."""
    if not (isinstance(node, ast.Call) and node.args):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        called = func.attr
    elif bare and isinstance(func, ast.Name):
        called = func.id
    else:
        return False
    arg = node.args[0]
    return called == name and isinstance(arg, ast.Constant) and arg.value == scope_name


def _opens_scope(func: ast.FunctionDef | ast.AsyncFunctionDef, scope_name: str) -> bool:
    """True if the function carries ``@scoped("...")`` or its body
    opens ``scope_name`` via a ``with <x>.scope("...")`` item or a
    ``<x>.push("...")`` call."""
    if any(_calls(d, "scoped", scope_name, bare=True) for d in func.decorator_list):
        return True
    for node in ast.walk(func):
        if isinstance(node, ast.withitem):
            if _calls(node.context_expr, "scope", scope_name):
                return True
        elif _calls(node, "push", scope_name):
            return True
    return False


class ProfilerScopeRule(Rule):
    id = "profiler-scope"
    description = (
        "hot-path functions named in the manifest must open their "
        "Profiler scope (@scoped(...), with profiler.scope(...) or push)"
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
                    f"{scope_name!r} (decorate it @scoped({scope_name!r})) — "
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
