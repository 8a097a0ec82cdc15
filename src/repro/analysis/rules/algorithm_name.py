"""algorithm-name: only ``scheduling/`` branches on an algorithm's name.

A loop resolves a name through the registry and then asks the instance
(``schedule``, ``divide``, its capability flags).  A
``spec.algorithm == "agreement-elastic"`` branch elsewhere in the
package is a second way to select an algorithm, one that a renamed or
new discipline silently skips.  So a comparison against a registered
name literal outside ``scheduling/`` is a finding.  Files outside the
package (the C7 sweep bench picks traces and result keys by name) are
not checked.  The names are read from the ``name = "..."`` of every
``@register`` class under ``scheduling/algorithms/`` during the same
walk, or injected for fixture tests.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..engine import FileContext, Rule

__all__ = ["AlgorithmNameRule"]

#: the package that owns algorithm names
OWNER_DIR = "scheduling/"
#: where ``@register`` classes declare their names
REGISTRY_DIR = "scheduling/algorithms/"


def _str_literals(node: ast.AST) -> list[str]:
    """String constants of a comparison operand (itself, or the
    elements of a literal tuple/list/set)."""
    elements = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [e.value for e in elements if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def _registered_name(node: ast.ClassDef) -> str | None:
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "register" for d in node.decorator_list):
        return None
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["name"]:
            return stmt.value.value if isinstance(stmt.value, ast.Constant) else None
    return None


class AlgorithmNameRule(Rule):
    id = "algorithm-name"
    description = "no comparison against a registered algorithm name in the package outside scheduling/"
    interests = (ast.ClassDef, ast.Compare)

    def __init__(self, names: Iterable[str] | None = None) -> None:
        super().__init__()
        self._injected = names is not None
        self._names: set[str] = set(names or ())
        #: (file, line, literal) comparisons awaiting the registry
        self._sites: list[tuple[str, int, str]] = []

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef):
            name = _registered_name(node) if ctx.arch_path.startswith(REGISTRY_DIR) else None
            if name is not None and not self._injected:
                self._names.add(name)
        elif ctx.arch_path != ctx.display and not ctx.arch_path.startswith(OWNER_DIR):
            assert isinstance(node, ast.Compare)
            for operand in (node.left, *node.comparators):
                self._sites.extend((ctx.display, node.lineno, s) for s in _str_literals(operand))

    def finalize(self) -> None:
        for file, line, literal in self._sites:
            if literal in self._names:
                self.emit_at(
                    file,
                    line,
                    f"comparison against algorithm name {literal!r} outside {OWNER_DIR} — "
                    "resolve it through the registry and ask the instance",
                )
