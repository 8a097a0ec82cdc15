"""private-import: no underscore-prefixed module or name of another package.

A third-party package's ``_private`` modules and names are outside its
public API: they move or vanish between releases without notice, and a
NumPy upgrade that drops one breaks the tree at import time.  Reaching
into one is sometimes worth it (the emu-mps QR goes straight to the
LAPACK gufuncs behind ``np.linalg.qr``), but then it is a decision with
a stated reason, so every such import needs a justified suppression.

Imports of ``repro`` and ``benchmarks`` modules, and relative imports,
are the tree's own and are exempt.  Dunder names (``__future__``,
``__version__``) are public by convention.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule

__all__ = ["PrivateImportRule"]

#: top-level packages whose private names are this tree's own business
OWN_PACKAGES = frozenset({"repro", "benchmarks"})


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


class PrivateImportRule(Rule):
    id = "private-import"
    description = (
        "importing an underscore-prefixed module or name from a third-party "
        "package reaches past its public API"
    )
    interests = (ast.Import, ast.ImportFrom)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules, names = [node.module], [alias.name for alias in node.names]
        else:
            return
        for module in modules:
            parts = module.split(".")
            if parts[0] in OWN_PACKAGES:
                continue
            if any(_private(part) for part in parts):
                self.emit(ctx, node, f"import of private module {module!r} — outside its package's public API")
                continue
            for name in filter(_private, names):
                self.emit(ctx, node, f"import of private name {name!r} from {module!r} — outside its public API")
