"""no-poll: the federation learns task state only from the bus.

Sites publish every task transition onto the
:class:`~repro.federation.events.LifecycleBus` and the broker and the
malleable resize loop consume what was pushed.  A ``task_status`` call
anywhere under ``federation/`` would bring back a second tracking path:
O(live placements) daemon round trips per tick that can disagree with
the pushed stream.  There is no sanctioned exception.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule

__all__ = ["NoPollRule"]

#: the package where a task_status call means polling
POLL_SCOPED_DIR = "federation/"


class NoPollRule(Rule):
    id = "no-poll"
    description = (
        "federation code consumes pushed lifecycle events — task_status "
        "polling is banned in every federation/ module"
    )
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if not ctx.arch_path.startswith(POLL_SCOPED_DIR):
            return
        assert isinstance(node, ast.Call)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "task_status":
            self.emit(
                ctx,
                node,
                "task_status poll in federation code — task transitions "
                "arrive on the LifecycleBus (FederationBroker.events)",
            )
