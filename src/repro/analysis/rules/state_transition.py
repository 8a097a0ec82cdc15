"""state-transition: job/task state moves only through blessed points.

Federated jobs of both kinds live in state-indexed tables:
``JobTable.set_state`` (``federation/broker.py``) moves the record
between per-state dicts as it flips ``job.state``, and it is the only
function in ``federation/`` allowed to write ``.state``.  A direct
``job.state = ...`` write anywhere else leaves the job filed under its
old state — reconcile then sweeps a terminal job forever (or
never sees a live one), and nothing crashes.  Daemon tasks change state
only in ``MiddlewareQueue.set_state`` (``daemon/queue.py``), which
stamps the task's timestamps, keeps the queued index and fires the
transition listeners; the cluster's :class:`Job` has ``transition()``.
Everyone else goes through those APIs.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule

__all__ = ["StateTransitionRule"]

#: directories whose ``.state =`` writes this rule polices
STATE_SCOPED_DIRS = ("federation/", "daemon/", "cluster/")

#: arch_path -> function names allowed to assign ``.state`` there
#: (``None`` = the whole module is a blessed transition owner)
BLESSED: dict[str, frozenset[str] | None] = {
    # the single transition point of both federated job tables
    "federation/broker.py": frozenset({"set_state"}),
    # the single transition point of daemon tasks: it stamps the
    # timestamps, keeps the queued index and fires the listeners
    "daemon/queue.py": frozenset({"set_state"}),
    # cluster jobs route through Job.transition(); nodes own their enum
    "cluster/job.py": frozenset({"__init__", "transition"}),
    "cluster/node.py": None,
}


class StateTransitionRule(Rule):
    id = "state-transition"
    description = (
        "job/task .state assignments outside the blessed set_state "
        "transition points corrupt the state-indexed tables"
    )
    interests = (ast.Assign, ast.AnnAssign, ast.AugAssign)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if not ctx.arch_path.startswith(STATE_SCOPED_DIRS):
            return
        targets: list[ast.AST]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]  # type: ignore[attr-defined]
        hits = [t for t in targets if isinstance(t, ast.Attribute) and t.attr == "state"]
        if not hits:
            return
        allowed = BLESSED.get(ctx.arch_path, frozenset())
        if allowed is None:
            return  # whole module blessed
        func = ctx.enclosing_function()
        if func is not None and func.name in allowed:
            return
        for target in hits:
            owner = ast.unparse(target.value)
            self.emit(
                ctx,
                node,
                f"direct state write {owner}.state = ... outside a "
                "blessed transition point — route through set_state "
                "(or the owning object's transition API) so the "
                "state-indexed tables stay consistent",
            )
