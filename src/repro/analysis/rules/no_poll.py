"""no-poll: task state is pushed, once per queue, and never polled.

Each daemon publishes its queue's transitions onto the
:class:`~repro.federation.events.LifecycleBus`; the broker, the resize
loop, and every session consume what was pushed.  A ``task_status``
call anywhere under ``federation/`` would bring back polling (daemon
round trips per tick that can disagree with the pushed stream), and an
``add_transition_listener`` call outside ``daemon/`` a second publisher
of the same queue.  There is no sanctioned exception.

Reads stay reads: a ``.tick(`` call — a resize-loop pass, with its
dispatches, reclaims and publishes — anywhere under ``federation/``
except the broker's own reconcile sweep (``FederationBroker.reconcile``)
would make a status read or a pushed event run the sweep's work.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule

__all__ = ["NoPollRule"]

#: the package where a task_status call means polling
POLL_SCOPED_DIR = "federation/"
#: the package that owns a queue's one transition publisher
PUBLISHER_DIR = "daemon/"
#: the one function in federation/ that runs the resize loop's tick
TICK_OWNER = "FederationBroker.reconcile"


class NoPollRule(Rule):
    id = "no-poll"
    description = (
        "lifecycle state is pushed once per queue — task_status polling "
        "in federation/, queue transition listeners outside daemon/ and "
        "resize ticks outside the reconcile sweep are banned"
    )
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "task_status" and ctx.arch_path.startswith(POLL_SCOPED_DIR):
            self.emit(
                ctx,
                node,
                "task_status poll in federation code — task transitions "
                "arrive on the LifecycleBus (FederationBroker.events)",
            )
        elif (
            func.attr == "tick"
            and ctx.arch_path.startswith(POLL_SCOPED_DIR)
            and ctx.qualname() != TICK_OWNER
        ):
            self.emit(
                ctx,
                node,
                "resize tick outside FederationBroker.reconcile — reads and "
                "pushed events must not run the housekeeping sweep's work",
            )
        elif func.attr == "add_transition_listener" and not ctx.arch_path.startswith(PUBLISHER_DIR):
            self.emit(
                ctx,
                node,
                "queue transition listener outside daemon/ — a second publisher; "
                "subscribe to MiddlewareDaemon.events or move it with attach_bus",
            )
