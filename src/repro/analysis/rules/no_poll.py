"""no-poll: task state is pushed, once per queue, and never polled.

Each daemon publishes its queue's transitions onto the
:class:`~repro.federation.events.LifecycleBus`; the broker, the resize
loop, and every session consume what was pushed.  A ``task_status``
call anywhere under ``federation/`` would bring back polling (daemon
round trips per tick that can disagree with the pushed stream), and an
``add_transition_listener`` call outside ``daemon/`` a second publisher
of the same queue.  There is no sanctioned exception.

The client side waits the same way: a ``while`` loop under
``runtime/`` or in ``session.py`` that reads ``.status(`` and yields a
``Timeout(`` is a status-poll loop — a job's end arrives on its
handle (``JobHandle.wait``).  ``workloads/`` is out of scope: its
synthetic clients model a polling user on purpose.

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
#: client code whose waits must ride the pushed terminal event
WAIT_SCOPED = ("runtime/", "session.py")


def _is_poll_loop(loop: ast.While) -> bool:
    """Does ``loop`` both read ``.status(`` and yield ``Timeout(``?"""
    reads = sleeps = False
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            reads = reads or node.func.attr == "status"
        elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            sleeps = sleeps or name == "Timeout"
    return reads and sleeps


class NoPollRule(Rule):
    id = "no-poll"
    description = (
        "lifecycle state is pushed once per queue — task_status polling "
        "in federation/, status-poll loops in runtime/ and session.py, "
        "queue transition listeners outside daemon/ and resize ticks "
        "outside the reconcile sweep are banned"
    )
    interests = (ast.Call, ast.While)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.While):
            if ctx.arch_path.startswith(WAIT_SCOPED) and _is_poll_loop(node):
                self.emit(
                    ctx,
                    node,
                    "status-poll loop (.status( + yield Timeout() — wait on "
                    "the job's pushed terminal event (JobHandle.wait)",
                )
            return
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
