"""no-direct-metrics: counters derive from bus subscriptions, gauges
from registry read hooks — not from calls.

:class:`FederationMetrics` folds its counters and stage-latency
histograms over the lifecycle bus, so a resurrected direct
``metrics.record_x(...)`` call would double-count under push delivery.
Its gauges are set by a ``MetricRegistry.add_read_hook`` hook from state
the broker already keeps, so a pushed ``metrics.observe_x(...)`` refresh
would go stale between calls.  New measurements are new *event kinds*
(declare them in ``EVENT_SCHEMAS``) or values set in a read hook.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule

__all__ = ["NoDirectMetricsRule"]


class NoDirectMetricsRule(Rule):
    id = "no-direct-metrics"
    description = (
        "record_* metric calls outside federation/metrics.py and "
        "observe_* calls on a metrics object are banned — publish an "
        "event, or set the value in a registry read hook"
    )
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = ast.unparse(func.value)
        on_metrics = "metrics" in receiver.lower()
        if func.attr.startswith("record_"):
            in_federation = ctx.arch_path.startswith("federation/") and ctx.arch_path != "federation/metrics.py"
            banned = in_federation or on_metrics
            fix = "counters derive from LifecycleBus subscriptions (federation/metrics.py); publish an event instead"
        elif func.attr.startswith("observe_"):
            banned, fix = on_metrics, "a gauge copying kept state is set in a registry read hook"
        else:
            return
        if banned:
            self.emit(ctx, node, f"direct metrics call {receiver}.{func.attr}(...) — {fix}")
