"""The archlint rule suite: one module per architecture invariant."""

from .algorithm_name import AlgorithmNameRule
from .bus_schema import BusSchemaRule
from .determinism import SimDeterminismRule
from .layering import Contract, LayeringRule
from .no_direct_metrics import NoDirectMetricsRule
from .no_poll import NoPollRule
from .private_import import PrivateImportRule
from .profiler_scope import HOT_PATHS, ProfilerScopeRule
from .state_transition import StateTransitionRule

__all__ = [
    "AlgorithmNameRule",
    "BusSchemaRule",
    "Contract",
    "HOT_PATHS",
    "LayeringRule",
    "NoDirectMetricsRule",
    "NoPollRule",
    "PrivateImportRule",
    "ProfilerScopeRule",
    "SimDeterminismRule",
    "default_rules",
]


def default_rules():
    """Fresh instances of every shipped rule (rules hold per-run state,
    so each Engine gets its own set)."""
    return [
        SimDeterminismRule(),
        NoPollRule(),
        NoDirectMetricsRule(),
        StateTransitionRule(),
        BusSchemaRule(),
        LayeringRule(),
        ProfilerScopeRule(),
        PrivateImportRule(),
        AlgorithmNameRule(),
    ]
