"""Multi-level scheduling policies.

The paper's Table 1 taxonomy and the mechanisms built around it:

* :mod:`patterns`   — the three workload patterns (High-QC/Low-CC,
  Low-QC/High-CC, Balanced) + ``--hint=...`` parsing,
* :mod:`interleave` — pattern-aware co-scheduling that "interleaves
  jobs to kill QPU idle time" (Table 1, pattern B hint),
* :mod:`malleable`  — grow/shrink classical allocations (§2.4, ref [25])
  plus the site-aware :class:`~repro.scheduling.malleable.ShareLedger`
  behind cross-site malleable placements,
* :mod:`timeshare`  — fractional QPU shares in 10% increments via
  licenses/GRES (§3.5) with a deficit-weighted fair queue,
* :mod:`metrics`    — utilization/wait/makespan folded from a daemon's
  task transitions.
"""

from .interleave import InterleavePlan, PatternAwarePlanner, SequentialPlanner
from .malleable import MalleablePool, MalleableTask, ShareLedger, SiteShare
from .metrics import SchedulingMetrics, TransitionCollector, qpu_busy_fraction
from .patterns import SchedulerHint, WorkloadPattern, classify_pattern, hint_for_pattern
from .timeshare import TimeshareAllocator, WeightedFairPolicy

__all__ = [
    "InterleavePlan",
    "MalleablePool",
    "MalleableTask",
    "PatternAwarePlanner",
    "SchedulerHint",
    "SchedulingMetrics",
    "SequentialPlanner",
    "ShareLedger",
    "SiteShare",
    "TimeshareAllocator",
    "TransitionCollector",
    "WeightedFairPolicy",
    "WorkloadPattern",
    "classify_pattern",
    "hint_for_pattern",
    "qpu_busy_fraction",
]
