"""One scheduling interface: the pluggable algorithm suite.

Every unit-granular scheduling loop in the stack (daemon worker,
federation broker, malleable arbitration, and the sweep bench) drives a
:class:`~repro.scheduling.algorithms.base.SchedulingAlgorithm` through
the same ``schedule(pending, resources, system) -> [Decision]`` call;
the malleable arbitration divides a contended site's slots with its
``divide``.  Algorithms are one file each and selectable by name — per
loop (``resolve``), per federated job through ``JobSpec.algorithm``,
or by the bench sweep.  The cluster controller plans node-exactly
(per-node cpus, memory, GRES and licenses) with its one planner,
:class:`repro.cluster.scheduler.Scheduler`, which has no slot here.

Registry audit
==============

Every name is a loop's default or a C7 trace-class winner, so none is
folded away: ``fifo-priority`` (daemon) and ``policy-routing``
(broker; ``makespan_c7_policy_routing_rigid_s`` pins it) are defaults,
``easy-backfill`` and ``agreement-elastic`` win C7 classes.  Every
name runs through ``simulate``; the C7 bench keys its
``makespan_c7_*`` values by name.  The daemon's §3.5 weighted-fair
timeshare (:class:`repro.scheduling.timeshare.WeightedFairPolicy`) is
an algorithm too but is not registered: it needs a unit allocator, so
it is passed as an instance.

Module map
==========

``base``
    The vocabulary (``PendingJob`` / ``RunningUnit`` / ``ResourceView``
    / ``SystemView`` / ``Decision``), the ``SchedulingAlgorithm``
    protocol, and the name-keyed registry
    (``register`` / ``get_algorithm`` / ``available`` / ``resolve``).
``views``
    Duck-typed adapters that express daemon queue state and federation
    site snapshots in the common vocabulary.  Nothing here imports the
    adapted packages.
``fifo_priority``
    ``"fifo-priority"`` — the daemon queue's default (class, FIFO)
    discipline.
``policy_routing``
    ``"policy-routing"`` — wraps any federation routing policy's
    ``choose``; bit-identical broker placements.
``easy_backfill``
    ``"easy-backfill"`` — generic unit-count EASY backfilling with
    shadow reservation, usable by the daemon and broker loops.
``agreement_elastic``
    ``"agreement-elastic"`` — contending malleable jobs negotiate
    pairwise unit steals toward the (decayed) fair-share target.
``simulate``
    The Wagomu-style sweep driver: replay one trace through every
    registered algorithm and compare makespan/utilization/wait.

Adding an algorithm
===================

Write one module that imports only ``base`` (and stdlib), subclass
``SchedulingAlgorithm``, set a unique ``name``, decorate with
``@register``, implement ``schedule`` (and ``divide`` to split slots
another way), and import the module here so
registration happens on package import.
"""

from .agreement_elastic import AgreementElastic
from .base import (
    Decision,
    PendingJob,
    ResourceView,
    RunningUnit,
    SchedulingAlgorithm,
    SystemView,
    available,
    get_algorithm,
    register,
    resolve,
)
from .easy_backfill import EasyBackfill
from .fifo_priority import FifoPriority
from .policy_routing import PolicyRouting
from .simulate import SimJob, SimReport, simulate
from .views import daemon_views, federation_views

__all__ = [
    "AgreementElastic",
    "Decision",
    "EasyBackfill",
    "FifoPriority",
    "PendingJob",
    "PolicyRouting",
    "ResourceView",
    "RunningUnit",
    "SchedulingAlgorithm",
    "SimJob",
    "SimReport",
    "SystemView",
    "available",
    "daemon_views",
    "federation_views",
    "get_algorithm",
    "register",
    "resolve",
    "simulate",
]
