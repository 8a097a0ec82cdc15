"""Slurm-like batch resource manager (discrete-event).

This package reproduces the slice of Slurm the paper's middleware
interacts with:

* **nodes** with CPUs, memory and per-node GRES (generic resources,
  e.g. ``qpu:1`` or ``qpu_share:10`` timeshare units — paper §3.5),
* **partitions** with priorities and preemption modes (the paper maps
  job classes production/test/development onto partitions, §3.3),
* **licenses** — cluster-wide counted pools, the paper's alternative
  mechanism for fractional QPU shares (§3.5),
* a **scheduler** with priority ordering, aging, EASY backfill and
  partition-priority preemption,
* **SPANK-style plugin hooks** (§3.4: "QRMI already supports ... Slurm
  Spank plugins") used by :mod:`repro.qrmi.slurm_plugin` to inject
  ``--qpu`` resource environment variables into jobs,
* **accounting** records for every job.

The controller (:class:`~repro.cluster.slurmctld.SlurmController`)
drives everything from a :class:`repro.simkernel.Simulator`, so cluster
time is simulated and experiments over hours of queue dynamics run in
milliseconds.
"""

from .gres import GresPool, GresRequest, parse_gres
from .job import Job, JobState, JobSpec
from .jobscript import JobScript, render_jobscript
from .licenses import LicensePool
from .node import Node, NodeState
from .partition import Partition, PreemptMode
from .scheduler import PriorityCalculator, Scheduler
from .slurmctld import SlurmController
from .spank import SpankHook, SpankPlugin, SpankRegistry

__all__ = [
    "GresPool",
    "GresRequest",
    "Job",
    "JobScript",
    "render_jobscript",
    "JobSpec",
    "JobState",
    "LicensePool",
    "Node",
    "NodeState",
    "Partition",
    "PreemptMode",
    "PriorityCalculator",
    "Scheduler",
    "SlurmController",
    "SpankHook",
    "SpankPlugin",
    "SpankRegistry",
    "parse_gres",
]
