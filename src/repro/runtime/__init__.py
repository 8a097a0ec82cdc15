"""The hybrid runtime environment — the paper's core contribution.

"On top of the QRMI-based Slurm plugin ... we introduce a dedicated
runtime environment tailored for hybrid quantum-classical applications.
... For developers, the runtime provides a consistent interface that
supports transparent switching between high-performance emulators and
physical QPUs." (§3.1)

Pieces:

* :class:`RuntimeEnvironment` — the user-facing object.  One
  interface over **direct** execution (developer laptop: QRMI resources
  executed in-process) and one :class:`~repro.session.Session` to a
  middleware daemon (HPC: its sessions and queue) or a federation
  broker,
* :mod:`backend_select` — the ``--qpu=<resource>`` switching policy,
* :mod:`validation` — point-of-execution program validation against
  freshly fetched device specs (§2.1),
* :mod:`executor` — closed-loop hybrid programs (variational loops),
* :mod:`portability` — machinery proving the same program ran in every
  environment (Figure 1's claim, made checkable),
* :mod:`results` — the uniform run-result container,
* :mod:`client` — the daemon's REST client (``POST /jobs`` and the
  task reads) that a session speaks through.
"""

from .backend_select import select_resource
from .client import DaemonClient
from .environment import RuntimeEnvironment
from .executor import HybridProgram, OptimizerLoop
from .portability import EnvironmentFingerprint, PortabilityReport
from .results import RunResult, total_variation_distance
from .validation import compare_targets, ensure_valid, validate_program
from .workflow import Workflow, WorkflowResult

__all__ = [
    "DaemonClient",
    "EnvironmentFingerprint",
    "HybridProgram",
    "OptimizerLoop",
    "PortabilityReport",
    "RunResult",
    "RuntimeEnvironment",
    "Workflow",
    "WorkflowResult",
    "compare_targets",
    "ensure_valid",
    "select_resource",
    "total_variation_distance",
    "validate_program",
]
