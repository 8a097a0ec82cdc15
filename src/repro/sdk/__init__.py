"""Multi-SDK front ends over a shared analog IR.

Paper §2.3.1: "A single quantum processing unit (QPU) may be
programmable through multiple SDKs ... QPUs by Pasqal can currently be
accessed via Pulser, Qiskit, CUDA-Q, and Qaptiva/QLM", and the paper's
architecture makes these SDKs "first-class citizens" by unifying them
behind the QRMI-based runtime.

We reproduce that structure with two deliberately different front ends:

* :mod:`pulser_like` — pulse-level analog sequences (the native idiom),
* :mod:`qiskit_like` — a circuit-builder idiom with named analog
  "gates" that lower to pulse schedules,

both producing the same :class:`~repro.sdk.ir.AnalogProgram` IR, which
is what QRMI tasks carry and emulators/QPUs execute.  The
:mod:`registry` makes SDKs discoverable/pluggable so the daemon can
enumerate supported SDKs per device.
"""

from .ir import AnalogProgram, DecodedParts
from .pulser_like import Pulse, Sequence
from .qiskit_like import AnalogCircuit
from .registry import SDKRegistry, default_registry
from .translate import lower_to_hamiltonian, to_ir

__all__ = [
    "AnalogCircuit",
    "AnalogProgram",
    "DecodedParts",
    "Pulse",
    "SDKRegistry",
    "Sequence",
    "default_registry",
    "lower_to_hamiltonian",
    "to_ir",
]
