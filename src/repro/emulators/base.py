"""Common emulator interface and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import EmulatorError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, breaks a cycle
    from ..qpu.hamiltonian import RydbergHamiltonian
from .noise import NoiseModel

__all__ = ["EmulationResult", "EmulatorBackend", "ReadOnlyMetadata"]


class ReadOnlyMetadata(dict):
    """A finished result's metadata: a dict that refuses edits.  The
    daemon keeps one result per job and hands that same object to
    every in-process reader, and job metadata is read from it, so an
    edit must go to a copy (``dict(metadata)``)."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a finished result's metadata is read-only; edit a copy")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


@dataclass(slots=True)
class EmulationResult:
    """Outcome of one emulated execution.

    ``counts`` maps bitstrings (``'0110'``, qubit 0 leftmost) to shot
    counts.  ``metadata`` carries backend-specific diagnostics (e.g.
    accumulated MPS truncation error) surfaced to the user as per-job
    metadata by the observability layer.
    """

    counts: dict[str, int]
    shots: int
    backend: str
    duration_us: float
    metadata: dict[str, Any] = field(default_factory=dict)

    def probabilities(self) -> dict[str, float]:
        if self.shots == 0:
            return {}
        return {bits: c / self.shots for bits, c in self.counts.items()}

    def expectation_occupation(self) -> np.ndarray:
        """Mean Rydberg occupation per qubit, estimated from counts."""
        if not self.counts:
            raise EmulatorError("no counts to compute occupations from")
        n = len(next(iter(self.counts)))
        occ = np.zeros(n)
        for bits, count in self.counts.items():
            digits = np.frombuffer(bits.encode(), dtype=np.uint8).astype(np.float64)
            occ += count * (digits - ord("0"))
        return occ / max(1, self.shots)

    def most_frequent(self) -> str:
        if not self.counts:
            raise EmulatorError("no counts recorded")
        return max(self.counts.items(), key=lambda kv: (kv[1], kv[0]))[0]


class EmulatorBackend:
    """Abstract emulator: evolve a Rydberg Hamiltonian and sample.

    Subclasses set :attr:`name` and :attr:`max_qubits` and implement
    :meth:`run`: evolve, draw ``shots`` bitstrings, apply the noise
    model, return the counts.  The state-vector emulator forms the full
    2^n distribution; the MPS emulator samples the chain site by site
    without it.  Backends that truncate also override
    :meth:`fidelity_estimate`.
    """

    name = "abstract"
    max_qubits = 0

    def check_size(self, ham: "RydbergHamiltonian") -> None:
        if ham.num_qubits > self.max_qubits:
            raise EmulatorError(
                f"{self.name} supports up to {self.max_qubits} qubits, "
                f"got {ham.num_qubits}"
            )

    def run(
        self,
        ham: "RydbergHamiltonian",
        shots: int,
        rng: np.random.Generator,
        noise: NoiseModel | None = None,
    ) -> EmulationResult:
        raise NotImplementedError

    def fidelity_estimate(self) -> float:
        """Backend's own estimate of result fidelity for the last run
        (1.0 = numerically exact)."""
        return 1.0
