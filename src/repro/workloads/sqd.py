"""Sample-based quantum diagonalization (SQD) style workload — pattern B.

Paper §2.4: "As the machines grow in size the post-processing of
bitstrings become more resource intensive. For example in the recently
introduced Sample-based Quantum Diagonalization approach (SQD), where
the post-processing was parallelized up 6400 nodes on Fugaku."

Shape: ONE quantum sampling burst, then a classical eigenproblem on
the subspace spanned by the sampled configurations.  We really solve
it: the Rydberg-Ising Hamiltonian is projected onto the sampled
bitstring set and diagonalized densely with ``numpy.linalg.eigvalsh``
(the subspace has at most ``max_dim`` rows).
The classical phase dominates (Low-QC / High-CC), and its cost scales
with the subspace dimension — the knob the malleability experiment
(C4) turns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..qpu.geometry import Register
from ..qpu.hamiltonian import interaction_matrix
from ..sdk.ir import AnalogProgram
from .qaa import make_qaa_program

__all__ = ["SQDWorkload", "sqd_postprocess"]


def sqd_postprocess(
    counts: dict[str, int],
    register: Register,
    delta: float = 6.0,
    omega: float = 2.0,
    max_dim: int = 512,
) -> dict:
    """Project H onto the sampled configuration subspace and diagonalize.

    H = sum_{i<j} U_ij n_i n_j - delta sum_i n_i  (diagonal part)
        + (omega/2) sum_i X_i                     (off-diagonal couplings
                                                   between sampled states
                                                   differing by one bit)

    Returns the subspace ground-state energy and diagnostics.
    """
    if not counts:
        raise ReproError("empty counts")
    # most-frequent configurations first, capped
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_dim]
    basis = [bits for bits, _ in ordered]
    index = {bits: i for i, bits in enumerate(basis)}
    dim = len(basis)
    n = len(basis[0])
    u = interaction_matrix(register)

    occ = np.array(
        [np.frombuffer(b.encode(), dtype=np.uint8) - ord("0") for b in basis],
        dtype=np.float64,
    )
    diag = 0.5 * np.einsum("si,ij,sj->s", occ, u, occ) - delta * occ.sum(axis=1)

    h = np.diag(diag)
    nnz = dim
    for i, bits in enumerate(basis):
        # single-bit-flip couplings within the subspace
        for k in range(n):
            flipped = bits[:k] + ("1" if bits[k] == "0" else "0") + bits[k + 1 :]
            j = index.get(flipped)
            if j is not None and j > i:
                h[i, j] = h[j, i] = omega / 2.0
                nnz += 2
    ground = float(np.linalg.eigvalsh(h)[0])
    return {
        "subspace_dim": dim,
        "ground_energy": ground,
        "num_qubits": n,
        "nnz": nnz,
    }


@dataclass
class SQDWorkload:
    """The full pattern-B job description.

    ``classical_seconds(dim)`` models the wall-clock of the distributed
    post-processing (super-linear in subspace dimension), used by the
    cluster experiments; :meth:`run_postprocess` does the real math for
    correctness tests and examples.
    """

    n_atoms: int = 10
    shots: int = 300
    max_dim: int = 256
    classical_base_seconds: float = 120.0

    def quantum_program(self, name: str = "sqd-sampling") -> AnalogProgram:
        return make_qaa_program(
            n_atoms=self.n_atoms, shots=self.shots, duration=3.0, name=name
        )

    def register(self) -> Register:
        return Register.chain(self.n_atoms, spacing=6.0)

    def classical_seconds(self, subspace_dim: int) -> float:
        """Modeled post-processing wall-clock (O(dim^1.5) eigensolve)."""
        return self.classical_base_seconds * (max(1, subspace_dim) / 100.0) ** 1.5

    def run_postprocess(self, counts: dict[str, int]) -> dict:
        return sqd_postprocess(counts, self.register(), max_dim=self.max_dim)
