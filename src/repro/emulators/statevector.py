"""Dense state-vector emulator (EMU-SV analogue).

Numerically exact (up to Trotter error) evolution of the Rydberg
Hamiltonian using second-order Strang splitting, one step per grid
interval k:

    U(dt_k) ~= D_k^1/2 * R_k * D_k^1/2

* ``D_k^1/2 = exp(-i dt_k/2 (E_int - delta_k popcount))`` — the
  diagonal part,
* ``R_k`` — the global drive: the same 2x2 rotation ``u`` on every
  qubit (the single-qubit terms commute).  The register splits into
  ceil(n/``_GROUP``) groups of g <= ``_GROUP`` qubits; the Kronecker
  power ``⊗^g`` acts on each in one batched matmul that also cycles
  the group to the back of the register, so the qubit order is
  restored after the last group.

**Fused diagonals.**  Adjacent half-diagonals of consecutive steps
merge, so the evolution is

    F_{K-1} R_{K-1} ... F_1 R_1 F_0 R_0 D_0^1/2 |0...0>,
    F_k = D_k^1/2 D_{k+1}^1/2,   F_{K-1} = D_{K-1}^1/2,

one diagonal per step instead of two.  ``D_0^1/2`` is the identity on
|0...0> (zero interaction energy, zero popcount), so it is never
applied.  ``F_k`` factors into a program-static interaction phase
exp(-i (dt_k + dt_{k+1})/2 E_int) -- one 2^n row per distinct
step-length sum -- times a detuning phase that depends only on the
popcount, so it has n+1 values per (realization, step).

**Phase fold.**  The drive phase phi_k is a popcount phase around a
phase-free rotation: ``u = P_k v P_k^dagger`` with ``P_k = diag(1,
e^{-i phi_k})`` and ``v = exp(-i (theta/2) X)``.  Entry (a, b) of
``⊗^m u`` is therefore ``e^{-i phi pop(a)} X[a, b] e^{+i phi pop(b)}``,
where ``X = ⊗^m v`` has entries c^(m-w) (-i s)^w for the Hamming
distance w of a and b.  The right factor of step k+1 meets the left
factor of step k across the diagonal ``F_k``, and all three are
popcount phases, so they merge: step k applies ``X_k`` and then ``F_k``
times exp(+i (phi_{k+1} - phi_k) popcount), with phi_K = 0.  The first
right factor acts on |0...0> and is the identity, and phi_K = 0 leaves
the final state exact, global phase included.
``RydbergHamiltonian.fused_diagonals`` builds the program-static columns
once per Hamiltonian, in O(2^n) per distinct step-length sum: the drive
half-angle Omega dt / 2, the popcount phase (dt-weighted detunings over
two plus the phase turn) and the half step-length sums that scale a
realization's detuning offset, next to the interaction rows.

**Step operators per chunk.**  The drive tables and detuning phases
are built vectorised over a chunk of steps, capped at ``_TABLE_BUDGET``
complex values.  The detuning phase factors over the groups (the
popcount is a sum over groups), so each group's share is folded into
the columns of its matrix.  Entry (a, b) of a step operator is then the
drive amplitude of the Hamming distance of a and b times the phase of
column b, so each operator is one gather, through a cached (Hamming
distance, column) index, from the (m+1, 2^m) table of those products:

* a single-group register (n <= ``_GROUP``) folds the whole of ``F_k``,
  the interaction phase too, into its matrix: a step is one batched
  matmul;
* a larger register rotates its groups and then multiplies by the
  shared interaction phase row: g matmuls and one multiply per step,
  and no table that grows with 2^n per step.

One kernel evolves every coherent-noise realization at once; the only
Python loops are over time steps and qubit groups (no per-amplitude
Python work).

**Shots in count space.**  ``run`` never expands shots into bit rows.
The multinomial counts become a (shots,) array of packed basis indices
(qubit 0 = MSB), shuffled where the shots are drawn from one
distribution.  SPAM errors draw the same ``rng.random((shots, n))``
masks in the order ``NoiseModel.spam_masks`` fixes; each mask is packed
to one integer per shot and applied as ``&= ~lost``, ``|= up``,
``&= ~down``.  One ``bincount`` then builds the counts.  The RNG
stream is that of the bit-row path, so the counts are too.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import EmulatorError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, breaks a cycle
    from ..qpu.hamiltonian import RydbergHamiltonian
from .base import EmulationResult, EmulatorBackend
from .noise import NoiseModel
from .sampling import counts_from_states, popcounts, sample_states

__all__ = ["StateVectorEmulator"]

#: qubits per drive-rotation group: one (2^g x 2^g) matmul per group
#: replaces g single-qubit ones
_GROUP = 4
#: complex values the per-chunk step tables may hold
_TABLE_BUDGET = 1 << 22


class StateVectorEmulator(EmulatorBackend):
    """Exact dense emulator, practical to ~14 qubits."""

    name = "emu-sv"

    def __init__(self, max_qubits: int = 14) -> None:
        if max_qubits < 1:
            raise EmulatorError("max_qubits must be >= 1")
        self.max_qubits = max_qubits
        self._last_fidelity = 1.0

    # -- evolution ---------------------------------------------------------

    def evolve(
        self,
        ham: "RydbergHamiltonian",
        rabi_scale: float = 1.0,
        detuning_offset: float = 0.0,
    ) -> np.ndarray:
        """Final state vector from |00...0>, optionally with coherent
        noise (scaled Rabi amplitude, shifted detuning)."""
        return self.evolve_many(ham, [rabi_scale], [detuning_offset])[0]

    def probabilities(
        self,
        ham: "RydbergHamiltonian",
        rabi_scale: float = 1.0,
        detuning_offset: float = 0.0,
    ) -> np.ndarray:
        psi = self.evolve(ham, rabi_scale, detuning_offset)
        return np.abs(psi) ** 2

    def evolve_many(
        self,
        ham: "RydbergHamiltonian",
        rabi_scales: np.ndarray,
        detuning_offsets: np.ndarray,
    ) -> np.ndarray:
        """Evolve one state per (rabi_scale, detuning_offset) pair in a
        single batched pass; returns an (R, 2^n) array of final states.

        All realizations share the time grid, so every Strang step is
        one to four batched matmuls and at most one multiply over the
        whole (R, 2^n) batch.  The step tables are built per chunk of
        steps, so they stay within ``_TABLE_BUDGET`` complex values
        however many realizations and steps there are.
        """
        self.check_size(ham)
        scales = np.atleast_1d(np.asarray(rabi_scales, dtype=np.float64))
        offsets = np.atleast_1d(np.asarray(detuning_offsets, dtype=np.float64))
        if scales.shape != offsets.shape:
            raise EmulatorError(
                f"rabi_scales {scales.shape} and detuning_offsets "
                f"{offsets.shape} must align"
            )
        n = ham.num_qubits
        dim = 1 << n
        reals = scales.shape[0]
        fused = ham.fused_diagonals()
        sizes = _group_sizes(n)
        half_angle = np.outer(fused.half_angle, scales)                              # (K, R)
        weight = fused.popcount_phase[:, None] + np.outer(fused.half_sums, offsets)  # (K, R)
        levels = np.arange(sizes[0] + 1)
        # a quarter of the budget per chunk: the previous chunk's tables
        # are still alive while the next chunk's are built
        chunk = max(1, _TABLE_BUDGET // (4 * reals * 4 ** sizes[0]))

        interaction = fused.interaction.reshape(-1, dim >> sizes[-1], 1 << sizes[-1])
        psi = np.zeros((reals, 1, dim), dtype=np.complex128)
        psi[..., 0] = 1.0
        for start in range(0, ham.num_steps, chunk):
            window = slice(start, start + chunk)
            # exp(+i weight c) for popcounts c = 0..g: (steps, R, g+1)
            detuning = _cis(weight[window, :, None] * levels)
            amplitudes = _drive_amplitudes(half_angle[window], sizes)
            if len(sizes) == 1:
                # fold all of F_k into the columns of (⊗u)^T: a step is one matmul
                columns = detuning.take(popcounts(n), axis=-1)
                columns *= fused.interaction[fused.index[window], None, :]
                for op in _step_operators(amplitudes[n], columns):
                    psi = np.matmul(psi, op)
            else:
                # the detuning phase factors over the groups: fold each
                # group's share into its matrix, leaving the shared
                # interaction phase as the one multiply per step
                ops = {
                    size: _step_operators(amp, detuning.take(popcounts(size), axis=-1))
                    for size, amp in amplitudes.items()
                }
                for j, row in enumerate(fused.index[window]):
                    for size in sizes:
                        # (R, M, 2^size) @ (⊗^size u)^T: rotates the leading
                        # group and cycles it to the back in one matmul
                        lead = psi.reshape(reals, 1 << size, -1).transpose(0, 2, 1)
                        psi = np.matmul(lead, ops[size][j])
                    # the last matmul restored the qubit order: psi is
                    # (R, 2^(n - last), 2^last), like ``interaction``'s rows
                    psi *= interaction[row]
        return psi.reshape(reals, dim)

    def probabilities_many(
        self,
        ham: "RydbergHamiltonian",
        rabi_scales: np.ndarray,
        detuning_offsets: np.ndarray,
    ) -> np.ndarray:
        psi = self.evolve_many(ham, rabi_scales, detuning_offsets)
        return np.abs(psi) ** 2

    # -- execution -----------------------------------------------------------

    def run(
        self,
        ham: "RydbergHamiltonian",
        shots: int,
        rng: np.random.Generator,
        noise: NoiseModel | None = None,
    ) -> EmulationResult:
        if shots < 0:
            raise EmulatorError(f"shots must be >= 0, got {shots}")
        self.check_size(ham)
        n = ham.num_qubits
        if noise is None or not noise.has_coherent_noise:
            states = sample_states(self.probabilities(ham), shots, rng, n)
        elif shots == 0:
            states = np.zeros(0, dtype=np.int64)
        else:
            # Split the shot budget across coherent noise realizations:
            # one batched evolution, one batched multinomial.  Counts
            # are order-invariant and SPAM errors are i.i.d. per shot,
            # so no per-chunk shuffle is needed.
            reals = min(noise.noise_realizations, shots)
            base, extra = divmod(shots, reals)
            chunk_shots = np.full(reals, base, dtype=np.int64)
            chunk_shots[:extra] += 1
            scales, offsets = noise.draw_realizations(rng, reals)
            probs = self.probabilities_many(ham, scales, offsets)
            probs = np.clip(probs, 0.0, None)
            totals = probs.sum(axis=1, keepdims=True)
            if np.any(totals <= 0):
                raise EmulatorError("probability vector sums to zero")
            counts = rng.multinomial(chunk_shots, probs / totals)
            states = np.repeat(np.arange(1 << n), counts.sum(axis=0))
        if noise is not None:
            states = noise.apply_spam_packed(states, n, rng)
        self._last_fidelity = 1.0
        return EmulationResult(
            counts=counts_from_states(states, n),
            shots=shots,
            backend=self.name,
            duration_us=ham.total_duration,
            metadata={"num_steps": ham.num_steps, "exact": noise is None or noise.is_trivial},
        )

    def fidelity_estimate(self) -> float:
        return self._last_fidelity


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(i x) for real x, from one cos and one sin (cheaper than the
    complex exp, and the same values)."""
    out = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


@functools.cache
def _group_sizes(n: int) -> tuple[int, ...]:
    """ceil(n / ``_GROUP``) drive groups of near-equal size, largest first."""
    groups = -(-n // _GROUP)
    return tuple(n // groups + (g < n % groups) for g in range(groups))


@functools.cache
def _hamming_columns(m: int) -> np.ndarray:
    """(2^m, 2^m) flat index w 2^m + b into an (m+1, 2^m) table, with
    w = popcount(a ^ b) the Hamming distance of the m-bit basis indices
    a and b."""
    index = np.arange(1 << m)
    distance = popcounts(m)[np.bitwise_xor.outer(index, index)]
    columns = (distance << m) + index
    columns.flags.writeable = False
    return columns


#: (-i)^w for w = 0.._GROUP
_MINUS_I_POWERS = (-1j) ** np.arange(_GROUP + 1)


def _drive_amplitudes(half_angle: np.ndarray, sizes: tuple[int, ...]) -> dict:
    """The m+1 distinct entries of the phase-free Kronecker power
    ``⊗^m v`` of the drive rotation per (step, realization), for each
    group size m in ``sizes``; entry m has shape (K, R, m+1).

    v = exp(-i t X) = [[c, -i s], [-i s, c]] with c = cos t and
    s = sin t for the half-angle t, so entry (a, b) of ``⊗^m v`` is
    amplitude w = c^(m-w) (-i s)^w, w the Hamming distance of a and b.
    The power is symmetric, so it is its own transpose.  The drive
    phase is not in the amplitudes: the kernel commutes it into the
    popcount phase.
    """
    top = sizes[0]
    e = np.arange(top + 1)
    cos = np.cos(half_angle)[..., None] ** e                     # (K, R, top+1)
    sin = np.sin(half_angle)[..., None] ** e
    amplitudes = {}
    for m in set(sizes):
        w = e[: m + 1]
        amplitudes[m] = cos[..., m - w] * sin[..., w] * _MINUS_I_POWERS[w]
    return amplitudes


def _step_operators(amplitudes: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(K, R, 2^m, 2^m) step operators ``(⊗^m v) diag(columns)``: entry
    (a, b) is amplitude[w] * columns[b], w the Hamming distance of a
    and b, gathered in one pass from the (m+1, 2^m) table of products.
    Equal bit for bit to gathering ``⊗^m v`` and then scaling its
    columns: each entry is the same one product."""
    m = amplitudes.shape[-1] - 1
    table = amplitudes[..., :, None] * columns[..., None, :]     # (K, R, m+1, 2^m)
    flat = table.reshape(*table.shape[:-2], -1)
    return flat.take(_hamming_columns(m), axis=-1)
