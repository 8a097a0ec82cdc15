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
  restored after the last group.  Registers of ``_GROUP`` + 1 to
  ``_HADAMARD_MAX`` qubits step in the Hadamard basis instead (below).

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
  matmul, and the first step's result is row 0 of its operator;
* a register beyond ``_HADAMARD_MAX`` rotates its groups and then
  multiplies by the shared interaction phase row: g matmuls and one
  multiply per step, and no table that grows with 2^n per step.

**Hadamard basis.**  Registers of ``_GROUP`` + 1 to ``_HADAMARD_MAX``
qubits (5 and 6) skip the group rotations.  v has eigenvalues
e^{-it} on |+> and e^{+it} on |->, so

    ⊗^n v = H diag(λ) H / 2^n,   λ_y = exp(-i t (n - 2 pop(y))),

with H the ±1 Sylvester Hadamard matrix and t the half-angle.  A step
is then ``H psi``, ``*= λ_k``, ``(H / 2^n) psi``, ``*= F_k``: two GEMMs
against one cached real H and two multiplies, with λ and the F_k
columns each one popcount ``take`` per chunk.  The state is held as
(2^n, R), so its float view (2^n, 2R) carries the real and imaginary
parts of every realization through one real GEMM.  The step costs
O(4^n) against the groups' O(2^n 2^g), so it wins only while NumPy
call overhead dominates: measured per call (R=4, 32 steps, 2-vCPU
Xeon, one BLAS thread), 5 atoms ~460 -> ~200 µs and 6 atoms ~460 ->
~310 µs; 7 atoms tie and 8 lose by 2x.  On one-group registers it
loses to the fold.

One kernel evolves every coherent-noise realization at once; the only
Python loops are over time steps and qubit groups (no per-amplitude
Python work).

**Shots in count space.**  ``run`` never expands shots into bit rows.
The multinomial counts become a (shots,) array of packed basis indices
(qubit 0 = MSB), shuffled where the shots are drawn from one
distribution.  SPAM errors draw the masks ``NoiseModel.spam_masks``
fixes: one ``rng.random((k, shots, n))`` block for the k nonzero
rates, the values of k sequential ``(shots, n)`` draws.  One matmul
packs the masks to one integer per shot each, applied as ``&= ~lost``,
``|= up``, ``&= ~down``.  One ``bincount`` then builds the counts.
The RNG stream is that of the bit-row path, so the counts are too.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import EmulatorError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, breaks a cycle
    from ..qpu.hamiltonian import FusedDiagonals, RydbergHamiltonian
from .base import EmulationResult, EmulatorBackend
from .noise import NoiseModel
from .sampling import basis_states, counts_from_states, popcounts, sample_states

__all__ = ["StateVectorEmulator"]

#: qubits per drive-rotation group: one (2^g x 2^g) matmul per group
#: replaces g single-qubit ones
_GROUP = 4
#: largest register that steps in the Hadamard basis; larger ones
#: rotate their drive groups (one-group registers always fold)
_HADAMARD_MAX = 6
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
        one to four matmuls and at most two multiplies over the whole
        (R, 2^n) batch.  The step tables are built per chunk of steps,
        so they stay within ``_TABLE_BUDGET`` complex values however
        many realizations and steps there are.
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
        fused = ham.fused_diagonals()
        half_angle = fused.half_angle[:, None] * scales                              # (K, R)
        weight = fused.popcount_phase[:, None] + fused.half_sums[:, None] * offsets  # (K, R)
        if n <= _GROUP:
            kernel = _evolve_folded
        elif n <= _HADAMARD_MAX:
            kernel = _evolve_hadamard
        else:
            kernel = _evolve_grouped
        return kernel(fused, n, half_angle, weight)

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
            chunk_shots = [base + 1] * extra + [base] * (reals - extra)
            scales, offsets = noise.draw_realizations(rng, reals)
            probs = self.probabilities_many(ham, scales, offsets)
            totals = probs.sum(axis=1, keepdims=True)
            if totals.min() <= 0:
                raise EmulatorError("probability vector sums to zero")
            probs /= totals
            counts = rng.multinomial(chunk_shots, probs)
            states = np.repeat(basis_states(n), counts.sum(axis=0))
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


def _chunk(reals: int, entries: int) -> int:
    """Steps per table chunk when each step's tables hold ``entries``
    complex values per realization: a quarter of the budget, since the
    previous chunk's tables are still alive while the next are built."""
    return max(1, _TABLE_BUDGET // (4 * reals * entries))


def _evolve_folded(
    fused: "FusedDiagonals", n: int, half_angle: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """One drive group (n <= ``_GROUP``): all of F_k folds into the
    columns of (⊗u)^T, so a step is one batched matmul."""
    steps, reals = half_angle.shape
    levels = np.arange(n + 1)
    chunk = _chunk(reals, 4**n)
    psi = None
    for start in range(0, steps, chunk):
        window = slice(start, start + chunk)
        # exp(+i weight c) for popcounts c = 0..n: (steps, R, n+1)
        columns = _cis(weight[window, :, None] * levels).take(popcounts(n), axis=-1)
        columns *= fused.interaction[fused.index[window], None, :]
        amplitudes = _drive_amplitudes(half_angle[window], (n,))[n]
        for op in _step_operators(amplitudes, columns):
            # the first step acts on |0...0>: its result is row 0 of op
            psi = op[:, :1] if psi is None else np.matmul(psi, op)
    return psi.reshape(reals, 1 << n)


def _evolve_hadamard(
    fused: "FusedDiagonals", n: int, half_angle: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Steps in the Hadamard basis: ``⊗^n v = H diag(λ) H / 2^n`` with
    λ_y = exp(-i t (n - 2 pop(y))), so a step is ``H psi``, ``*= λ_k``,
    ``H / 2^n``, ``*= F_k``: two real GEMMs and two multiplies.  The
    state is held as (2^n, R), so its float view (2^n, 2R) carries every
    realization's real and imaginary parts through one GEMM with the
    real H."""
    steps, reals = half_angle.shape
    forward, back = _hadamard(n)
    counts = popcounts(n)
    # 2c - n and c for popcounts c = 0..n: λ = exp(+i t (2c - n))
    turns = np.arange(-n, n + 1, 2)[:, None]
    levels = np.arange(n + 1)[:, None]
    psi = np.zeros((1 << n, reals), dtype=np.complex128)
    psi[0] = 1.0
    rotated = np.empty_like(psi)
    psi_parts, rotated_parts = psi.view(np.float64), rotated.view(np.float64)
    chunk = _chunk(reals, 2 << n)
    for start in range(0, steps, chunk):
        window = slice(start, start + chunk)
        # (steps, 2^n, R) drive eigenphases and F_k columns
        rotations = _cis(half_angle[window, None, :] * turns).take(counts, axis=1)
        columns = _cis(weight[window, None, :] * levels).take(counts, axis=1)
        columns *= fused.interaction[fused.index[window], :, None]
        for rotation, column in zip(rotations, columns, strict=True):
            np.matmul(forward, psi_parts, out=rotated_parts)
            rotated *= rotation
            np.matmul(back, rotated_parts, out=psi_parts)
            psi *= column
    return psi.T.copy()


def _evolve_grouped(
    fused: "FusedDiagonals", n: int, half_angle: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Drive groups of at most ``_GROUP`` qubits: the detuning phase
    factors over the groups, so each group's share folds into its
    matrix and the shared interaction phase is the one multiply per
    step."""
    steps, reals = half_angle.shape
    dim = 1 << n
    sizes = _group_sizes(n)
    levels = np.arange(sizes[0] + 1)
    chunk = _chunk(reals, 4 ** sizes[0])
    interaction = fused.interaction.reshape(-1, dim >> sizes[-1], 1 << sizes[-1])
    psi = np.zeros((reals, 1, dim), dtype=np.complex128)
    psi[..., 0] = 1.0
    for start in range(0, steps, chunk):
        window = slice(start, start + chunk)
        # exp(+i weight c) for popcounts c = 0..g: (steps, R, g+1)
        detuning = _cis(weight[window, :, None] * levels)
        ops = {
            size: _step_operators(amp, detuning.take(popcounts(size), axis=-1))
            for size, amp in _drive_amplitudes(half_angle[window], sizes).items()
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


@functools.cache
def _hadamard(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ±1 Sylvester Hadamard matrix ``H = ⊗^n [[1, 1],
    [1, -1]]``, entry (a, b) = (-1)^pop(a & b), and ``H / 2^n`` (a
    power-of-two scale, so exact)."""
    index = np.arange(1 << n)
    parity = popcounts(n)[np.bitwise_and.outer(index, index)] & 1
    forward = (1.0 - 2.0 * parity)
    back = forward / (1 << n)
    forward.flags.writeable = False
    back.flags.writeable = False
    return forward, back


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
