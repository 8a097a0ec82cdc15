"""Dense state-vector emulator (EMU-SV analogue).

Numerically exact (up to Trotter error) evolution of the Rydberg
Hamiltonian using second-order Strang splitting:

    U(dt) ~= D(dt/2) * R(dt) * D(dt/2)

* ``D`` — the diagonal part, factored as exp(-i dt/2 E_int), one 2^n
  phase per step length, times exp(+i dt/2 delta_k popcount), which has
  only n+1 distinct values per (realization, step) and so is a gather,
* ``R`` — the global drive: the same 2x2 rotation ``u`` on every qubit
  (the single-qubit terms commute).  The register splits into
  ceil(n/``_GROUP``) groups of g <= ``_GROUP`` qubits; the Kronecker
  power ``⊗^g u`` acts on each in one batched matmul that also cycles
  the group to the back of the register, so the qubit order is restored
  after the last group.

One kernel evolves every coherent-noise realization at once; the only
Python loops are over time steps and qubit groups (no per-amplitude
Python work).
"""

from __future__ import annotations

import numpy as np

from ..errors import EmulatorError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, breaks a cycle
    from ..qpu.hamiltonian import RydbergHamiltonian
from .base import EmulationResult, EmulatorBackend
from .noise import NoiseModel
from .sampling import counts_from_samples, sample_bitstrings

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

        All realizations share the time grid, so every Strang step is a
        handful of NumPy calls over the whole (R, 2^n) batch.  The step
        tables (detuning phases, drive Kronecker powers) are built per
        chunk of steps, so they stay within ``_TABLE_BUDGET`` complex
        values however many realizations and steps there are.
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
        steps = ham.steps

        e_int = ham.diagonal_energies()
        occ = ham.occupation_counts()
        delta = ham.delta[None, :] + offsets[:, None]            # (R, K)
        theta = np.outer(scales, ham.omega) * steps[None, :]     # (R, K)
        rotate = np.any(theta != 0.0, axis=0)                    # per step
        # ceil(n / _GROUP) groups of near-equal size, largest first
        groups = -(-n // _GROUP)
        sizes = [n // groups + (g < n % groups) for g in range(groups)]
        # a quarter of the budget per chunk: the previous chunk's tables
        # are still alive while the next chunk's are built
        chunk = max(1, _TABLE_BUDGET // (4 * reals * 4 ** sizes[0]))

        psi = np.zeros((reals, dim), dtype=np.complex128)
        psi[:, 0] = 1.0
        dt = None
        for k in range(ham.num_steps):
            j = k % chunk
            if j == 0:
                window = slice(k, k + chunk)
                # exp(+i dt/2 delta c) for every popcount c = 0..n
                detuning = np.exp(
                    (0.5j * steps[window] * delta[:, window])[..., None]
                    * np.arange(n + 1)
                )
                kron = _drive_kron_powers(theta[:, window], ham.phase[window], sizes)
            if steps[k] != dt:
                dt = steps[k]
                interaction = np.exp(-0.5j * dt * e_int)
            half = detuning[:, j].take(occ, axis=1)
            half *= interaction
            psi *= half
            if rotate[k]:
                for size in sizes:
                    # (R, M, 2^size) @ (⊗^size u)^T: rotates the leading
                    # group and cycles it to the back in one matmul
                    lead = psi.reshape(reals, 1 << size, -1).transpose(0, 2, 1)
                    psi = np.matmul(lead, kron[size][:, j]).reshape(reals, dim)
            psi *= half
        return psi

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
        self.check_size(ham)
        n = ham.num_qubits
        if noise is None or noise.is_trivial:
            probs = self.probabilities(ham)
            samples = sample_bitstrings(probs, shots, rng, n)
        elif not noise.has_coherent_noise:
            probs = self.probabilities(ham)
            samples = sample_bitstrings(probs, shots, rng, n)
            samples = noise.apply_spam(samples, rng)
        elif shots == 0:
            samples = np.zeros((0, n), dtype=np.uint8)
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
            states = np.repeat(
                np.arange(1 << n, dtype=np.uint64), counts.sum(axis=0)
            )
            shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
            samples = ((states[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
            samples = noise.apply_spam(samples, rng)
        self._last_fidelity = 1.0
        return EmulationResult(
            counts=counts_from_samples(samples),
            shots=shots,
            backend=self.name,
            duration_us=ham.total_duration,
            metadata={"num_steps": ham.num_steps, "exact": noise is None or noise.is_trivial},
        )

    def fidelity_estimate(self) -> float:
        return self._last_fidelity


def _drive_kron_powers(theta: np.ndarray, phase: np.ndarray, sizes: list[int]) -> dict:
    """Transposed Kronecker powers ``(⊗^m u)^T`` of the drive rotation
    exp(-i (theta/2) (cos(phi) X - sin(phi) Y)) per (realization, step),
    for each group size m in ``sizes``; entry m has shape (R, K, 2^m, 2^m).

    u is su(2):  [[c, x], [y, c]] = [[cos(t/2), -i e^{i phi} sin(t/2)],
                                     [-i e^{-i phi} sin(t/2), cos(t/2)]],
    so entry (a, b) of ``⊗^m u`` is c^(m-p-q) x^p y^q, with p (q) the
    number of qubits where a has 0 (1) and b has 1 (0): a gather from
    the (m+1)^2 such products instead of m-1 outer products.
    """
    c = np.cos(0.5 * theta)[..., None, None]
    s = np.sin(0.5 * theta)[..., None, None]
    eip = np.exp(1j * phase)[:, None, None]
    x = -1j * eip * s
    y = -1j * eip.conj() * s
    powers = {}
    for m in set(sizes):
        e = np.arange(m + 1)
        p, q = e[:, None], e[None, :]
        table = c ** np.maximum(m - p - q, 0) * x**p * y**q
        bits = (np.arange(1 << m)[:, None] >> e[:m]) & 1
        # transposed: entry (a, b) of (⊗u)^T is entry (b, a) of ⊗u
        p_ab = (bits[:, None, :] & (1 - bits[None, :, :])).sum(axis=-1)
        q_ab = ((1 - bits[:, None, :]) & bits[None, :, :]).sum(axis=-1)
        flat = table.reshape(theta.shape + ((m + 1) ** 2,))
        powers[m] = flat.take(p_ab * (m + 1) + q_ab, axis=-1)
    return powers
