"""The Rydberg (Ising-type) Hamiltonian of an analog neutral-atom QPU.

    H(t)/hbar = (Omega(t)/2) * sum_i (cos(phi) X_i - sin(phi) Y_i)
              - delta(t) * sum_i n_i
              + sum_{i<j} (C6 / r_ij^6) n_i n_j

with ``n_i = (1 + Z_i)/2`` the Rydberg-state projector.  Everything is
expressed in rad/us and micrometres; ``C6`` defaults to the Pasqal
Fresnel-like value of 5.42e6 rad/us * um^6.

The module exposes:

* :func:`interaction_matrix` — the pairwise U_ij = C6/r^6 couplings,
* :func:`program_hash` — the digest of the physics content a
  Hamiltonian is built from (register + drive schedule), the key of
  every per-program cache,
* :class:`RydbergHamiltonian` — grid-sampled coefficients + helper
  arrays consumed by both emulators (dense diagonal and the
  program-static per-step columns of the Strang kernel -- drive
  half-angles, popcount phases with the drive-phase turns folded in,
  interaction rows -- :class:`FusedDiagonals`, for the state vector
  backend, per-bond couplings for the MPS backend).

Note the structure exploited by the emulators: the interaction +
detuning part is *diagonal* in the computational basis, while the drive
part is a sum of identical single-qubit rotations — so a second-order
Trotter step needs only elementwise phases and one 2x2 rotation applied
to every qubit axis (fully vectorized).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from ..emulators.sampling import popcounts
from ..errors import PulseError, RegisterError
from .geometry import Register
from .pulses import DriveSegment

__all__ = [
    "DEFAULT_C6",
    "FusedDiagonals",
    "RydbergHamiltonian",
    "interaction_matrix",
    "program_hash",
    "rydberg_blockade_radius",
]

#: Default C6 coefficient, rad/us * um^6 (Rb 60S-like).
DEFAULT_C6 = 5.42e6


def program_hash(register: Register, segments: Iterable[DriveSegment]) -> str:
    """SHA-256 of the sorted-key JSON of ``{"register": ..., "segments":
    [...]}`` -- the physics content, without shots or names.  Assembled
    from the parts' memoized :meth:`~Register.canonical_json`, so a
    program's parts are encoded once however often it is hashed."""
    body = ", ".join(seg.canonical_json() for seg in segments)
    blob = f'{{"register": {register.canonical_json()}, "segments": [{body}]}}'
    return hashlib.sha256(blob.encode()).hexdigest()


def interaction_matrix(register: Register, c6: float = DEFAULT_C6) -> np.ndarray:
    """Symmetric U_ij = C6 / r_ij^6 matrix (zero diagonal), vectorized."""
    d = register.distances()
    n = register.num_atoms
    with np.errstate(divide="ignore"):
        u = c6 / d**6
    u[np.arange(n), np.arange(n)] = 0.0
    return u


def rydberg_blockade_radius(omega_max: float, c6: float = DEFAULT_C6) -> float:
    """Blockade radius: distance where U = Omega ( (C6/Omega)^(1/6) )."""
    if omega_max <= 0:
        raise PulseError("omega_max must be positive")
    return float((c6 / omega_max) ** (1.0 / 6.0))


def _fold_pairs(pairs: np.ndarray, combine: np.ufunc, identity: float) -> np.ndarray:
    """``combine`` of ``pairs[..., i, j]`` over the pairs i < j of set
    qubits, for every n-bit basis state (qubit 0 = MSB): (..., 2^n) from
    (..., n, n), of which only the upper triangle is read.

    Built by doubling, the last qubit first.  When qubit k joins, the
    first m = 2^(n-1-k) entries hold the states of qubits k+1..n-1, and
    the *field* row j <= k holds, per such state, ``combine`` of
    pairs[j, i] over its set qubits i.  Setting qubit k combines each
    state with field row k; every row j < k doubles in place with
    pairs[j, k].  The field has n rows of 2^(n-1) entries, but row j is
    touched at width 2^(n-1-j) only, so the build is O(2^n) values in
    O(n) ``combine`` calls and two allocations.
    """
    n = pairs.shape[-1]
    if n > 26:  # 2^26 doubles = 0.5 GB; refuse beyond
        raise RegisterError(f"dense diagonal intractable for n={n}")
    lead = pairs.shape[:-2]
    out = np.empty((*lead, 1 << n), dtype=pairs.dtype)
    out[..., 0] = identity
    field = np.empty((*lead, n, 1 << (n - 1)), dtype=pairs.dtype)
    field[..., 0] = identity
    for k in range(n - 1, -1, -1):
        m = 1 << (n - 1 - k)
        combine(out[..., :m], field[..., k, :m], out=out[..., m : 2 * m])
        if k:
            combine(field[..., :k, :m], pairs[..., :k, k, None], out=field[..., :k, m : 2 * m])
    return out


class FusedDiagonals(NamedTuple):
    """Program-static per-step columns of the dense backend's Strang
    kernel: the fused diagonals ``F_k = D_k^1/2 D_{k+1}^1/2``
    (``F_{K-1} = D_{K-1}^1/2``), where ``D_k^1/2 = exp(-i dt_k/2
    (E_int - delta_k popcount))``, and the drive angles.

    ``F_k`` times the drive-phase turn exp(+i (phi_{k+1} - phi_k)
    popcount) (phi_K = 0) that the kernel commutes out of the drive is
    ``interaction[index[k]]`` times exp(+i (popcount_phase[k] +
    half_sums[k] * offset) popcount) for a detuning offset.
    """

    #: (K,) Omega_k dt_k / 2: the drive half-angle before a Rabi scale
    half_angle: np.ndarray
    #: (K,) (dt_k + dt_{k+1}) / 2, with dt_K = 0
    half_sums: np.ndarray
    #: (K,) (dt_k delta_k + dt_{k+1} delta_{k+1}) / 2 + phi_{k+1} - phi_k,
    #: with dt_K = phi_K = 0
    popcount_phase: np.ndarray
    #: (K,) row of ``interaction`` that step k uses
    index: np.ndarray
    #: (S, 2^n) exp(-i h E_int), one row per distinct half sum h
    interaction: np.ndarray


class RydbergHamiltonian:
    """Grid-sampled Hamiltonian coefficients for a drive schedule.

    Parameters
    ----------
    register:
        Atom geometry.
    segments:
        The drive schedule (one global channel, as on current hardware).
    dt:
        Time step in us; each segment is sampled on its own aligned grid.
    c6:
        Interaction coefficient.
    """

    def __init__(
        self,
        register: Register,
        segments: list[DriveSegment],
        dt: float = 0.01,
        c6: float = DEFAULT_C6,
    ) -> None:
        if not segments:
            raise PulseError("schedule must contain at least one drive segment")
        if dt <= 0:
            raise PulseError(f"dt must be positive, got {dt}")
        self.register = register
        self.segments = list(segments)
        self.dt = dt
        self.c6 = c6
        self.interactions = interaction_matrix(register, c6)

        omega_chunks: list[np.ndarray] = []
        delta_chunks: list[np.ndarray] = []
        phase_chunks: list[np.ndarray] = []
        step_chunks: list[np.ndarray] = []
        for segment in self.segments:
            n_steps = max(1, int(round(segment.duration / dt)))
            step = segment.duration / n_steps
            omega = segment.omega.samples(step)
            delta = segment.delta.samples(step)
            if len(omega) != n_steps or len(delta) != n_steps:
                raise PulseError(
                    f"segment sampled to {len(omega)} omega and {len(delta)} "
                    f"delta values for {n_steps} steps"
                )
            omega_chunks.append(omega)
            delta_chunks.append(delta)
            phase_chunks.append(np.full(n_steps, segment.phase))
            step_chunks.append(np.full(n_steps, step))
        #: Per-step arrays over the whole schedule.
        self.omega = np.concatenate(omega_chunks)
        self.delta = np.concatenate(delta_chunks)
        self.phase = np.concatenate(phase_chunks)
        self.steps = np.concatenate(step_chunks)
        if np.any(self.omega < -1e-12):
            raise PulseError("Rabi amplitude samples must be non-negative")
        # lazy dense-backend helper caches (the coefficients above are
        # fixed at construction, so these never need invalidation)
        self._diag_cache: np.ndarray | None = None
        self._fused_cache: FusedDiagonals | None = None

    @property
    def num_qubits(self) -> int:
        return self.register.num_atoms

    @property
    def total_duration(self) -> float:
        return float(self.steps.sum())

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    # -- helpers for the dense (state-vector) backend -----------------------

    def diagonal_energies(self) -> np.ndarray:
        """Energy of every computational basis state under interactions
        ONLY (float64, length 2^n, cached); detuning is time-dependent
        and added per step.

        E_int[s] = sum_{i<j} U_ij b_i b_j, built by doubling in
        O(2^n) adds (see :func:`_fold_pairs`); no (2^n, n) occupation
        table is formed.
        """
        if self._diag_cache is None:
            self._diag_cache = _fold_pairs(self.interactions, np.add, 0.0)
        return self._diag_cache

    def occupation_table(self) -> np.ndarray:
        """(2^n, n) float array of basis-state occupations (qubit 0 = MSB)."""
        n = self.num_qubits
        dim = 1 << n
        states = np.arange(dim, dtype=np.uint64)
        shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
        return ((states[:, None] >> shifts[None, :]) & 1).astype(np.float64)

    def occupation_counts(self) -> np.ndarray:
        """Read-only integer popcount per basis state (length 2^n),
        shared by every register of this size -- the detuning term's
        coefficient in the dense backend's diagonal phases, and its
        index into the per-popcount phase table."""
        return popcounts(self.num_qubits)

    def fused_diagonals(self) -> FusedDiagonals:
        """The drive half-angles, half step-length sums, popcount phases
        and interaction phases of the Strang kernel, cached.

        The interaction row of a half sum h is exp(-i h E_int), the
        product of the pair phases exp(-i h U_ij) over the set pairs:
        one doubling of complex multiplies per distinct h, with no
        2^n-long sine or cosine.
        """
        if self._fused_cache is None:
            steps = np.append(self.steps, 0.0)
            weighted = np.append(self.steps * self.delta, 0.0)
            half_sums = 0.5 * (steps[:-1] + steps[1:])
            distinct, index = np.unique(half_sums, return_inverse=True)
            angle = -distinct[:, None, None] * self.interactions
            pair_phase = np.empty(angle.shape, dtype=np.complex128)
            np.cos(angle, out=pair_phase.real)
            np.sin(angle, out=pair_phase.imag)
            self._fused_cache = FusedDiagonals(
                half_angle=0.5 * (self.omega * self.steps),
                half_sums=half_sums,
                popcount_phase=(
                    0.5 * (weighted[:-1] + weighted[1:]) + np.diff(self.phase, append=0.0)
                ),
                index=index,
                interaction=_fold_pairs(pair_phase, np.multiply, 1.0),
            )
        return self._fused_cache

    # -- helpers for the MPS backend ---------------------------------------

    def bond_couplings(self, cutoff_radius: float | None = None) -> list[tuple[int, int, float]]:
        """Pairs (i, j, U_ij) kept by the MPS emulator.

        By default keeps pairs within one blockade radius of the maximum
        drive (longer-range tails are truncated — the documented source
        of MPS inaccuracy alongside finite bond dimension).
        """
        if cutoff_radius is None:
            omega_max = float(self.omega.max()) if self.omega.size else 0.0
            if omega_max <= 0:
                cutoff_radius = float("inf")
            else:
                cutoff_radius = 1.5 * rydberg_blockade_radius(omega_max, self.c6)
        pairs = self.register.neighbor_pairs(cutoff_radius)
        return [(i, j, float(self.interactions[i, j])) for i, j in pairs]
