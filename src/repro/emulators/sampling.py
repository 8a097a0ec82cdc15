"""Measurement sampling utilities (vectorized)."""

from __future__ import annotations

import functools

import numpy as np

from ..errors import EmulatorError

__all__ = [
    "bits_to_strings",
    "counts_from_samples",
    "counts_from_states",
    "pack_weights",
    "popcounts",
    "sample_bitstrings",
    "sample_states",
]

#: largest register histogrammed by ``bincount`` over all 2^n outcomes
#: (emu-sv's limit); wider samples are deduplicated by ``np.unique``
_BINCOUNT_MAX_QUBITS = 14


def sample_states(
    probabilities: np.ndarray, shots: int, rng: np.random.Generator, num_qubits: int
) -> np.ndarray:
    """Draw ``shots`` basis states from a 2^n distribution.

    Returns the shuffled (shots,) int64 basis indices (qubit 0 = MSB).
    Uses a single multinomial draw + repeat expansion instead of
    per-shot choice calls (one RNG call, no Python loop), then one
    shuffle so the shots come in random order.
    """
    if shots < 0:
        raise EmulatorError(f"shots must be >= 0, got {shots}")
    dim = probabilities.shape[0]
    if dim != 1 << num_qubits:
        raise EmulatorError(
            f"distribution has {dim} entries, expected {1 << num_qubits}"
        )
    p = np.clip(probabilities.real, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise EmulatorError("probability vector sums to zero")
    p = p / total
    if shots == 0:
        return np.zeros(0, dtype=np.int64)
    counts = rng.multinomial(shots, p)
    states = np.repeat(np.arange(dim, dtype=np.int64), counts)
    rng.shuffle(states)
    return states


def sample_bitstrings(
    probabilities: np.ndarray, shots: int, rng: np.random.Generator, num_qubits: int
) -> np.ndarray:
    """:func:`sample_states` expanded to an (shots, n) uint8 array of
    bits (qubit 0 = MSB = column 0)."""
    states = sample_states(probabilities, shots, rng, num_qubits)
    shifts = np.arange(num_qubits - 1, -1, -1, dtype=np.int64)
    return ((states[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


@functools.cache
def pack_weights(n: int) -> np.ndarray:
    """(n,) int64 bit weights that pack an n-bit row into its basis
    index (column 0 = MSB), for n <= ``_BINCOUNT_MAX_QUBITS``."""
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    weights.flags.writeable = False
    return weights


@functools.cache
def popcounts(n: int) -> np.ndarray:
    """Read-only (2^n,) intp popcount of every n-bit basis index, by
    doubling: setting the top bit of the indices below 2^m adds one."""
    table = np.zeros(1 << n, dtype=np.intp)
    for m in range(n):
        np.add(table[: 1 << m], 1, out=table[1 << m : 2 << m])
    table.flags.writeable = False
    return table


def bits_to_strings(samples: np.ndarray) -> list[str]:
    """Convert an (shots, n) bit array to '0101' strings, vectorized."""
    if samples.ndim != 2:
        raise EmulatorError(f"samples must be 2-D, got shape {samples.shape}")
    if samples.shape[0] == 0:
        return []
    chars = (samples + ord("0")).astype(np.uint8)
    return [row.tobytes().decode("ascii") for row in chars]


@functools.cache
def _labels(n: int) -> list[str]:
    """The n-bit string of every basis index, 0 .. 2^n - 1."""
    return [format(key, f"0{n}b") for key in range(1 << n)]


def counts_from_states(states: np.ndarray, n: int) -> dict[str, int]:
    """Histogram packed n-bit basis indices into a counts dict, keys in
    ascending bitstring order (n <= ``_BINCOUNT_MAX_QUBITS``)."""
    hist = np.bincount(states, minlength=1 << n)
    seen = np.flatnonzero(hist)
    labels = _labels(n)
    return dict(zip([labels[k] for k in seen.tolist()], hist[seen].tolist(), strict=True))


def counts_from_samples(samples: np.ndarray) -> dict[str, int]:
    """Histogram an (shots, n) bit array into a counts dict, keys in
    ascending bitstring order."""
    if samples.shape[0] == 0:
        return {}
    n = samples.shape[1]
    if n <= _BINCOUNT_MAX_QUBITS:
        return counts_from_states(samples @ pack_weights(n), n)
    # Pack rows into integers for fast unique counting.  A plain Python
    # ``1 << 63`` cast through int64 would overflow, so the weights are
    # built in uint64 from the start; that covers exactly n <= 64.
    if n <= 64:
        weights = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
        keys = samples.astype(np.uint64) @ weights
        unique, counts = np.unique(keys, return_counts=True)
        result: dict[str, int] = {}
        for key, count in zip(unique.tolist(), counts.tolist(), strict=True):
            bits = format(int(key), f"0{n}b")
            result[bits] = count
        return result
    # Beyond 64 qubits no integer key fits a machine word: dedupe whole
    # rows instead of packing them.
    unique_rows, counts = np.unique(samples, axis=0, return_counts=True)
    return dict(zip(bits_to_strings(unique_rows), counts.tolist(), strict=True))
