"""Atom register geometry.

A register is a set of atom positions in the plane (micrometres).
Neutral-atom devices impose geometric constraints the runtime must
validate *against current device specs* before execution (paper §2.1:
"device parameters significantly affect program semantics"):

* minimum pairwise distance (optical tweezer separation),
* maximum distance from the register centre (field of view),
* maximum atom count.

Factory layouts cover the standard experiment geometries: chain, ring,
square and triangular lattices.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import RegisterError

__all__ = ["Register"]


class Register:
    """Immutable set of named atom positions (um)."""

    def __init__(self, positions: np.ndarray, labels: list[str] | None = None) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise RegisterError(f"positions must be (N, 2), got {positions.shape}")
        if positions.shape[0] == 0:
            raise RegisterError("register must contain at least one atom")
        self._positions = positions.copy()
        self._positions.setflags(write=False)
        if labels is None:
            labels = [f"q{i}" for i in range(len(positions))]
        if len(labels) != len(positions):
            raise RegisterError(
                f"{len(labels)} labels for {len(positions)} atoms"
            )
        if len(set(labels)) != len(labels):
            raise RegisterError("atom labels must be unique")
        self.labels = list(labels)

    # -- constructors -----------------------------------------------------

    @classmethod
    def chain(cls, n: int, spacing: float = 6.0) -> "Register":
        """Linear chain of ``n`` atoms, ``spacing`` um apart, centred at 0."""
        if n < 1:
            raise RegisterError("chain needs n >= 1")
        xs = (np.arange(n) - (n - 1) / 2.0) * spacing
        return cls(np.column_stack([xs, np.zeros(n)]))

    @classmethod
    def ring(cls, n: int, spacing: float = 6.0) -> "Register":
        """Ring of ``n`` atoms with nearest-neighbour arc ``spacing`` um."""
        if n < 2:
            raise RegisterError("ring needs n >= 2")
        radius = spacing / (2.0 * np.sin(np.pi / n))
        angles = 2.0 * np.pi * np.arange(n) / n
        return cls(np.column_stack([radius * np.cos(angles), radius * np.sin(angles)]))

    @classmethod
    def square_lattice(cls, rows: int, cols: int, spacing: float = 6.0) -> "Register":
        if rows < 1 or cols < 1:
            raise RegisterError("lattice needs rows, cols >= 1")
        ys, xs = np.mgrid[0:rows, 0:cols]
        pos = np.column_stack([xs.ravel() * spacing, ys.ravel() * spacing]).astype(float)
        pos -= pos.mean(axis=0)
        return cls(pos)

    @classmethod
    def triangular_lattice(cls, rows: int, cols: int, spacing: float = 6.0) -> "Register":
        if rows < 1 or cols < 1:
            raise RegisterError("lattice needs rows, cols >= 1")
        points = []
        for r in range(rows):
            for c in range(cols):
                x = c * spacing + (r % 2) * spacing / 2.0
                y = r * spacing * np.sqrt(3.0) / 2.0
                points.append((x, y))
        pos = np.asarray(points)
        pos -= pos.mean(axis=0)
        return cls(pos)

    @classmethod
    def from_coordinates(cls, coords: list[tuple[float, float]], labels: list[str] | None = None) -> "Register":
        return cls(np.asarray(coords, dtype=float), labels)

    # -- queries ---------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def num_atoms(self) -> int:
        return self._positions.shape[0]

    def __len__(self) -> int:
        return self.num_atoms

    def distances(self) -> np.ndarray:
        """Pairwise distance matrix (um), vectorized."""
        diff = self._positions[:, None, :] - self._positions[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))

    def min_distance(self) -> float:
        if self.num_atoms < 2:
            return float("inf")
        d = self.distances()
        return float(d[np.triu_indices(self.num_atoms, k=1)].min())

    def max_radius(self) -> float:
        """Largest distance of any atom from the register centroid."""
        centred = self._positions - self._positions.mean(axis=0)
        return float(np.sqrt((centred**2).sum(axis=1)).max())

    def neighbor_pairs(self, cutoff: float) -> list[tuple[int, int]]:
        """Index pairs closer than ``cutoff`` um (used by the MPS emulator
        to decide which interactions to keep)."""
        d = self.distances()
        i_idx, j_idx = np.triu_indices(self.num_atoms, k=1)
        mask = d[i_idx, j_idx] <= cutoff
        return list(zip(i_idx[mask].tolist(), j_idx[mask].tolist(), strict=True))

    def to_dict(self) -> dict:
        return {
            "positions": self._positions.tolist(),
            "labels": list(self.labels),
        }

    def canonical_json(self) -> str:
        """:meth:`to_dict` as sorted-key JSON, encoded once: the register
        is immutable, so every program hash and cache key that covers
        it reuses the string."""
        cached = getattr(self, "_json", None)
        if cached is None:
            cached = self._json = json.dumps(self.to_dict(), sort_keys=True)
        return cached

    @classmethod
    def from_dict(cls, data: dict) -> "Register":
        return cls(np.asarray(data["positions"], dtype=float), list(data["labels"]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Register):
            return NotImplemented
        return (
            self.labels == other.labels
            and self._positions.shape == other._positions.shape
            and bool(np.allclose(self._positions, other._positions))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Register({self.num_atoms} atoms, min_dist={self.min_distance():.2f}um)"
