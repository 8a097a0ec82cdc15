"""Noise model shared by the emulators and the QPU device.

Covers the dominant error channels of analog neutral-atom hardware at
the level relevant to this paper (result distributions, not process
tomography):

* **SPAM**: state-preparation error ``eta`` (an atom starts in the
  Rydberg state / is lost), detection false positive ``epsilon``
  (ground read as excited) and false negative ``epsilon_prime``,
* **amplitude fluctuation**: per-realization relative Rabi scale error,
* **detuning offset**: per-realization additive detuning error.

Amplitude/detuning noise requires re-evolving the state; emulators
amortize this by drawing ``noise_realizations`` parameter sets and
splitting the shot budget across them.

The QPU device derives a NoiseModel from its *current calibration
state* (see :mod:`repro.qpu.calibration`), which is how calibration
drift becomes visible in user results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import EmulatorError
from .sampling import pack_weights

__all__ = ["NoiseModel"]


@dataclass(frozen=True)
class NoiseModel:
    """Parametrized hardware noise; all rates dimensionless, offsets rad/us."""

    state_prep_error: float = 0.0
    detection_epsilon: float = 0.0        # P(read 1 | actual 0)
    detection_epsilon_prime: float = 0.0  # P(read 0 | actual 1)
    amplitude_rel_std: float = 0.0        # relative sigma of Rabi scale
    detuning_std: float = 0.0             # additive detuning sigma (rad/us)
    noise_realizations: int = 4

    def __post_init__(self) -> None:
        for name in ("state_prep_error", "detection_epsilon", "detection_epsilon_prime"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise EmulatorError(f"{name} must be a probability, got {value}")
        if self.amplitude_rel_std < 0 or self.detuning_std < 0:
            raise EmulatorError("noise sigmas must be non-negative")
        if self.noise_realizations < 1:
            raise EmulatorError("noise_realizations must be >= 1")

    @property
    def is_trivial(self) -> bool:
        return (
            self.state_prep_error == 0.0
            and self.detection_epsilon == 0.0
            and self.detection_epsilon_prime == 0.0
            and self.amplitude_rel_std == 0.0
            and self.detuning_std == 0.0
        )

    @property
    def has_coherent_noise(self) -> bool:
        """True when per-realization re-evolution is required."""
        return self.amplitude_rel_std > 0.0 or self.detuning_std > 0.0

    def draw_realization(self, rng: np.random.Generator) -> tuple[float, float]:
        """Sample (rabi_scale, detuning_offset) for one coherent realization."""
        scale = 1.0
        if self.amplitude_rel_std > 0:
            scale = max(0.0, 1.0 + rng.normal(0.0, self.amplitude_rel_std))
        offset = rng.normal(0.0, self.detuning_std) if self.detuning_std > 0 else 0.0
        return scale, offset

    def draw_realizations(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``count`` (rabi_scale, detuning_offset) pairs in two
        vectorized draws (all scales, then all offsets) — the batched
        emulator paths consume whole realization sets at once."""
        if count < 1:
            raise EmulatorError(f"realization count must be >= 1, got {count}")
        if self.amplitude_rel_std > 0:
            scales = np.maximum(
                0.0, 1.0 + rng.normal(0.0, self.amplitude_rel_std, count)
            )
        else:
            scales = np.ones(count)
        if self.detuning_std > 0:
            offsets = rng.normal(0.0, self.detuning_std, count)
        else:
            offsets = np.zeros(count)
        return scales, offsets

    def spam_masks(
        self, rng: np.random.Generator, shots: int, n: int
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """The SPAM error masks of ``shots`` readouts of n atoms and the
        bit each sets: lost (state preparation) 0, up (false positive)
        1, down (false negative) 0, in that draw order, skipping a zero
        rate.  The k masks are one (k, shots, n) bool block from one
        ``rng.random((k, shots, n))`` call, which yields the values of k
        sequential ``(shots, n)`` draws.  Every SPAM path draws here, so
        bit rows and packed states consume the RNG stream identically."""
        live = [
            (rate, bit)
            for rate, bit in (
                (self.state_prep_error, 0),
                (self.detection_epsilon, 1),
                (self.detection_epsilon_prime, 0),
            )
            if rate > 0
        ]
        if not live:
            return np.zeros((0, shots, n), dtype=bool), ()
        rates, bits = zip(*live, strict=True)
        masks = rng.random((len(rates), shots, n)) < np.array(rates)[:, None, None]
        return masks, bits

    def apply_spam(self, samples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply SPAM errors to an (shots, n) 0/1 sample array, vectorized.

        State-prep errors are modeled as pre-measurement bit resets to 0
        followed by detection confusion (a lost atom reads as ground).
        A false positive only raises a 0 and a false negative only
        lowers a 1, so each mask is a plain assignment.
        """
        if samples.size == 0:
            return samples
        out = samples.astype(np.uint8, copy=True)
        masks, bits = self.spam_masks(rng, *out.shape)
        for mask, bit in zip(masks, bits, strict=True):
            out[mask] = bit
        return out

    def apply_spam_packed(
        self, states: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """:meth:`apply_spam` on packed (shots,) n-bit basis indices
        (qubit 0 = MSB): the same draws, the masks packed to one integer
        per shot in one matmul and applied as ``&= ~lost``, ``|= up``,
        ``&= ~down``."""
        if states.size == 0:
            return states
        masks, bits = self.spam_masks(rng, states.shape[0], n)
        for packed, bit in zip(masks @ pack_weights(n), bits, strict=True):
            states = states | packed if bit else states & ~packed
        return states

    def scaled(self, factor: float) -> "NoiseModel":
        """A proportionally degraded copy (used by drift experiments)."""
        if factor < 0:
            raise EmulatorError("scale factor must be non-negative")
        clamp = lambda p: min(1.0, p * factor)  # noqa: E731
        return replace(
            self,
            state_prep_error=clamp(self.state_prep_error),
            detection_epsilon=clamp(self.detection_epsilon),
            detection_epsilon_prime=clamp(self.detection_epsilon_prime),
            amplitude_rel_std=self.amplitude_rel_std * factor,
            detuning_std=self.detuning_std * factor,
        )
