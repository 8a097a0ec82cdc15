"""Waveforms and drive segments for analog sequences.

Units follow the neutral-atom convention: time in microseconds (us),
angular frequencies (Rabi ``omega`` and detuning ``delta``) in rad/us.
Waveforms are sampled on a uniform grid for numerical evolution;
sampling is vectorized (one ``np.ndarray`` per waveform, no Python
loops in the inner path, per the hpc-parallel guide).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import PulseError

__all__ = [
    "BlackmanWaveform",
    "CompositeWaveform",
    "ConstantWaveform",
    "DriveSegment",
    "InterpolatedWaveform",
    "RampWaveform",
    "Waveform",
]


class Waveform:
    """Base waveform: a real function on ``[0, duration]`` us."""

    duration: float

    def samples(self, dt: float) -> np.ndarray:
        """Values on the grid ``t_k = (k + 1/2) * dt`` (midpoint rule)."""
        raise NotImplementedError

    def _grid(self, dt: float) -> np.ndarray:
        if dt <= 0:
            raise PulseError(f"dt must be positive, got {dt}")
        n = max(1, int(round(self.duration / dt)))
        return (np.arange(n) + 0.5) * (self.duration / n)

    def integral(self) -> float:
        """Area under the waveform (rad); default via fine sampling."""
        dt = self.duration / 1000.0 if self.duration > 0 else 1.0
        return float(self.samples(dt).sum() * dt)

    def extrema(self) -> tuple[float, float]:
        """(min, max) of the waveform over its whole duration, on no
        particular time grid; default via fine sampling."""
        dt = self.duration / 1000.0 if self.duration > 0 else 1.0
        values = self.samples(dt)
        return float(values.min()), float(values.max())

    def max_abs(self) -> float:
        low, high = self.extrema()
        return max(-low, high)

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "Waveform":
        kind = data.get("kind")
        if kind not in _KINDS:
            raise PulseError(f"unknown waveform kind {kind!r}")
        return _KINDS[kind]._from_dict(data)


def _check_duration(duration: float) -> float:
    if duration <= 0:
        raise PulseError(f"waveform duration must be positive, got {duration}")
    return float(duration)


class ConstantWaveform(Waveform):
    """Constant value for ``duration`` us."""

    def __init__(self, duration: float, value: float) -> None:
        self.duration = _check_duration(duration)
        self.value = float(value)

    def samples(self, dt: float) -> np.ndarray:
        return np.full_like(self._grid(dt), self.value)

    def integral(self) -> float:
        return self.value * self.duration

    def extrema(self) -> tuple[float, float]:
        return self.value, self.value

    def to_dict(self) -> dict:
        return {"kind": "constant", "duration": self.duration, "value": self.value}

    @classmethod
    def _from_dict(cls, data: dict) -> "ConstantWaveform":
        return cls(data["duration"], data["value"])


class RampWaveform(Waveform):
    """Linear ramp from ``start`` to ``stop``."""

    def __init__(self, duration: float, start: float, stop: float) -> None:
        self.duration = _check_duration(duration)
        self.start = float(start)
        self.stop = float(stop)

    def samples(self, dt: float) -> np.ndarray:
        t = self._grid(dt)
        return self.start + (self.stop - self.start) * (t / self.duration)

    def integral(self) -> float:
        return 0.5 * (self.start + self.stop) * self.duration

    def extrema(self) -> tuple[float, float]:
        return min(self.start, self.stop), max(self.start, self.stop)

    def to_dict(self) -> dict:
        return {
            "kind": "ramp",
            "duration": self.duration,
            "start": self.start,
            "stop": self.stop,
        }

    @classmethod
    def _from_dict(cls, data: dict) -> "RampWaveform":
        return cls(data["duration"], data["start"], data["stop"])


class BlackmanWaveform(Waveform):
    """Blackman-window pulse with a target area (rad).

    The go-to adiabatic pulse shape in neutral-atom experiments: smooth
    turn-on/turn-off minimizes spectral leakage.
    """

    def __init__(self, duration: float, area: float) -> None:
        self.duration = _check_duration(duration)
        self.area = float(area)

    def _window(self, t: np.ndarray) -> np.ndarray:
        x = t / self.duration
        return 0.42 - 0.5 * np.cos(2 * np.pi * x) + 0.08 * np.cos(4 * np.pi * x)

    def samples(self, dt: float) -> np.ndarray:
        t = self._grid(dt)
        w = self._window(t)
        # normalize so the discrete integral equals `area`
        step = self.duration / len(t)
        total = w.sum() * step
        if total == 0:
            return np.zeros_like(t)
        return w * (self.area / total)

    def integral(self) -> float:
        return self.area

    def to_dict(self) -> dict:
        return {"kind": "blackman", "duration": self.duration, "area": self.area}

    @classmethod
    def _from_dict(cls, data: dict) -> "BlackmanWaveform":
        return cls(data["duration"], data["area"])


class InterpolatedWaveform(Waveform):
    """Piecewise-linear interpolation through given (time, value) knots."""

    def __init__(self, duration: float, values: list[float], times: list[float] | None = None) -> None:
        self.duration = _check_duration(duration)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise PulseError("interpolated waveform needs >= 2 values")
        if times is None:
            self.times = np.linspace(0.0, self.duration, self.values.size)
        else:
            self.times = np.asarray(times, dtype=float)
            if self.times.shape != self.values.shape:
                raise PulseError("times and values must have the same length")
            if not np.all(np.diff(self.times) > 0):
                raise PulseError("times must be strictly increasing")
            if self.times[0] < 0 or self.times[-1] > self.duration:
                raise PulseError("times must lie within [0, duration]")

    def samples(self, dt: float) -> np.ndarray:
        return np.interp(self._grid(dt), self.times, self.values)

    def extrema(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())

    def to_dict(self) -> dict:
        return {
            "kind": "interpolated",
            "duration": self.duration,
            "values": self.values.tolist(),
            "times": self.times.tolist(),
        }

    @classmethod
    def _from_dict(cls, data: dict) -> "InterpolatedWaveform":
        return cls(data["duration"], data["values"], data.get("times"))


class CompositeWaveform(Waveform):
    """Concatenation of waveforms in time."""

    def __init__(self, *parts: Waveform) -> None:
        if not parts:
            raise PulseError("composite waveform needs at least one part")
        self.parts = list(parts)
        self.duration = sum(p.duration for p in parts)

    def samples(self, dt: float) -> np.ndarray:
        # Each part gets the whole steps between its rounded start and
        # end on the composite grid and is sampled on that sub-grid, so
        # the total is the composite's own step count even when parts
        # are not whole multiples of dt (a part under half a step gets
        # no sample).
        n = len(self._grid(dt))
        ends = np.cumsum([0.0] + [part.duration for part in self.parts])
        counts = np.diff(np.rint(ends * (n / self.duration)).astype(int))
        chunks = [
            part.samples(part.duration / count)
            for part, count in zip(self.parts, counts, strict=True)
            if count > 0
        ]
        return np.concatenate(chunks)

    def integral(self) -> float:
        return sum(p.integral() for p in self.parts)

    def extrema(self) -> tuple[float, float]:
        # from the parts, not from samples: a part shorter than half a
        # step has no sample on a coarse grid but still drives the atoms
        lows, highs = zip(*(p.extrema() for p in self.parts), strict=True)
        return min(lows), max(highs)

    def to_dict(self) -> dict:
        return {"kind": "composite", "parts": [p.to_dict() for p in self.parts]}

    @classmethod
    def _from_dict(cls, data: dict) -> "CompositeWaveform":
        return cls(*[Waveform.from_dict(p) for p in data["parts"]])


#: the ``kind`` tag of each serialized waveform -> its class
_KINDS: dict[str, type[Waveform]] = {
    "constant": ConstantWaveform,
    "ramp": RampWaveform,
    "blackman": BlackmanWaveform,
    "interpolated": InterpolatedWaveform,
    "composite": CompositeWaveform,
}


@dataclass(frozen=True)
class DriveSegment:
    """One segment of the global Rydberg drive.

    ``omega`` — Rabi amplitude waveform (rad/us, >= 0),
    ``delta`` — detuning waveform (rad/us),
    ``phase`` — drive phase (rad), constant per segment.

    Both waveforms must share the segment duration.
    """

    omega: Waveform
    delta: Waveform
    phase: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.omega.duration - self.delta.duration) > 1e-9:
            raise PulseError(
                f"omega duration {self.omega.duration} != delta duration {self.delta.duration}"
            )
        if self.omega.max_abs() > 0 and (
            isinstance(self.omega, ConstantWaveform) and self.omega.value < 0
        ):
            raise PulseError("Rabi amplitude must be non-negative")

    @property
    def duration(self) -> float:
        return self.omega.duration

    def to_dict(self) -> dict:
        return {
            "omega": self.omega.to_dict(),
            "delta": self.delta.to_dict(),
            "phase": self.phase,
        }

    def canonical_json(self) -> str:
        """:meth:`to_dict` as sorted-key JSON, encoded once per (frozen)
        segment; never part of ``==``, ``replace`` or ``to_dict``."""
        cached = getattr(self, "_json", None)
        if cached is None:
            cached = json.dumps(self.to_dict(), sort_keys=True)
            object.__setattr__(self, "_json", cached)
        return cached

    @classmethod
    def from_dict(cls, data: dict) -> "DriveSegment":
        return cls(
            omega=Waveform.from_dict(data["omega"]),
            delta=Waveform.from_dict(data["delta"]),
            phase=float(data.get("phase", 0.0)),
        )
