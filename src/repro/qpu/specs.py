"""Device specification documents.

The paper makes point-of-execution validation a core requirement
(§2.1): "Ensuring program validity at the point of execution thus
becomes a key requirement", with specs fetched fresh because analog
devices drift.  A :class:`DeviceSpecs` document is what the runtime
fetches (from the daemon or QRMI) and validates programs against; it is
serializable so the daemon can serve it over REST.

A document is frozen: drift replaces it (:meth:`DeviceSpecs.bumped`)
rather than mutating it.  So :meth:`DeviceSpecs.admit` can remember
which program contents passed the register and schedule checks of one
document, and a drifted document starts with an empty memory.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, replace

from ..errors import ValidationError
from .geometry import Register
from .hamiltonian import DEFAULT_C6, program_hash
from .pulses import DriveSegment

__all__ = ["DeviceSpecs"]

#: program contents one specs document remembers before starting over
ADMITTED_LIMIT = 1024


@dataclass(frozen=True)
class DeviceSpecs:
    """Capabilities + constraints of one device (QPU or emulator).

    Units: um, rad/us, us.

    :meth:`check` validates a program in full.  :meth:`admit` is
    the entry point of the submit and execution paths: it runs
    :meth:`check` once per program content (see :func:`program_hash`)
    and remembers the contents that passed, while the shot count is
    still checked on every call.  Failed checks are not remembered.
    The memory belongs to this object and never appears in
    :meth:`to_dict`, ``==`` or ``replace``.
    """

    name: str = "fresnel-sim"
    max_qubits: int = 100
    min_atom_distance: float = 4.0
    max_radius: float = 50.0
    max_rabi: float = 12.57          # ~2pi * 2 MHz in rad/us
    min_detuning: float = -125.0
    max_detuning: float = 125.0
    max_sequence_duration: float = 6.0   # us
    max_shots_per_task: int = 2000
    shot_rate_hz: float = 1.0            # paper §2.2.1: ~1 Hz today
    c6_coefficient: float = DEFAULT_C6
    is_hardware: bool = True
    revision: int = 0
    extra: dict = field(default_factory=dict)

    # -- validation -----------------------------------------------------------

    def validate_register(self, register: Register) -> list[str]:
        """Violation messages for a register (empty list = valid)."""
        violations: list[str] = []
        if register.num_atoms > self.max_qubits:
            violations.append(
                f"register has {register.num_atoms} atoms, device supports {self.max_qubits}"
            )
        min_dist = register.min_distance()
        if min_dist < self.min_atom_distance - 1e-9:
            violations.append(
                f"minimum atom distance {min_dist:.2f}um below device limit "
                f"{self.min_atom_distance}um"
            )
        radius = register.max_radius()
        if radius > self.max_radius + 1e-9:
            violations.append(
                f"register radius {radius:.2f}um exceeds field of view {self.max_radius}um"
            )
        return violations

    def validate_schedule(self, segments: list[DriveSegment]) -> list[str]:
        violations: list[str] = []
        total = sum(seg.duration for seg in segments)
        if total > self.max_sequence_duration + 1e-9:
            violations.append(
                f"sequence duration {total:.2f}us exceeds limit "
                f"{self.max_sequence_duration}us"
            )
        for idx, seg in enumerate(segments):
            omega_max = seg.omega.max_abs()
            if omega_max > self.max_rabi + 1e-9:
                violations.append(
                    f"segment {idx}: Rabi amplitude {omega_max:.2f} exceeds "
                    f"max {self.max_rabi} rad/us"
                )
            # the envelope's range, independent of any sampling grid
            delta_min, delta_max = seg.delta.extrema()
            if delta_max > self.max_detuning + 1e-9 or delta_min < self.min_detuning - 1e-9:
                violations.append(
                    f"segment {idx}: detuning outside "
                    f"[{self.min_detuning}, {self.max_detuning}] rad/us"
                )
        return violations

    def validate_shots(self, shots: int) -> list[str]:
        if shots < 1:
            return [f"shots must be >= 1, got {shots}"]
        if shots > self.max_shots_per_task:
            return [
                f"shots {shots} exceeds per-task limit {self.max_shots_per_task}"
            ]
        return []

    def check(self, register: Register, segments: list[DriveSegment], shots: int) -> None:
        """Raise :class:`ValidationError` listing every violation."""
        self._raise_for(
            self.validate_register(register)
            + self.validate_schedule(segments)
            + self.validate_shots(shots)
        )

    def admit(
        self,
        register: Register,
        segments: list[DriveSegment],
        shots: int,
        key: str | None = None,
    ) -> None:
        """:meth:`check`, with the register and schedule checked once per
        program content on this document.  ``key`` is the content's
        :func:`program_hash` when the caller already holds it (a decoded
        program's ``content_hash()``); it is computed here otherwise."""
        admitted = getattr(self, "_admitted", None)
        if admitted is None:
            admitted = set()
            object.__setattr__(self, "_admitted", admitted)
        if key is None:
            key = program_hash(register, segments)
        if key in admitted:
            self._raise_for(self.validate_shots(shots))
            return
        self.check(register, segments, shots)
        if len(admitted) >= ADMITTED_LIMIT:
            admitted.clear()
        admitted.add(key)

    def _raise_for(self, violations: list[str]) -> None:
        if violations:
            raise ValidationError(
                f"program invalid for device {self.name!r} "
                f"(revision {self.revision}): {len(violations)} violation(s)",
                violations=violations,
            )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        # The dataclass is frozen, so the asdict recursion is paid once;
        # callers get a fresh top-level dict (and a deep copy of the
        # mutable ``extra``) each call, as before.
        cached = getattr(self, "_dict_cache", None)
        if cached is None:
            cached = asdict(self)
            object.__setattr__(self, "_dict_cache", cached)
        out = dict(cached)
        out["extra"] = copy.deepcopy(cached["extra"])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceSpecs":
        return cls(**data)

    def bumped(self, **changes) -> "DeviceSpecs":
        """Copy with changes and an incremented revision (spec drift)."""
        return replace(self, revision=self.revision + 1, **changes)
