"""The shared intermediate representation: AnalogProgram.

One device-independent description of an analog quantum task:
register + global drive schedule + shot request.  Every SDK lowers to
this; every backend (emulator ladder, QPU, cloud) executes it; the
daemon validates and routes it.  It is JSON-serializable so it can
travel through the REST middleware and be stored in accounting.

Crucially for the paper's portability claim (§3.2), the IR contains
**no backend identity** — the target device is external configuration
(the ``--qpu=<resource>`` switch), so moving dev -> HPC -> QPU changes
zero bytes of the program.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Any

from ..errors import IRError
from ..qpu.geometry import Register
from ..qpu.hamiltonian import program_hash
from ..qpu.pulses import DriveSegment

__all__ = ["AnalogProgram", "DecodedParts"]

#: parts a :class:`DecodedParts` remembers before it starts over
PARTS_LIMIT = 1024


class DecodedParts:
    """The registers and segments one decoder has built, one instance
    per distinct wire content.

    Parts are immutable, so every program decoded with the same table
    that carries the same register or segment shares one instance, and
    with it the part's memoized canonical JSON: hashing a program whose
    parts recur joins strings that are already encoded.  The key is the
    part's pickle, which keeps every type, shape and float bit pattern
    apart (``1`` / ``1.0``, ``0.0`` / ``-0.0``), so equal keys decode to
    equal content.  Data that does not pickle is decoded afresh, and a
    part that fails to decode is not remembered.  A decoder that sees
    the same programs again and again (the daemon's REST intake) owns
    one table.
    """

    def __init__(self) -> None:
        self._parts: dict[tuple[type, bytes], Register | DriveSegment] = {}

    def __len__(self) -> int:
        return len(self._parts)

    def decode(self, kind: type[Register] | type[DriveSegment], data: dict) -> Register | DriveSegment:
        """``kind.from_dict(data)``, or the part decoded from the same
        content before."""
        try:
            key = (kind, pickle.dumps(data, 5))
        except (pickle.PicklingError, TypeError, AttributeError):
            return kind.from_dict(data)
        part = self._parts.get(key)
        if part is None:
            part = kind.from_dict(data)
            if len(self._parts) >= PARTS_LIMIT:
                self._parts.clear()
            self._parts[key] = part
        return part


def _fresh(kind: type[Register] | type[DriveSegment], data: dict) -> Register | DriveSegment:
    return kind.from_dict(data)


@dataclass(frozen=True, slots=True)
class AnalogProgram:
    """Device-independent analog task description."""

    register: Register
    segments: tuple[DriveSegment, ...]
    shots: int = 100
    name: str = "program"
    sdk: str = "unknown"
    metadata: dict[str, Any] = field(default_factory=dict)
    #: memos of :meth:`content_hash` and :meth:`wire`, filled on first
    #: use; never compared, printed, copied by ``replace`` or serialized
    _content_hash: str | None = field(default=None, init=False, compare=False, repr=False)
    _wire: dict | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise IRError("program must contain at least one drive segment")
        if self.shots < 1:
            raise IRError(f"shots must be >= 1, got {self.shots}")

    @property
    def num_qubits(self) -> int:
        return self.register.num_atoms

    @property
    def duration_us(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def with_shots(self, shots: int) -> "AnalogProgram":
        """Same program, different shot budget (the only knob schedulers
        may touch — e.g. the daemon capping dev-queue shots).  Shots are
        not physics content, so the copy keeps the content-hash memo."""
        program = replace(self, shots=shots)
        if self._content_hash is not None:
            object.__setattr__(program, "_content_hash", self._content_hash)
        return program

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "register": self.register.to_dict(),
            "segments": [seg.to_dict() for seg in self.segments],
            "shots": self.shots,
            "name": self.name,
            "sdk": self.sdk,
            "metadata": dict(self.metadata),
        }

    def wire(self) -> dict:
        """:meth:`to_dict`, encoded once per (frozen) instance and then
        shared by every caller: the read-only program body of a
        ``JobSpec.to_dict`` payload, which the receiver decodes but never
        edits.  Like the content hash, the memo never appears in
        ``to_dict``, ``==`` or ``replace``; callers that edit the dict
        they get take :meth:`to_dict`."""
        cached = self._wire
        if cached is None:
            cached = self.to_dict()
            object.__setattr__(self, "_wire", cached)
        return cached

    @classmethod
    def from_dict(cls, data: dict, parts: DecodedParts | None = None) -> "AnalogProgram":
        """Decode the wire form; with ``parts``, a register or segment
        that table has decoded before is the instance it decoded then."""
        decode = _fresh if parts is None else parts.decode
        try:
            return cls(
                register=decode(Register, data["register"]),
                segments=tuple(decode(DriveSegment, s) for s in data["segments"]),
                shots=int(data.get("shots", 100)),
                name=str(data.get("name", "program")),
                sdk=str(data.get("sdk", "unknown")),
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise IRError(f"malformed program dict: {exc}") from exc

    def content_hash(self) -> str:
        """Stable digest of the physics content (register + schedule),
        excluding shots/metadata.  Used by the portability checks to
        prove the *same* program ran in every environment (Figure 1); the
        same value (:func:`~repro.qpu.hamiltonian.program_hash`) keys the
        device's per-program checks and Hamiltonians.  Computed once per
        (frozen) instance; the memo never appears in ``to_dict``, ``==``
        or ``replace``."""
        cached = self._content_hash
        if cached is None:
            cached = program_hash(self.register, self.segments)
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnalogProgram):
            return NotImplemented
        return (
            self.content_hash() == other.content_hash()
            and self.shots == other.shots
            and self.name == other.name
        )
