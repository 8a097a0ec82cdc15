"""Quality-assurance reference jobs.

Paper §3.4: "quality assurance jobs checking the QPU is typically
scheduled periodically by both the hosting site and the QPU itself".

A QA job runs a physics sequence with a known answer — a two-atom
blockade pi-pulse, whose ideal outcome concentrates all probability in
the single-excitation sector with zero double excitation — and scores
the device by how closely the measured distribution matches.  The score
feeds the observability stack (drift detection) and can trigger
recalibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .device import QPUDevice
from .geometry import Register
from .pulses import ConstantWaveform, DriveSegment

__all__ = ["QAJob", "QAResult"]


@dataclass(frozen=True)
class QAResult:
    """Outcome of one QA run."""

    time: float
    score: float           # [0, 1], 1 = ideal blockade physics
    passed: bool
    threshold: float
    details: dict = field(default_factory=dict)


class QAJob:
    """Blockade-fidelity reference check.

    Sequence: two atoms at ``spacing`` (deep blockade), resonant drive
    with pulse area pi at the blockade-enhanced frequency, so the ideal
    final state is the symmetric single excitation:

        P(01) + P(10) ~ 1,   P(11) ~ 0.

    Score = [P(01)+P(10)] * (1 - P(11)/0.5 clipped) — both leakage into
    |00> (decoherence, amplitude miscalibration) and double excitation
    (blockade violation, detection errors) reduce it.
    """

    def __init__(self, spacing: float = 5.0, shots: int = 200, threshold: float = 0.85) -> None:
        self.spacing = spacing
        self.shots = shots
        self.threshold = threshold
        omega = np.pi  # rad/us
        duration = 1.0 / np.sqrt(2.0)  # pi pulse at sqrt(2)-enhanced Rabi
        self.register = Register.chain(2, spacing=spacing)
        self.segments = [
            DriveSegment(
                ConstantWaveform(duration, omega), ConstantWaveform(duration, 0.0)
            )
        ]

    def run(self, device: QPUDevice, now: float) -> QAResult:
        result = device.run_now(self.register, self.segments, self.shots)
        probs = result.probabilities()
        p01 = probs.get("01", 0.0)
        p10 = probs.get("10", 0.0)
        p11 = probs.get("11", 0.0)
        single = p01 + p10
        blockade_penalty = min(1.0, p11 / 0.5)
        score = float(np.clip(single * (1.0 - blockade_penalty), 0.0, 1.0))
        passed = score >= self.threshold
        return QAResult(
            time=now,
            score=score,
            passed=passed,
            threshold=self.threshold,
            details={
                "p01": p01,
                "p10": p10,
                "p11": p11,
                "shots": self.shots,
                "fidelity_proxy": device.calibration.fidelity_proxy(),
            },
        )
