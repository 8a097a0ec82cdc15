"""Shot clock: the execution-time model of the QPU.

Paper §2.2.1: "For current neutral-atom devices, the shot rate is on
the order of 1 Hz, with roadmaps projecting increases to around 100 Hz
in the coming years."  The shot clock turns (shots, sequence duration)
into wall-clock QPU occupancy, which drives every utilization number in
the Table-1 experiments:

    task_time = setup_overhead
              + shots * (1/rate + sequence_duration)
              + batches * batch_overhead

Batching models the hardware's preference for amortizing register
loading across shots (the paper configures non-production jobs
"without batched submission").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DeviceError

__all__ = ["ShotClock"]


@dataclass(frozen=True)
class ShotClock:
    """Execution-time model, all times in seconds."""

    shot_rate_hz: float = 1.0
    setup_overhead_s: float = 2.0
    batch_size: int = 100
    batch_overhead_s: float = 0.5

    def __post_init__(self) -> None:
        if self.shot_rate_hz <= 0:
            raise DeviceError(f"shot rate must be positive, got {self.shot_rate_hz}")
        if self.batch_size < 1:
            raise DeviceError(f"batch size must be >= 1, got {self.batch_size}")
        if self.setup_overhead_s < 0 or self.batch_overhead_s < 0:
            raise DeviceError("overheads must be non-negative")

    def shot_period(self, sequence_duration_us: float = 0.0) -> float:
        """Seconds per shot: rearm period plus the sequence itself."""
        return 1.0 / self.shot_rate_hz + sequence_duration_us * 1e-6

    def execution_time(
        self, shots: int, sequence_duration_us: float = 0.0, batched: bool = True
    ) -> float:
        """Wall-clock seconds the QPU is busy with this task."""
        if shots < 0:
            raise DeviceError(f"shots must be >= 0, got {shots}")
        if shots == 0:
            return self.setup_overhead_s
        if batched:
            batches = math.ceil(shots / self.batch_size)
        else:
            batches = shots  # unbatched: per-shot overhead
        return (
            self.setup_overhead_s
            + shots * self.shot_period(sequence_duration_us)
            + batches * self.batch_overhead_s
        )

    def with_rate(self, shot_rate_hz: float) -> "ShotClock":
        """Roadmap variant (e.g. the projected 100 Hz device)."""
        from dataclasses import replace

        return replace(self, shot_rate_hz=shot_rate_hz)
