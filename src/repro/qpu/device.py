"""The QPU device: executes analog programs with calibration-dependent
noise and a realistic shot clock.

The device is the "hardware" end of the paper's portability story.  It
shares the emulator engines with the software backends (a digital
twin), but differs in exactly the ways real hardware differs:

* execution takes wall-clock time (the ~1 Hz shot clock, §2.2.1) — in
  a simulation this is simulated time via :meth:`execute_process`,
* results carry noise derived from the *current* calibration state,
  which drifts (§2.1),
* programs are validated at the point of execution: every run is
  checked against the device's *current* :class:`DeviceSpecs` object.
  That object remembers the program contents it has passed
  (:meth:`DeviceSpecs.admit`), so a content is checked once per specs
  object, and shots on every run.  Drift replaces the object, so a
  program admitted under old specs is checked again under the new,
* every execution is recorded in telemetry counters.

A Hamiltonian is a pure function of the program content, the device's
``dt`` and the specs' C6 coefficient, so the device builds it once per
(:func:`program_hash`, C6) and reuses it for every run of that content.
Every execution entry point takes that digest as ``key`` when the caller
already holds it (QRMI passes the IR's memoized ``content_hash()``), so
a program is hashed once however often it is admitted and run.
"""

from __future__ import annotations

import numpy as np

from ..errors import DeviceError
from ..emulators.base import EmulationResult
from ..emulators.mps import MPSEmulator
from ..emulators.statevector import StateVectorEmulator
from ..simkernel import Simulator, Timeout
from .calibration import CalibrationState
from .geometry import Register
from .hamiltonian import RydbergHamiltonian, program_hash
from .pulses import DriveSegment
from .shots import ShotClock
from .specs import DeviceSpecs
from .telemetry import TelemetrySnapshot

__all__ = ["QPUDevice"]

#: fidelity proxy below which the device self-reports as degraded
DEGRADED_THRESHOLD = 0.85


class QPUDevice:
    """Analog neutral-atom QPU model."""

    def __init__(
        self,
        specs: DeviceSpecs | None = None,
        calibration: CalibrationState | None = None,
        clock: ShotClock | None = None,
        rng: np.random.Generator | None = None,
        dt: float = 0.01,
        sv_cutoff_qubits: int = 12,
        twin_bond_dim: int = 16,
    ) -> None:
        self.specs = specs or DeviceSpecs()
        self.calibration = calibration or CalibrationState()
        self.clock = clock or ShotClock(shot_rate_hz=self.specs.shot_rate_hz)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.dt = dt
        self._sv = StateVectorEmulator(max_qubits=sv_cutoff_qubits)
        self._mps = MPSEmulator(max_bond_dim=twin_bond_dim, max_qubits=self.specs.max_qubits)
        self._maintenance = False
        self._ham_cache: dict[tuple[str, float], RydbergHamiltonian] = {}
        self._noise_cache: tuple[CalibrationState, int, object] | None = None
        # telemetry counters
        self.shots_served = 0
        self.tasks_completed = 0
        self.busy_seconds = 0.0
        self.created_at = 0.0
        self.current_task: str | None = None
        self.queue_length = 0

    # -- status ------------------------------------------------------------

    @property
    def status(self) -> str:
        if self._maintenance:
            return "maintenance"
        if self.calibration.fidelity_proxy() < DEGRADED_THRESHOLD:
            return "degraded"
        return "online"

    def start_maintenance(self) -> None:
        self._maintenance = True

    def finish_maintenance(self, now: float) -> None:
        """Maintenance ends with a fresh calibration."""
        self.calibration.recalibrate(now)
        self._maintenance = False

    def fetch_specs(self) -> DeviceSpecs:
        """What a runtime gets when it asks for current specs."""
        return self.specs

    # -- execution --------------------------------------------------------

    def _engine(self, num_qubits: int):
        return self._sv if num_qubits <= self._sv.max_qubits else self._mps

    def _hamiltonian(
        self, register: Register, segments: list[DriveSegment], key: str | None = None
    ) -> RydbergHamiltonian:
        c6 = self.specs.c6_coefficient
        cache_key = (key or program_hash(register, segments), c6)
        ham = self._ham_cache.get(cache_key)
        if ham is None:
            ham = RydbergHamiltonian(register, segments, dt=self.dt, c6=c6)
            if len(self._ham_cache) >= 64:
                self._ham_cache.clear()
            self._ham_cache[cache_key] = ham
        return ham

    def _noise_model(self):
        # keyed on the calibration object too: a replaced state starts
        # again at version 0
        calibration = self.calibration
        cached = self._noise_cache
        if (
            cached is None
            or cached[0] is not calibration
            or cached[1] != calibration.version
        ):
            cached = (calibration, calibration.version, calibration.to_noise_model())
            self._noise_cache = cached
        return cached[2]

    def _compute_counts(
        self, register: Register, segments: list[DriveSegment], shots: int, key: str
    ) -> EmulationResult:
        ham = self._hamiltonian(register, segments, key)
        noise = self._noise_model()
        engine = self._engine(register.num_atoms)
        return engine.run(ham, shots, self.rng, noise=noise)

    def estimate_execution_time(
        self, segments: list[DriveSegment], shots: int, batched: bool = True
    ) -> float:
        duration_us = sum(seg.duration for seg in segments)
        return self.clock.execution_time(shots, duration_us, batched=batched)

    def run_now(
        self,
        register: Register,
        segments: list[DriveSegment],
        shots: int,
        batched: bool = True,
        key: str | None = None,
    ) -> EmulationResult:
        """Execute immediately (no simulated waiting); still validates,
        applies calibration noise and updates telemetry counters."""
        if self._maintenance:
            raise DeviceError(f"device {self.specs.name!r} is under maintenance")
        if key is None:
            key = program_hash(register, segments)
        self.specs.admit(register, segments, shots, key)
        result = self._compute_counts(register, segments, shots, key)
        elapsed = self.estimate_execution_time(segments, shots, batched)
        self._account(result, elapsed)
        return result

    def execute_process(
        self,
        sim: Simulator,
        register: Register,
        segments: list[DriveSegment],
        shots: int,
        batched: bool = True,
        task_id: str = "",
        key: str | None = None,
    ):
        """Generator for DES integration: occupies the QPU for the
        modeled execution time, then returns the result.

        The caller (daemon scheduler) is responsible for serializing
        access; the device only tracks who is executing.
        """
        if self._maintenance:
            raise DeviceError(f"device {self.specs.name!r} is under maintenance")
        if key is None:
            key = program_hash(register, segments)
        self.specs.admit(register, segments, shots, key)
        elapsed = self.estimate_execution_time(segments, shots, batched)
        self.current_task = task_id or "anonymous"
        try:
            yield Timeout(elapsed)
        finally:
            self.current_task = None
        result = self._compute_counts(register, segments, shots, key)
        self._account(result, elapsed)
        return result

    def _account(self, result: EmulationResult, elapsed: float) -> None:
        self.shots_served += result.shots
        self.tasks_completed += 1
        self.busy_seconds += elapsed
        result.metadata["device"] = self.specs.name
        result.metadata["calibration"] = self.calibration.snapshot_view()
        result.metadata["execution_seconds"] = elapsed
        result.metadata["engine"] = self._engine_name(result)

    @staticmethod
    def _engine_name(result: EmulationResult) -> str:
        return result.backend

    # -- telemetry ----------------------------------------------------------

    def telemetry(self, now: float) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            time=now,
            device=self.specs.name,
            status=self.status,
            fidelity_proxy=self.calibration.fidelity_proxy(),
            calibration=self.calibration.snapshot(),
            queue_length=self.queue_length,
            shots_served_total=self.shots_served,
            tasks_completed_total=self.tasks_completed,
            busy_seconds_total=self.busy_seconds,
            uptime_seconds=max(0.0, now - self.created_at),
            current_task=self.current_task,
        )
