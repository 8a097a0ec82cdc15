"""QRMI resource implementations.

Four backends mirroring the paper's §3.2 device list.  Emulator
backends execute synchronously in-process; QPU backends wrap a
:class:`~repro.qpu.QPUDevice` and expose both synchronous execution
(``task_start``) and simulation-integrated execution
(:meth:`execute_in_sim`) used by the middleware daemon.  Cloud variants
add a latency model so experiments can quantify the loose-coupling
overhead the paper argues is acceptable (§2.2.1).
"""

from __future__ import annotations

import numpy as np

from ..emulators.base import EmulationResult, EmulatorBackend
from ..emulators.resources import make_emulator
from ..errors import QRMIError
from ..qpu.device import QPUDevice
from ..qpu.specs import DeviceSpecs
from ..sdk.ir import AnalogProgram
from ..sdk.translate import lower_to_hamiltonian
from ..simkernel import Simulator, Timeout
from .interface import QuantumResource
from .resources import ResourceType

__all__ = [
    "CloudEmulatorResource",
    "CloudQPUResource",
    "LocalEmulatorResource",
    "OnPremQPUResource",
]


class LocalEmulatorResource(QuantumResource):
    """In-process emulator; the developer-laptop resource.

    Defaults to the tensor-network backend, matching the paper: "The
    user-exposed backend module will default to using the tensor
    network backend, if installed."
    """

    resource_type = ResourceType.LOCAL_EMULATOR.value

    def __init__(
        self,
        name: str,
        emulator: str = "emu-mps",
        seed: int = 0,
        dt: float = 0.01,
        **emulator_overrides,
    ) -> None:
        super().__init__(name)
        self.engine: EmulatorBackend = make_emulator(emulator, **emulator_overrides)
        self.rng = np.random.default_rng(seed)
        self.dt = dt
        self._specs = DeviceSpecs(
            name=name,
            max_qubits=self.engine.max_qubits,
            is_hardware=False,
            shot_rate_hz=1e9,  # emulators have no shot clock
            max_shots_per_task=1_000_000,
        )

    def _execute(self, program: AnalogProgram) -> EmulationResult:
        ham = lower_to_hamiltonian(program, dt=self.dt)
        result = self.engine.run(ham, program.shots, self.rng)
        result.metadata["resource"] = self.name
        result.metadata["fidelity_estimate"] = self.engine.fidelity_estimate()
        return result

    def specs(self) -> DeviceSpecs:
        return self._specs

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["engine"] = self.engine.name
        meta["max_bond_dim"] = getattr(self.engine, "max_bond_dim", None)
        return meta


class CloudEmulatorResource(LocalEmulatorResource):
    """Emulator behind a network: adds submission/result latency."""

    resource_type = ResourceType.CLOUD_EMULATOR.value

    def __init__(
        self,
        name: str,
        emulator: str = "emu-mps",
        seed: int = 0,
        latency_s: float = 0.5,
        **overrides,
    ) -> None:
        super().__init__(name, emulator=emulator, seed=seed, **overrides)
        if latency_s < 0:
            raise QRMIError("latency must be non-negative")
        self.latency_s = latency_s

    def _execute(self, program: AnalogProgram) -> EmulationResult:
        result = super()._execute(program)
        result.metadata["network_latency_s"] = 2 * self.latency_s  # submit + fetch
        return result

    def execute_in_sim(self, sim: Simulator, program: AnalogProgram):
        """Simulated execution: pay round-trip latency in simulated time."""
        yield Timeout(self.latency_s)
        result = LocalEmulatorResource._execute(self, program)
        yield Timeout(self.latency_s)
        result.metadata["network_latency_s"] = 2 * self.latency_s
        return result


class OnPremQPUResource(QuantumResource):
    """Direct access to the on-prem QPU on the quantum access node."""

    resource_type = ResourceType.ONPREM_QPU.value

    def __init__(self, name: str, device: QPUDevice) -> None:
        super().__init__(name)
        self.device = device

    def is_accessible(self) -> bool:
        return self.device.status != "maintenance"

    def _execute(self, program: AnalogProgram) -> EmulationResult:
        result = self.device.run_now(
            program.register, list(program.segments), program.shots,
            task_id=program.name, key=program.content_hash(),
        )
        result.metadata["resource"] = self.name
        return result

    def execute_in_sim(self, sim: Simulator, program: AnalogProgram, batched: bool = True):
        """Simulation-integrated execution: occupies the QPU for the shot
        clock time.  Used by the daemon's second-level scheduler."""
        result = yield from self.device.execute_process(
            sim,
            program.register,
            list(program.segments),
            program.shots,
            batched=batched,
            task_id=program.name,
            key=program.content_hash(),
        )
        result.metadata["resource"] = self.name
        return result

    def estimate_seconds(self, program: AnalogProgram, batched: bool = True) -> float:
        return self.device.estimate_execution_time(
            list(program.segments), program.shots, batched=batched
        )

    def specs(self) -> DeviceSpecs:
        """The device's own specs object: daemon admission and device
        execution share its memory of admitted programs."""
        return self.device.fetch_specs()

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["device_status"] = self.device.status
        meta["shot_rate_hz"] = self.device.clock.shot_rate_hz
        return meta


class CloudQPUResource(OnPremQPUResource):
    """QPU reached over the network (e.g. accessing a remote site's QPU)."""

    resource_type = ResourceType.CLOUD_QPU.value

    def __init__(self, name: str, device: QPUDevice, latency_s: float = 1.0) -> None:
        super().__init__(name, device)
        if latency_s < 0:
            raise QRMIError("latency must be non-negative")
        self.latency_s = latency_s

    def _execute(self, program: AnalogProgram) -> EmulationResult:
        result = super()._execute(program)
        result.metadata["network_latency_s"] = 2 * self.latency_s
        return result

    def execute_in_sim(self, sim: Simulator, program: AnalogProgram, batched: bool = True):
        yield Timeout(self.latency_s)
        result = yield from OnPremQPUResource.execute_in_sim(self, sim, program, batched)
        yield Timeout(self.latency_s)
        result.metadata["network_latency_s"] = 2 * self.latency_s
        return result
