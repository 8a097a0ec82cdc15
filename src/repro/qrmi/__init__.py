"""QRMI — Quantum Resource Management Interface (vendor-neutral).

Reimplementation of the interface from Sitdikov et al. (paper ref
[23]), which the paper adopts as "our primary unifying runtime library
interface" and extends "from providing connectivity and Slurm
scheduling, with a second level of scheduler capability".

The trait surface (:class:`QuantumResource`):

``acquire() / release(token)``
    exclusive-ish access tokens,
``task_start(program) -> task_id``, ``task_status``, ``task_stop``,
``task_result``
    asynchronous task lifecycle,
``specs()`` / ``target()``
    current device specifications (the :class:`~repro.qpu.DeviceSpecs`
    object validation runs against) and their document form,
``metadata()``
    resource type, locality, connectivity info.

Resource implementations (:mod:`backends`):

* ``local-emulator``  — in-process emulator ladder (paper §3.2 item 3
  extended to the developer laptop),
* ``cloud-emulator``  — emulator behind simulated network latency,
* ``onprem-qpu``      — direct access to a :class:`~repro.qpu.QPUDevice`,
* ``cloud-qpu``       — QPU behind network latency.

Resources are configured exclusively via environment variables
(:mod:`repro.config`), which is QRMI's convention and what the Slurm
SPANK plugin (:mod:`slurm_plugin`) injects for the ``--qpu`` switch.
"""

from .backends import (
    CloudEmulatorResource,
    CloudQPUResource,
    LocalEmulatorResource,
    OnPremQPUResource,
)
from .env import load_resource, load_resources
from .interface import QRMITask, QuantumResource, TaskStatus
from .resources import ResourceType
from .slurm_plugin import QRMISpankPlugin

__all__ = [
    "CloudEmulatorResource",
    "CloudQPUResource",
    "LocalEmulatorResource",
    "OnPremQPUResource",
    "QRMISpankPlugin",
    "QRMITask",
    "QuantumResource",
    "ResourceType",
    "TaskStatus",
    "load_resource",
    "load_resources",
]
