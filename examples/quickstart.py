#!/usr/bin/env python
"""Quickstart: write a program once, run it on the whole fidelity ladder.

This is the paper's Figure-1 loop in ~60 lines:

1. build an analog program with the pulser-like SDK,
2. run it on the exact laptop emulator,
3. run the SAME object on the HPC tensor-network emulator,
4. run the SAME object on the (simulated) QPU through the middleware
   daemon — sessions, priority queue, shot clock, calibration noise,
5. verify with a portability report that nothing changed but `--qpu`.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.config import DictConfig
from repro.qpu import ConstantWaveform, Register
from repro.runtime import (
    EnvironmentFingerprint,
    PortabilityReport,
    RuntimeEnvironment,
)
from repro.sdk import Pulse, Sequence

# --- 1. the program: a blockaded Bell-pair pulse, written ONCE -------------
register = Register.chain(2, spacing=5.0)  # two atoms, deep blockade
sequence = Sequence(register, name="quickstart")
sequence.declare_channel("global", "rydberg_global")
sequence.add(
    Pulse.constant_detuning(
        ConstantWaveform(1.0 / np.sqrt(2.0), np.pi), detuning=0.0
    ),
    "global",
)
sequence.measure()
program = sequence.build(shots=500)
report = PortabilityReport(program.content_hash())
print(f"program {program.name!r}: {program.num_qubits} qubits, "
      f"{program.duration_us:.2f}us, hash {program.content_hash()[:12]}")

# --- 2. laptop: exact state-vector emulator ---------------------------------
laptop = RuntimeEnvironment.from_config(DictConfig({
    "QRMI_RESOURCES": "laptop",
    "QRMI_LAPTOP_TYPE": "local-emulator",
    "QRMI_LAPTOP_EMULATOR": "emu-sv",
}))
result = laptop.run(program)
report.add(EnvironmentFingerprint("laptop", "laptop", "local-emulator", result.backend), result)
print(f"[laptop  ] backend={result.backend:8s} counts={dict(sorted(result.counts.items()))}")

# --- 3. HPC node: tensor-network emulator, same program --------------------
hpc = RuntimeEnvironment.from_config(DictConfig({
    "QRMI_RESOURCES": "hpc-tn",
    "QRMI_HPC_TN_TYPE": "local-emulator",
    "QRMI_HPC_TN_EMULATOR": "emu-mps",
    "QRMI_HPC_TN_MAX_BOND_DIM": "32",
}))
result = hpc.run(program)
report.add(EnvironmentFingerprint("hpc-emu", "hpc-tn", "local-emulator", result.backend), result)
print(f"[hpc-emu ] backend={result.backend:8s} counts={dict(sorted(result.counts.items()))}")

# --- 4. production: the QPU behind the middleware daemon -------------------
from repro.daemon import MiddlewareDaemon
from repro.qpu import QPUDevice, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.session import Session
from repro.simkernel import Simulator
from repro.spec import JobSpec

sim = Simulator()
device = QPUDevice(clock=ShotClock(shot_rate_hz=100.0), rng=np.random.default_rng(7))
daemon = MiddlewareDaemon(sim, {"onprem": OnPremQPUResource("onprem", device)})
session = Session(daemon=daemon, user="quickstart-user")

handle = session.submit(JobSpec(program=program, resource="onprem", priority_class="production"))
sim.run()  # the simulated QPU executes (5s of simulated shot clock)
qpu_result = handle.result()
report.add(EnvironmentFingerprint("qpu", "onprem", "onprem-qpu", qpu_result.backend), qpu_result)
print(f"[qpu     ] backend={qpu_result.backend:8s} counts={dict(sorted(qpu_result.counts.items()))}")
print(f"[qpu     ] calibration at execution: "
      f"fidelity_proxy={qpu_result.metadata['calibration']['fidelity_proxy']:.3f}")

# --- 5. the portability proof ------------------------------------------------
summary = report.summary()
print("\nportability report:", summary)
assert summary["program_unchanged"], "a stage ran a different program!"
print("OK: identical program across laptop -> HPC emulator -> QPU; only --qpu changed.")
