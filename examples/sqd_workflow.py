#!/usr/bin/env python
"""SQD-style workflow: the paper's pattern-B exemplar, end to end.

Sample-based quantum diagonalization (paper §2.4): one quantum sampling
burst, then a classical eigenproblem on the sampled configuration
subspace — the post-processing is the expensive part ("parallelized up
6400 nodes on Fugaku").

This example runs the real pipeline:

1. sample the ordered phase of a 10-atom chain on the MPS emulator,
2. project the Rydberg-Ising Hamiltonian onto the sampled subspace and
   diagonalize it (dense NumPy eigensolver) — true SQD post-processing,
3. show why malleability matters: the modeled wall-clock of the
   post-processing across a batch of such jobs, rigid vs malleable
   CPU allocation.

Run:  python examples/sqd_workflow.py
"""

from repro.analysis import format_table
from repro.config import DictConfig
from repro.runtime import RuntimeEnvironment
from repro.scheduling import MalleablePool, MalleableTask
from repro.workloads import SQDWorkload, qaa_energy

# --- 1. quantum sampling -------------------------------------------------------
env = RuntimeEnvironment.from_config(DictConfig({
    "QRMI_RESOURCES": "hpc-tn",
    "QRMI_HPC_TN_TYPE": "local-emulator",
    "QRMI_HPC_TN_EMULATOR": "emu-mps",
    "QRMI_HPC_TN_MAX_BOND_DIM": "32",
}))
# classical_base_seconds models the distributed eigensolver cost at
# subspace dimension 100; real SQD post-processing dwarfs the sampling
# (paper: 6400 Fugaku nodes), hence the large base.
workload = SQDWorkload(n_atoms=10, shots=400, max_dim=200, classical_base_seconds=3000.0)
program = workload.quantum_program()
print(f"sampling {program.num_qubits} atoms, {program.shots} shots "
      f"on {env.resolve()} ...")
result = env.run(program)
top = sorted(result.counts.items(), key=lambda kv: -kv[1])[:5]
print("top configurations:", top)

# --- 2. classical post-processing: subspace diagonalization ---------------------
raw_energy = qaa_energy(result.counts, h_field=-6.0)
report = workload.run_postprocess(result.counts)
print(f"\nsampled subspace dimension : {report['subspace_dim']}")
print(f"raw sample energy estimate : {raw_energy:.3f}")
print(f"subspace ground energy     : {report['ground_energy']:.3f}")
assert report["ground_energy"] <= raw_energy + 1e-9, "diagonalization must improve on raw samples"
improvement = raw_energy - report["ground_energy"]
print(f"SQD improvement            : {improvement:.3f} (rad/us energy units)")

# --- 3. why this is Table-1 pattern B -------------------------------------------
qpu_seconds = program.shots * 1.0           # 1 Hz shot clock
classical_seconds = workload.classical_seconds(report["subspace_dim"])
from repro.scheduling import classify_pattern

pattern = classify_pattern(qpu_seconds, classical_seconds)
print(f"\nQPU time {qpu_seconds:.0f}s vs classical {classical_seconds:.0f}s "
      f"-> Table-1 pattern {pattern.value} ({pattern.description})")
assert pattern.value == "B"

# --- 4. batch post-processing: rigid vs malleable allocation --------------------
sizes = [workload.classical_seconds(d) for d in (300, 180, 120, 60)]
tasks = lambda: [  # noqa: E731
    MalleableTask(f"sqd-{i}", work_cpu_seconds=s * 16, serial_fraction=0.02, max_cpus=64)
    for i, s in enumerate(sizes)
]
rigid = MalleablePool(64, malleable=False).makespan(tasks())
flexible = MalleablePool(64, malleable=True).makespan(tasks())
print("\nbatch of 4 SQD post-processing jobs on a 64-CPU pool:")
print(format_table([
    {"allocation": "rigid (static split)", "makespan_s": round(rigid, 1)},
    {"allocation": "malleable (grow/shrink)", "makespan_s": round(flexible, 1)},
]))
print(f"malleability speedup: {rigid / flexible:.2f}x")
assert flexible <= rigid
