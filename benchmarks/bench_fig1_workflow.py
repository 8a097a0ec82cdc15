"""Experiment F1 — regenerate Figure 1 (dev-to-production workflow).

Figure 1's claim: one hybrid program moves local development -> HPC
emulation -> QPU execution *without source changes*, re-validating
against current device characteristics at each stage.

The bench walks one program through the three stages:

1. **laptop**   — direct-mode runtime, exact state-vector emulator,
2. **hpc-emu**  — direct-mode runtime, tensor-network emulator (the
   "large tensor network emulators" of §3.2),
3. **qpu**      — daemon-mode runtime: session, middleware queue,
   shot-clock QPU execution with calibration noise,

asserting:

* byte-identical program content at every stage (the portability
  report's hash check),
* only the ``--qpu`` resource switch differs between stages,
* result distributions agree between stages up to sampling + hardware
  noise (small TV distance), while a chi=1 mock run (the paper's
  footnote-3 end-to-end testing mode) runs the same code path with
  documented physics deviation.
"""

import numpy as np

from repro.analysis import format_table
from repro.config import DictConfig
from repro.qpu import Register
from repro.runtime import (
    EnvironmentFingerprint,
    PortabilityReport,
    RuntimeEnvironment,
)
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.spec import JobSpec

from .harness import build_stack

SHOTS = 600


def the_program():
    """THE hybrid program: written once, executed everywhere."""
    register = Register.chain(2, spacing=5.0)  # deep blockade pair
    return (
        AnalogCircuit(register, name="figure1-program")
        .rx_global(np.pi, duration=1.0 / np.sqrt(2.0))
        .measure_all()
        .transpile(shots=SHOTS)
    )


def laptop_env():
    return RuntimeEnvironment.from_config(
        DictConfig(
            {
                "QRMI_RESOURCES": "laptop-emu",
                "QRMI_LAPTOP_EMU_TYPE": "local-emulator",
                "QRMI_LAPTOP_EMU_EMULATOR": "emu-sv",
            }
        )
    )


def hpc_emulator_env():
    return RuntimeEnvironment.from_config(
        DictConfig(
            {
                "QRMI_RESOURCES": "hpc-tn",
                "QRMI_HPC_TN_TYPE": "local-emulator",
                "QRMI_HPC_TN_EMULATOR": "emu-mps",
                "QRMI_HPC_TN_MAX_BOND_DIM": "32",
            }
        )
    )


def mock_env():
    """chi=1 product-state mock (paper footnote 3)."""
    return RuntimeEnvironment.from_config(
        DictConfig(
            {
                "QRMI_RESOURCES": "mock",
                "QRMI_MOCK_TYPE": "local-emulator",
                "QRMI_MOCK_EMULATOR": "emu-product",
            }
        )
    )


def run_workflow():
    program = the_program()
    report = PortabilityReport(program.content_hash())
    rows = []

    # Stage 1: laptop
    env = laptop_env()
    result = env.run(program)
    report.add(
        EnvironmentFingerprint("laptop", "laptop-emu", "local-emulator", result.backend),
        result,
    )
    rows.append({"stage": "laptop", "backend": result.backend, "p(01)+p(10)": _single(result)})

    # Stage 2: HPC tensor-network emulator — same program object
    env = hpc_emulator_env()
    result = env.run(program)
    report.add(
        EnvironmentFingerprint("hpc-emu", "hpc-tn", "local-emulator", result.backend),
        result,
    )
    rows.append({"stage": "hpc-emu", "backend": result.backend, "p(01)+p(10)": _single(result)})

    # Stage 3: the QPU behind the middleware daemon — same program object
    stack = build_stack(shot_rate_hz=100.0, seed=1)
    session = Session(daemon=stack.daemon, user="figure1-user")
    handle = session.submit(
        JobSpec(program=program, resource="onprem", shots=SHOTS, priority_class="production")
    )
    stack.sim.run()
    qpu_result = handle.result()
    report.add(
        EnvironmentFingerprint("qpu", "onprem", "onprem-qpu", qpu_result.backend),
        qpu_result,
    )
    rows.append({"stage": "qpu", "backend": qpu_result.backend, "p(01)+p(10)": _single(qpu_result)})

    # Mock stage (end-to-end test mode): same code path, wrong physics
    mock_result = mock_env().run(program)
    return report, rows, qpu_result, mock_result


def _single(result) -> float:
    probs = result.probabilities()
    return round(probs.get("01", 0.0) + probs.get("10", 0.0), 3)


def test_fig1_same_program_across_environments(benchmark):
    report, rows, qpu_result, mock_result = benchmark.pedantic(
        run_workflow, rounds=1, iterations=1
    )
    print("\n" + format_table(rows, title="Figure 1 — one program, three environments"))
    print("portability summary:", report.summary())

    # (a) zero source change: all three stages ran the identical content hash
    assert report.program_unchanged()
    assert report.stages == ["laptop", "hpc-emu", "qpu"]

    # (b) physics agrees across the fidelity ladder: laptop vs hpc-emu are
    # both noiseless (sampling-only difference); QPU adds hardware noise.
    distances = report.pairwise_tv_distances()
    assert distances[("laptop", "hpc-emu")] < 0.08
    assert distances[("laptop", "qpu")] < 0.30  # noisy but recognizably the same

    # (c) blockade physics survives every real stage
    for _, result in report.executions:
        probs = result.probabilities()
        assert probs.get("01", 0) + probs.get("10", 0) > 0.55
        assert probs.get("11", 0) < 0.15

    # (d) the chi=1 mock runs the same code path but deviates (documented)
    from repro.runtime import total_variation_distance

    mock_tv = total_variation_distance(
        mock_result.counts, report.executions[0][1].counts
    )
    assert mock_tv > 0.2


def test_fig1_validation_catches_spec_drift(benchmark):
    """Figure 1's 'device characteristics needed for program development':
    a program valid at development time fails point-of-execution
    validation after the device specs shrink — with an actionable diff."""
    from repro.errors import ValidationError
    from repro.runtime import compare_targets
    from repro.qpu import DeviceSpecs

    def run():
        program = the_program()
        dev_specs = DeviceSpecs()
        assert not dev_specs.validate_register(program.register)
        # overnight, the device is re-commissioned with a tighter field of view
        prod_specs = dev_specs.bumped(min_atom_distance=6.0)
        diff = compare_targets(dev_specs, prod_specs)
        stack = build_stack(shot_rate_hz=100.0)
        stack.device.specs = prod_specs
        client = stack.client_for("dev", "production")
        try:
            client.submit(JobSpec(program=program, resource="onprem", shots=10))
            raise AssertionError("validation should have failed")
        except ValidationError as err:
            return diff, err.violations

    diff, violations = benchmark.pedantic(run, rounds=1, iterations=1)
    assert "min_atom_distance" in diff
    assert any("distance" in v for v in violations)
    print("\nspec drift diff:", diff)
    print("violations:", violations)
