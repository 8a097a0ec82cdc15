"""Output checks: every result is well-formed, and a few reference
programs sample the distribution the exact state vector predicts."""

from __future__ import annotations

import numpy as np

__all__ = [
    "REFERENCE_TV_BOUND",
    "check_counts",
    "reference_checks",
    "total_variation",
]

#: largest total-variation distance a reference run may show against
#: the exact ``emu-sv`` distribution.  At 32000 shots, sampling noise
#: alone keeps TV near 0.02 for these 6- and 8-atom programs; the MPS
#: run also drops next-nearest-neighbour interactions (1/64 of the
#: nearest-neighbour coupling at the reference spacing), which costs
#: up to ~0.03 more.  A corrupted histogram reads far above the bound.
REFERENCE_TV_BOUND = 0.08
REFERENCE_SHOTS = 32000
REFERENCE_SPACING_UM = 8.0


def check_counts(counts: dict[str, int], shots: int, n_qubits: int) -> str | None:
    """None when ``counts`` is a valid n-bit histogram of ``shots``
    shots, else what is wrong with it."""
    total = 0
    for bits, count in counts.items():
        if len(bits) != n_qubits or bits.strip("01"):
            return f"bad key {bits!r} for {n_qubits} qubits"
        if count < 1:
            return f"non-positive count {count} for {bits!r}"
        total += count
    if total != shots:
        return f"counts sum to {total}, expected {shots}"
    return None


def total_variation(counts: dict[str, int], probs: np.ndarray) -> float:
    """TV distance between a sampled histogram and an exact
    distribution over ``len(probs)`` basis states (qubit 0 leftmost)."""
    shots = sum(counts.values())
    empirical = np.zeros_like(probs)
    for bits, count in counts.items():
        empirical[int(bits, 2)] = count / shots
    return 0.5 * float(np.abs(empirical - probs).sum())


def _reference_program(n: int, seed: int):
    from repro.qpu import Register
    from repro.qpu.pulses import CompositeWaveform, ConstantWaveform, RampWaveform
    from repro.sdk import Pulse, Sequence

    rng = np.random.default_rng([seed, n])
    omega = float(rng.uniform(4.0, 7.0))
    delta = float(rng.uniform(4.0, 8.0))
    sequence = Sequence(Register.chain(n, spacing=REFERENCE_SPACING_UM), name=f"reference-{n}")
    sequence.declare_channel("global", "rydberg_global")
    sequence.add(
        Pulse(
            amplitude=CompositeWaveform(
                RampWaveform(0.2, 0.0, omega), ConstantWaveform(0.4, omega)
            ),
            detuning=RampWaveform(0.6, -delta, delta),
        ),
        "global",
    )
    sequence.measure()
    return sequence.build(shots=REFERENCE_SHOTS)


def reference_checks(seed: int) -> list[tuple[str, float, str | None]]:
    """Run the reference programs through the public stack (Session ->
    daemon REST -> QRMI -> emulator) and compare each sampled histogram
    against exact state-vector probabilities computed here.

    Returns ``(label, tv, error)`` per reference; ``error`` is None
    when the run is within :data:`REFERENCE_TV_BOUND`.
    """
    from repro.daemon import MiddlewareDaemon
    from repro.daemon.queue import ShotCapPolicy
    from repro.emulators import StateVectorEmulator
    from repro.qrmi import LocalEmulatorResource
    from repro.sdk import lower_to_hamiltonian
    from repro.session import Session
    from repro.simkernel import Simulator
    from repro.spec import JobSpec

    sim = Simulator()
    daemon = MiddlewareDaemon(
        sim,
        {
            "ref-sv": LocalEmulatorResource("ref-sv", emulator="emu-sv", seed=seed),
            "ref-mps": LocalEmulatorResource("ref-mps", emulator="emu-mps", seed=seed),
        },
        shot_cap=ShotCapPolicy(test_max_shots=REFERENCE_SHOTS, dev_max_shots=REFERENCE_SHOTS),
    )
    session = Session(daemon=daemon, user="reference")
    session.attach_events()
    exact = StateVectorEmulator(max_qubits=14)
    out: list[tuple[str, float, str | None]] = []
    for resource, n in (("ref-sv", 6), ("ref-mps", 8)):
        program = _reference_program(n, seed)
        handle = session.submit(JobSpec(program=program, resource=resource))
        result = sim.run_until_process(sim.spawn(handle.wait()))
        label = f"{resource}:{n}q"
        error = check_counts(result.counts, REFERENCE_SHOTS, n)
        probs = exact.probabilities(lower_to_hamiltonian(program))
        tv = total_variation(result.counts, probs) if error is None else 1.0
        if error is None and tv > REFERENCE_TV_BOUND:
            error = f"TV {tv:.4f} > {REFERENCE_TV_BOUND}"
        out.append((label, tv, error))
    return out
