"""Ablation C3/D6 — shot-rate roadmap (paper §2.2.1).

"For current neutral-atom devices, the shot rate is on the order of
1 Hz, with roadmaps projecting increases to around 100 Hz in the coming
years. Due to these time scales, we do not consider tight integration
... to be a practical concern."

Two experiments:

1. **latency budget**: decompose a hybrid iteration's round trip at
   1/10/100 Hz into queue wait + QPU execution + network + polling; the
   loose-coupling overhead (network + polling) must stay a small
   fraction of the total even at 100 Hz — the paper's justification for
   not needing tight coupling.
2. **pattern migration**: the same hybrid job's Table-1 class as a
   function of shot rate — a QPU-dominant job at 1 Hz becomes
   CPU-dominant at 100 Hz, which changes the correct scheduler hint.
   (A crossover the taxonomy predicts but the paper does not plot.)
"""

import numpy as np

from repro.analysis import format_table
from repro.qpu import Register
from repro.scheduling import WorkloadPattern, classify_pattern
from repro.sdk import AnalogCircuit
from repro.spec import JobSpec

from .harness import build_stack


def program(shots):
    return (
        AnalogCircuit(Register.chain(2, spacing=6.0), name="rate-probe")
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=shots)
    )


NETWORK_LATENCY_S = 0.05  # on-prem LAN round trip
POLL_INTERVAL_S = 1.0
SHOTS = 200
CLASSICAL_PER_ITER_S = 30.0


def run_latency_budget():
    rows = []
    for rate in (1.0, 10.0, 100.0):
        stack = build_stack(shot_rate_hz=rate, setup_overhead_s=2.0)
        client = stack.client_for("probe", "production")
        done = {}

        def runner():
            from repro.simkernel import Timeout

            submit_time = stack.sim.now
            task_id = client.submit(JobSpec(program=program(SHOTS), resource="onprem", shots=SHOTS))
            while True:
                status = client.status(task_id)
                if status["state"] == "completed":
                    break
                yield Timeout(POLL_INTERVAL_S)
            done["total"] = stack.sim.now - submit_time
            done["wait"] = status["started_at"] - status["enqueued_at"]
            done["exec"] = status["finished_at"] - status["started_at"]

        stack.sim.spawn(runner(), name="probe")
        stack.sim.run()
        overhead = done["total"] - done["exec"] - done["wait"] + 2 * NETWORK_LATENCY_S
        rows.append(
            {
                "shot_rate_hz": rate,
                "qpu_exec_s": round(done["exec"], 2),
                "queue_wait_s": round(done["wait"], 2),
                "coupling_overhead_s": round(overhead, 2),
                "overhead_fraction_%": round(100 * overhead / done["total"], 2),
            }
        )
    return rows


def test_c3_loose_coupling_latency_budget(benchmark):
    rows = benchmark.pedantic(run_latency_budget, rounds=1, iterations=1)
    print("\n" + format_table(rows, title="C3 — round-trip budget vs shot rate (200 shots)"))
    # execution dominates at 1 Hz overwhelmingly
    assert rows[0]["overhead_fraction_%"] < 2.0
    # even at the 100 Hz roadmap point, loose coupling costs < 40% of the
    # round trip for a 200-shot task — no tight integration needed yet
    assert rows[-1]["overhead_fraction_%"] < 40.0
    # execution time scales ~1/rate
    assert rows[0]["qpu_exec_s"] > 50 * rows[-1]["qpu_exec_s"]


def test_c3_pattern_migrates_with_shot_rate(benchmark):
    """The same job changes Table-1 class as the hardware speeds up."""

    def classify_over_rates():
        rows = []
        for rate in (1.0, 10.0, 100.0):
            qpu_seconds = SHOTS / rate
            pattern = classify_pattern(qpu_seconds, CLASSICAL_PER_ITER_S)
            rows.append(
                {
                    "shot_rate_hz": rate,
                    "qpu_s_per_iter": round(qpu_seconds, 2),
                    "classical_s_per_iter": CLASSICAL_PER_ITER_S,
                    "pattern": pattern.value,
                    "description": pattern.description,
                }
            )
        return rows

    rows = benchmark(classify_over_rates)
    print("\n" + format_table(rows, title="C3 — Table-1 class vs shot rate (one hybrid job)"))
    patterns = [r["pattern"] for r in rows]
    # the migration passes through the Balanced class on its way from
    # QPU-dominant (1 Hz) to CPU-dominant (100 Hz roadmap device)
    assert patterns == [
        WorkloadPattern.HIGH_QC_LOW_CC.value,
        WorkloadPattern.BALANCED.value,
        WorkloadPattern.LOW_QC_HIGH_CC.value,
    ]
