"""Self-tests of the benchmark: tiny sizes, so they run with the suite.

Run:  PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as cli
from perfbench.bench import END_TO_END, PER_LAYER, run_benchmark
from perfbench.checks import (
    REFERENCE_TV_BOUND,
    _reference_program,
    check_counts,
    reference_checks,
    total_variation,
)
from perfbench.ledger import SPANS, Ledger
from perfbench.speed import SpeedGauge
from perfbench.workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_exactly_the_metrics_the_code_prints():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS) == list(cli.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "per-layer"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    report = run_benchmark(workload, seed=3, seconds=0.0, trace=trace, size="tiny")
    assert report.correct, report.problems
    line = report.line()
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
    assert line["attempted"] >= 1 and line["failed"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_runs_simulate_identically(workload):
    bench = make_workload(workload, seed=5, size="tiny")
    gauge = SpeedGauge()
    plain = bench.run(bench.setup(), gauge)
    ledger = Ledger()
    with ledger.installed():
        traced = bench.run(bench.setup(), gauge, span=ledger.span)
    assert ledger.stats, "the traced episode recorded no spans"
    assert traced.sim == plain.sim
    assert traced.layer == plain.layer
    assert traced.digest() == plain.digest()


def _raw_entry_points():
    raw = {}
    for _, module, path, _, _ in SPANS:
        owner, attr = Ledger._resolve(module, path)
        raw[(module, path)] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    modules = {
        name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("repro.")
    }
    return raw, modules


def test_wrappers_are_gone_after_a_traced_run():
    before, modules_before = _raw_entry_points()
    ledger = Ledger()
    with ledger.installed():
        assert not ledger.is_clean()
    assert ledger.is_clean()
    report = run_benchmark("qpu-shared", seed=1, seconds=0.0, trace=True, size="tiny")
    assert report.correct, report.problems
    after, modules_after = _raw_entry_points()
    assert all(after[key] is before[key] for key in before)
    for name, namespace in modules_before.items():
        for attr, value in namespace.items():
            assert modules_after[name].get(attr) is value, f"{name}.{attr} still patched"


def test_total_variation_check_passes_real_and_fires_on_corrupted_counts():
    for label, tv, error in reference_checks(seed=7):
        assert error is None, (label, tv)
    from repro.emulators import StateVectorEmulator
    from repro.sdk import lower_to_hamiltonian

    program = _reference_program(6, seed=7)
    probs = StateVectorEmulator().probabilities(lower_to_hamiltonian(program))
    shots = 32000
    sampled = np.random.default_rng(0).multinomial(shots, probs / probs.sum())
    good = {format(i, "06b"): int(c) for i, c in enumerate(sampled) if c}
    assert total_variation(good, probs) < REFERENCE_TV_BOUND
    # corrupt: complement every bitstring (a readout that swaps 0 and 1)
    corrupted = {key.translate(str.maketrans("01", "10")): count for key, count in good.items()}
    assert check_counts(corrupted, shots, 6) is None  # well-formed ...
    assert total_variation(corrupted, probs) > REFERENCE_TV_BOUND  # ... but wrong


def test_count_checks_reject_malformed_histograms():
    assert check_counts({"01": 3, "10": 2}, 5, 2) is None
    assert "sum" in check_counts({"01": 3, "10": 1}, 5, 2)
    assert "bad key" in check_counts({"011": 5}, 5, 2)
    assert "bad key" in check_counts({"0x": 5}, 5, 2)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "dev-loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
