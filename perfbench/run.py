"""Layer-ledger benchmark: the paper's runtime paths, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload dev-loop --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ledger (and writes the raw spans under ``perfbench/out/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  The program under test is
``src/repro`` of this checkout; without it the command exits with 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dev-loop", "qpu-shared", "federated")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> None:
    """One BLAS/OpenMP thread (<= nproc): the SVD and matmul timings then
    measure the program, not how the OS schedules helper threads.  Must
    run before numpy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    ``repro`` that imports is that one, not an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _pin_threads()
    try:
        _import_program()
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    from perfbench.bench import run_benchmark

    spans_out = None
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_out = out_dir / f"spans-{args.workload}.json"
    report = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_out=spans_out
    )
    for note in report.notes:
        print(note)
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in report.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps(report.line()))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
