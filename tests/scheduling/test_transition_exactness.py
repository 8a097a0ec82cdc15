"""Scheduling metrics and job metadata read from what the stack keeps
anyway, checked against values recorded before they were.

The daemon, its scheduler and its QPU once wrote trace rows that
:class:`~repro.scheduling.SchedulingMetrics` was computed from, and the
daemon stored one metadata record per completed task.  Both are views
now: the metrics fold the lifecycle bus's task transitions through a
:class:`~repro.scheduling.TransitionCollector`, and ``GET
/tasks/{id}/metadata`` is built from the completed task.
``transitions_golden.json`` holds what the rows and the records gave on
the run below, in both sharing modes; the PREEMPT run preempts 7 tasks.
Every value must come out the same, to the bit.
"""

import json
import pathlib
from dataclasses import asdict

import numpy as np
import pytest

from benchmarks.harness import build_stack
from repro.daemon import SharingMode
from repro.qpu import Register
from repro.sdk import AnalogCircuit
from repro.spec import JobSpec

GOLDEN = json.loads((pathlib.Path(__file__).parent / "transitions_golden.json").read_text())

CLASSES = ("development", "test", "production")


def run(mode):
    """30 jobs of three classes, 1 in 6 on the emulator, arriving over
    ~150 s on a QPU busy ~70-80 % of the time."""
    stack = build_stack(shot_rate_hz=14.0, mode=mode, seed=5, setup_overhead_s=0.5, with_emulator=True)
    clients = {c: stack.client_for(f"user-{c}", priority_class=c) for c in CLASSES}
    programs = [
        AnalogCircuit(Register.chain(n, spacing=6.0), name=f"exact-{n}")
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=20 + 10 * n)
        for n in (2, 3, 4)
    ]
    submitted = []
    preempted_by = []
    stack.daemon.events.subscribe(
        lambda e: preempted_by.append((e.task_id, e.payload["by"])), kinds=("preempted",)
    )
    for i in range(30):
        cls = CLASSES[(i * 7 + i // 4) % 3]
        resource = "emu" if i % 6 == 5 else "onprem"
        spec = JobSpec(program=programs[i % 3], resource=resource)

        def submit(cls=cls, spec=spec):
            submitted.append((cls, clients[cls].submit(spec)))

        stack.sim.call_in(5.0 * i + (i % 4) * 0.75, submit)
    stack.sim.run(until=1000.0)
    bodies = {}
    for cls, task_id in submitted:
        if clients[cls].status(task_id)["state"] == "completed":
            bodies[task_id] = clients[cls].job_metadata(task_id)
    jobmeta = stack.daemon.jobmeta
    out = {
        "metrics": asdict(stack.metrics()),
        "metadata": bodies,
        "preempted": stack.daemon.scheduler.tasks_preempted,
        "order": [r.task_id for r in jobmeta.in_window(0.0, 1e9)],
        "users": {c: [r.task_id for r in jobmeta.for_user(f"user-{c}")] for c in CLASSES},
        "len": len(jobmeta),
    }
    return json.loads(json.dumps(out)), stack, preempted_by


@pytest.mark.parametrize("mode", [SharingMode.SHOT_CAP, SharingMode.PREEMPT], ids=lambda m: m.name)
def test_metrics_and_metadata_match_the_recorded_run(mode):
    got, _, _ = run(mode)
    want = GOLDEN[mode.name]
    assert got["metrics"] == want["metrics"]
    assert got["metadata"] == want["metadata"]
    assert (got["order"], got["users"], got["len"]) == (want["order"], want["users"], want["len"])
    assert got["preempted"] == want["preempted"]


def test_each_preemption_names_the_higher_class_task_behind_it():
    got, stack, preempted_by = run(SharingMode.PREEMPT)
    assert len(preempted_by) == got["preempted"] == 7
    queue = stack.daemon.queue
    for task_id, by in preempted_by:
        assert queue.get(by).priority < queue.get(task_id).priority
