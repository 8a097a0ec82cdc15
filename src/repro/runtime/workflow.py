"""A small hybrid workflow engine (paper §4 future work).

"Future work should ... through collaboration with partners better
support innovative solutions for scheduling, for example via workflow
engine integrations or malleable jobs."

A :class:`Workflow` is a DAG of steps, kept in two plain dicts (each
step's upstream names and its downstream names):

* **quantum steps** — an SDK program (or a builder reading upstream
  results) executed through a :class:`RuntimeEnvironment` — so the same
  workflow runs on emulators or the QPU, inheriting all of Figure 1's
  portability,
* **classical steps** — a Python callable over upstream results, with
  an optional ``classical_seconds`` cost so cluster simulations account
  for the time.

Execution is dependency-ordered; independent quantum steps submitted in
the same ready-set share the middleware queue concurrently (in daemon
mode), which is precisely the "fine-grained orchestration" hint of
Table 1's pattern C.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..errors import ReproError
from ..simkernel import Timeout
from .environment import RuntimeEnvironment
from .results import RunResult

__all__ = ["Workflow", "WorkflowResult"]


@dataclass
class _Step:
    name: str
    kind: str  # "quantum" | "classical"
    build: Callable[[dict[str, Any]], Any] | None = None  # quantum builder
    func: Callable[[dict[str, Any]], Any] | None = None   # classical body
    shots: int = 100
    qpu: str | None = None
    classical_seconds: float = 0.0
    #: upstream step names, deduplicated, in the order ``after`` gave them
    after: tuple[str, ...] = ()


@dataclass
class WorkflowResult:
    """Outputs of one workflow execution."""

    outputs: dict[str, Any] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def __getitem__(self, step: str) -> Any:
        if step not in self.outputs:
            raise ReproError(f"no output for step {step!r}")
        return self.outputs[step]


class Workflow:
    """DAG of hybrid steps over one RuntimeEnvironment."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._steps: dict[str, _Step] = {}
        #: downstream step names per step, in the order they were added
        self._children: dict[str, list[str]] = {}

    # -- construction ------------------------------------------------------

    def add_quantum(
        self,
        name: str,
        build: Callable[[dict[str, Any]], Any],
        after: tuple[str, ...] = (),
        shots: int = 100,
        qpu: str | None = None,
    ) -> "Workflow":
        """Quantum step: ``build(upstream_outputs) -> SDK object``."""
        self._add(_Step(name, "quantum", build=build, shots=shots, qpu=qpu), after)
        return self

    def add_classical(
        self,
        name: str,
        func: Callable[[dict[str, Any]], Any],
        after: tuple[str, ...] = (),
        classical_seconds: float = 0.0,
    ) -> "Workflow":
        """Classical step: ``func(upstream_outputs) -> anything``."""
        self._add(
            _Step(name, "classical", func=func, classical_seconds=classical_seconds),
            after,
        )
        return self

    def _add(self, step: _Step, after: tuple[str, ...]) -> None:
        if step.name in self._steps:
            raise ReproError(f"step {step.name!r} already in workflow")
        for dep in after:
            if dep not in self._steps:
                raise ReproError(f"step {step.name!r} depends on unknown {dep!r}")
        # every dependency already exists, so a new step never closes a cycle
        step.after = tuple(dict.fromkeys(after))
        self._steps[step.name] = step
        self._children[step.name] = []
        for dep in step.after:
            self._children[dep].append(step.name)

    def steps(self) -> list[str]:
        """Dependency order, generation by generation: the roots in the
        order they were added, then each step once its last upstream
        step is released, in the order its upstream steps gained it."""
        waiting = {name: len(step.after) for name, step in self._steps.items() if step.after}
        order = [name for name, step in self._steps.items() if not step.after]
        for name in order:  # grows while it is walked
            for child in self._children[name]:
                waiting[child] -= 1
                if not waiting[child]:
                    order.append(child)
        return order

    def _upstream(self, name: str, outputs: dict[str, Any]) -> dict[str, Any]:
        return {dep: outputs[dep] for dep in self._steps[name].after}

    # -- synchronous execution (direct mode) ---------------------------------

    def run(self, env: RuntimeEnvironment) -> WorkflowResult:
        result = WorkflowResult()
        for name in self.steps():
            step = self._steps[name]
            upstream = self._upstream(name, result.outputs)
            if step.kind == "quantum":
                assert step.build is not None
                program = step.build(upstream)
                result.outputs[name] = env.run(program, qpu=step.qpu, shots=step.shots)
            else:
                assert step.func is not None
                result.outputs[name] = step.func(upstream)
            result.order.append(name)
        return result

    # -- simulated execution (daemon mode, concurrent ready-set) --------------

    def as_payload(self, env: RuntimeEnvironment):
        """Payload factory for cluster jobs: executes the DAG level by
        level; quantum steps in the same level run concurrently through
        the middleware queue."""

        def payload(ctx):
            sim = ctx.sim
            result = WorkflowResult()
            remaining = set(self._steps)
            while remaining:
                ready = [
                    name
                    for name in remaining
                    if all(dep in result.outputs for dep in self._steps[name].after)
                ]
                if not ready:
                    raise ReproError("workflow deadlock: no ready steps")
                ready.sort()
                procs: list[tuple[str, Any]] = []
                for name in ready:
                    step = self._steps[name]
                    upstream = self._upstream(name, result.outputs)
                    if step.kind == "quantum":
                        assert step.build is not None
                        program = step.build(upstream)
                        gen = env.run_process(program, qpu=step.qpu, shots=step.shots)
                        procs.append((name, sim.spawn(gen, name=f"wf-{name}")))
                    else:
                        assert step.func is not None
                        if step.classical_seconds > 0:
                            yield Timeout(step.classical_seconds)
                        result.outputs[name] = step.func(upstream)
                        result.order.append(name)
                for name, proc in procs:
                    value = yield proc
                    result.outputs[name] = value
                    result.order.append(name)
                remaining -= set(ready)
            return result

        return payload

    @staticmethod
    def counts_of(output: Any) -> dict[str, int]:
        """Convenience: counts from a quantum step output."""
        if isinstance(output, RunResult):
            return output.counts
        raise ReproError(f"not a quantum step output: {type(output).__name__}")
