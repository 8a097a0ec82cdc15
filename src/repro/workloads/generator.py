"""Synthetic hybrid job streams for the scheduling experiments.

A :class:`HybridJobFactory` turns a Table-1 pattern into a concrete
hybrid job: a payload that alternates QPU tasks (submitted through the
middleware daemon) and classical compute (simulated CPU time), with the
split chosen to land in the requested pattern class.  A
:class:`JobStream` draws jobs from a pattern mix with Poisson arrivals,
reproducibly from a named RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SchedulerError
from ..qpu.geometry import Register
from ..scheduling.interleave import HybridJobEstimate
from ..scheduling.patterns import WorkloadPattern, hint_for_pattern
from ..sdk.qiskit_like import AnalogCircuit
from ..simkernel import RngRegistry, Timeout
from ..spec import JobSpec

__all__ = ["HybridJobFactory", "JobStream", "StreamConfig"]


#: per-pattern (qpu_burst_shots, classical_seconds_per_iter, iterations)
#: chosen so a 1 Hz QPU lands the job in the right Table-1 class.
PATTERN_SHAPES: dict[WorkloadPattern, tuple[int, float, int]] = {
    WorkloadPattern.HIGH_QC_LOW_CC: (120, 5.0, 3),
    WorkloadPattern.LOW_QC_HIGH_CC: (30, 300.0, 2),
    WorkloadPattern.BALANCED: (60, 60.0, 4),
}


@dataclass(frozen=True)
class SyntheticHybridJob:
    """One generated job: identity + expected time budgets + payload ingredients."""

    name: str
    user: str
    pattern: WorkloadPattern
    shots_per_burst: int
    classical_seconds: float
    iterations: int
    n_atoms: int = 4

    @property
    def hint(self) -> str:
        return hint_for_pattern(self.pattern).value

    def expected_qpu_seconds(self, shot_period_s: float = 1.0) -> float:
        return self.iterations * self.shots_per_burst * shot_period_s

    def expected_classical_seconds(self) -> float:
        return self.iterations * self.classical_seconds

    def estimate(self, shot_period_s: float = 1.0) -> HybridJobEstimate:
        return HybridJobEstimate(
            job_name=self.name,
            qpu_seconds=self.expected_qpu_seconds(shot_period_s),
            classical_seconds=self.expected_classical_seconds(),
        )

    def quantum_circuit(self) -> AnalogCircuit:
        reg = Register.chain(self.n_atoms, spacing=6.0)
        return (
            AnalogCircuit(reg, name=f"{self.name}-burst")
            .rx_global(np.pi / 2, duration=0.3)
            .measure_all()
        )

    def payload(self, client_factory, resource: str):
        """Build the cluster-job payload: iterations of (QPU burst via
        daemon, classical compute).

        ``client_factory() -> DaemonClient`` with an open session for
        this job's user/priority.
        """

        def run(ctx):
            client = client_factory()
            program = self.quantum_circuit().transpile(shots=self.shots_per_burst)
            # unvalidated: the daemon validates it and fills the tenant
            # with this job's session user
            spec = JobSpec(program=program, resource=resource)
            for _ in range(self.iterations):
                task_id = client.submit(spec)
                while True:
                    status = client.status(task_id)
                    if status["state"] in ("completed", "failed", "cancelled"):
                        break
                    yield Timeout(1.0)
                if status["state"] != "completed":
                    raise SchedulerError(f"{self.name}: burst ended {status['state']}")
                if self.classical_seconds > 0:
                    yield Timeout(self.classical_seconds)
            return {"job": self.name, "iterations": self.iterations}

        return run


class HybridJobFactory:
    """Builds SyntheticHybridJobs for a pattern."""

    def __init__(self, n_atoms: int = 4) -> None:
        self.n_atoms = n_atoms
        self._counter = 0

    def make(self, pattern: WorkloadPattern, user: str = "user") -> SyntheticHybridJob:
        shots, classical, iters = PATTERN_SHAPES[pattern]
        self._counter += 1
        return SyntheticHybridJob(
            name=f"{pattern.value.lower()}-job-{self._counter}",
            user=user,
            pattern=pattern,
            shots_per_burst=shots,
            classical_seconds=classical,
            iterations=iters,
            n_atoms=self.n_atoms,
        )


@dataclass
class StreamConfig:
    """Pattern mix + arrival process."""

    mix: dict[WorkloadPattern, float] = field(
        default_factory=lambda: {
            WorkloadPattern.HIGH_QC_LOW_CC: 1 / 3,
            WorkloadPattern.LOW_QC_HIGH_CC: 1 / 3,
            WorkloadPattern.BALANCED: 1 / 3,
        }
    )
    arrival_rate_per_hour: float = 6.0
    num_jobs: int = 12
    users: tuple[str, ...] = ("alice", "bob", "carol")

    def __post_init__(self) -> None:
        total = sum(self.mix.values())
        if total <= 0:
            raise SchedulerError("pattern mix must have positive weight")
        self.mix = {p: w / total for p, w in self.mix.items()}


class JobStream:
    """Reproducible Poisson stream of synthetic hybrid jobs."""

    def __init__(self, config: StreamConfig, rng_registry: RngRegistry, factory: HybridJobFactory | None = None) -> None:
        self.config = config
        self.rng = rng_registry.get("job-stream")
        self.factory = factory or HybridJobFactory()

    def generate(self) -> list[tuple[float, SyntheticHybridJob]]:
        """(arrival_time_s, job) pairs, sorted by arrival."""
        cfg = self.config
        patterns = list(cfg.mix.keys())
        weights = np.array([cfg.mix[p] for p in patterns])
        mean_gap = 3600.0 / cfg.arrival_rate_per_hour
        arrivals = np.cumsum(self.rng.exponential(mean_gap, size=cfg.num_jobs))
        jobs = []
        for i in range(cfg.num_jobs):
            pattern = patterns[int(self.rng.choice(len(patterns), p=weights))]
            user = cfg.users[i % len(cfg.users)]
            jobs.append((float(arrivals[i]), self.factory.make(pattern, user=user)))
        return jobs
