"""The benchmark's workloads: inputs from a seed, a stack, a timed episode.

Each workload turns ``--seed`` into its inputs once (:meth:`generate`);
the stack only ever sees those inputs.  :meth:`setup` builds a fresh
stack and warms it, :meth:`run` drives one episode through the public
entry points and returns what happened.  Two episodes of one workload
object replay exactly: every random stream is seeded from the inputs.

* ``dev-loop`` -- closed loop: four developer tenants iterate a
  variational adiabatic sweep on ``emu-sv`` (10/12 qubits) and
  ``emu-mps`` (chi=16, 16/20 qubits) behind the local daemon,
* ``qpu-shared`` -- open loop in simulated time: Poisson arrivals from
  16 users in three priority classes on one QPU in preempt mode,
* ``federated`` -- open loop in simulated time: Poisson arrivals from
  8 tenants, some multi-unit, through the broker over 4 QPU sites.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.accounting import FederationAccounting, RateBook, SiteRateCard
from repro.daemon import MiddlewareDaemon, SharingMode
from repro.daemon.queue import ShotCapPolicy, TaskState
from repro.federation import FederatedSite, FederationBroker, SiteRegistry
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qpu.pulses import CompositeWaveform, ConstantWaveform, RampWaveform
from repro.qrmi import LocalEmulatorResource, OnPremQPUResource
from repro.sdk import Pulse, Sequence, lower_to_hamiltonian
from repro.session import Session
from repro.simkernel import Simulator, Timeout
from repro.spec import JobSpec

from .checks import check_counts

__all__ = ["WORKLOADS", "Episode", "JobRecord", "make_workload", "quantile"]


@dataclass
class JobRecord:
    """One submitted job as the client saw it."""

    key: str
    n_qubits: int
    shots: int                      # shots the result must carry
    submitted: float                # simulated submit time
    finished: float | None = None   # simulated time the result was in hand
    wall_ms: float | None = None    # closed loop: submit -> result, wall ms
    counts: dict[str, int] | None = None
    error: str = ""

    def problem(self) -> str | None:
        if self.error:
            return self.error
        if self.counts is None:
            return "no result"
        return check_counts(self.counts, self.shots, self.n_qubits)


@dataclass
class Episode:
    """What one timed episode produced."""

    #: raw wall seconds of the whole timed region
    wall_s: float
    #: wall seconds of the timed intervals at reference machine speed
    #: (see :mod:`perfbench.speed`)
    work_s: float
    jobs: list[JobRecord]
    #: wall milliseconds per job at reference speed: one sample per job
    #: in the closed loop, one per simulated-time window in the open loops
    wall_ms_samples: list[float]
    #: simulated outcomes (deterministic for a seed)
    sim: dict[str, float]
    #: simulated per-layer facts (deterministic for a seed)
    layer: dict[str, float] = field(default_factory=dict)

    def problems(self) -> list[str]:
        out = []
        for job in self.jobs:
            problem = job.problem()
            if problem is not None:
                out.append(f"{job.key}: {problem}")
        return out

    def release_counts(self) -> None:
        """Drop the checked histograms, so memory stays flat however many
        episodes a run fits in."""
        for job in self.jobs:
            job.counts = None

    def digest(self) -> str:
        """Fingerprint of every simulated output of the episode."""
        h = hashlib.sha256()
        for job in self.jobs:
            counts = sorted((job.counts or {}).items())
            h.update(repr((job.key, job.submitted, job.finished, job.error, counts)).encode())
        h.update(repr(sorted(self.sim.items())).encode())
        h.update(repr(sorted(self.layer.items())).encode())
        return h.hexdigest()


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _sweep(n: int, spacing: float, omega: float, delta: float, duration: float, shots: int, name: str):
    """An adiabatic-sweep program written with the pulser-like SDK:
    drive ramps up, holds, ramps down while detuning sweeps -delta -> +delta."""
    sequence = Sequence(Register.chain(n, spacing=spacing), name=name)
    sequence.declare_channel("global", "rydberg_global")
    quarter = duration / 4.0
    sequence.add(
        Pulse(
            amplitude=CompositeWaveform(
                RampWaveform(quarter, 0.0, omega),
                ConstantWaveform(2 * quarter, omega),
                RampWaveform(quarter, omega, 0.0),
            ),
            detuning=CompositeWaveform(
                ConstantWaveform(quarter, -delta),
                RampWaveform(2 * quarter, -delta, delta),
                ConstantWaveform(quarter, delta),
            ),
        ),
        "global",
    )
    sequence.measure()
    return sequence.build(shots=shots)


def _warm(engines) -> None:
    """Charge first-call costs (lowering, emulator code paths) to set-up
    on a throwaway 2-atom program and private RNG, so the stack's own
    random streams are untouched."""
    tiny = _sweep(2, 6.0, 4.0, 4.0, 0.2, 10, "warm-up")
    ham = lower_to_hamiltonian(tiny)
    for engine in engines:
        engine.run(ham, 10, np.random.default_rng(0))


def _sim_outcomes(jobs: list[JobRecord], busy_s: list[float], prod_waits: list[float]) -> dict[str, float]:
    done = [j for j in jobs if j.finished is not None]
    makespan = max((j.finished for j in done), default=0.0)
    turnaround = [j.finished - j.submitted for j in done]
    util = (sum(busy_s) / len(busy_s) / makespan) if busy_s and makespan > 0 else 0.0
    return {
        "qpu_util": util,
        "turnaround_s_p50": quantile(turnaround, 0.5),
        "turnaround_s_p90": quantile(turnaround, 0.9),
        "prod_wait_s_p90": quantile(prod_waits, 0.9),
        "makespan_s": makespan,
    }


def _daemon_facts(daemons) -> tuple[dict[str, float], list[float]]:
    """Preemptions, failures and queue waits across site daemons; also
    the production-class waits."""
    waits, prod_waits = [], []
    preempted = failed = 0
    for daemon in daemons:
        preempted += daemon.scheduler.tasks_preempted
        for task in daemon.queue.all_tasks():
            if task.state is TaskState.FAILED:
                failed += 1
            wait = task.wait_time()
            if wait is not None:
                waits.append(wait)
                if task.priority.name == "PRODUCTION":
                    prod_waits.append(wait)
    facts = {
        "daemon.queue_wait_s_p90": quantile(waits, 0.9),
        "daemon.preempted": float(preempted),
        "daemon.failed": float(failed),
    }
    return facts, prod_waits


@dataclass
class _Stack:
    """One freshly built stack: what an episode drives and inspects."""

    sim: Simulator
    sessions: list[Session]
    daemons: list[MiddlewareDaemon]
    devices: list[QPUDevice] = field(default_factory=list)
    broker: FederationBroker | None = None
    catalog: list = field(default_factory=list)


class _Workload:
    name = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        if size not in self.SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.size = self.SIZES[size]
        self.generate(np.random.default_rng([self.SEED_SALT, seed]))

    @staticmethod
    def _episode(stack: _Stack, jobs: list[JobRecord], wall: float, work: float, samples: list[float]) -> Episode:
        """Collect the simulated outcomes of a finished episode."""
        facts, prod_waits = _daemon_facts(stack.daemons)
        busy = [d.busy_seconds for d in stack.devices]
        stats = stack.broker.stats() if stack.broker is not None else {}
        facts["qpu.busy_s"] = float(sum(busy))
        facts["federation.resize_events"] = float(stats.get("resize_events", 0))
        facts["federation.reroutes"] = float(stats.get("reroutes", 0))
        return Episode(
            wall_s=wall,
            work_s=work,
            jobs=jobs,
            wall_ms_samples=samples,
            sim=_sim_outcomes(jobs, busy, prod_waits),
            layer=facts,
        )


# -- dev-loop -----------------------------------------------------------------

class DevLoop(_Workload):
    """Four developer tenants, each a closed variational loop.

    Tenants submit at distinct simulated instants (offsets and periods
    never coincide) and emulators take no simulated time, so exactly
    one job is in flight at a time: a job's submit -> result wall time
    is both the latency the developer feels and the job's own cost.
    SV tenants iterate every 2 s, MPS tenants every 3 s, giving a
    3:3:2:2 job mix whose median falls inside the sv-12 jobs and whose
    90th percentile falls inside the MPS jobs.
    """

    name = "dev-loop"
    SEED_SALT = 101
    # tenant, emulator, qubits (full, tiny), period s, offset s, iterations (full, tiny)
    TENANTS = (
        ("dev-sv10", "emu-sv", (10, 4), 2.0, 0.0, (9, 2)),
        ("dev-sv12", "emu-sv", (12, 5), 2.0, 0.5, (9, 2)),
        ("dev-mps16", "emu-mps", (16, 6), 3.0, 1.25, (6, 1)),
        ("dev-mps20", "emu-mps", (20, 7), 3.0, 1.75, (6, 1)),
    )
    SIZES = {"full": 0, "tiny": 1}  # index into the (full, tiny) pairs above
    SHOTS = 200
    DURATION_US = 0.6

    def generate(self, rng) -> None:
        self.params = []
        for _ in self.TENANTS:
            self.params.append({
                # <= 5.2 um keeps a 20-atom chain inside the 50 um field of view
                "spacing": float(rng.uniform(4.6, 5.2)),
                "omega": float(rng.uniform(5.0, 9.0)),
                "delta": float(rng.uniform(6.0, 12.0)),
                "emu_seed": int(rng.integers(2**31)),
                "opt_seed": int(rng.integers(2**31)),
            })

    def setup(self):
        sim = Simulator()
        resources = {
            name: LocalEmulatorResource(name, emulator=emu, seed=p["emu_seed"])
            for (name, emu, *_), p in zip(self.TENANTS, self.params, strict=True)
        }
        daemon = MiddlewareDaemon(
            sim, resources,
            # emulators have no QPU to protect: developers get their shots
            shot_cap=ShotCapPolicy(test_max_shots=self.SHOTS, dev_max_shots=self.SHOTS),
        )
        sessions = [Session(daemon=daemon, user=name) for name, *_ in self.TENANTS]
        for session in sessions:
            session.attach_events()
        _warm(r.engine for r in resources.values())
        return _Stack(sim, sessions, [daemon])

    def run(self, stack: _Stack, gauge, span=None) -> Episode:
        sim = stack.sim
        span = span or (lambda name: nullcontext())
        jobs: list[JobRecord] = []

        def tenant(index: int):
            name, _, qubits, period, offset, iterations = self.TENANTS[index]
            n = qubits[self.size]
            p = self.params[index]
            opt = np.random.default_rng(p["opt_seed"])
            best = np.array([p["omega"], p["delta"]])
            best_energy = np.inf
            trial = best.copy()
            yield Timeout(offset)
            for i in range(iterations[self.size]):
                with span("client.build"):
                    program = _sweep(n, p["spacing"], trial[0], trial[1], self.DURATION_US, self.SHOTS, f"{name}-{i}")
                    spec = JobSpec(program=program, shots=self.SHOTS, resource=name)
                record = JobRecord(f"{name}/{i}", n, self.SHOTS, sim.now)
                jobs.append(record)
                with span("bench.calibrate"):
                    factor = gauge.factor()
                t0 = perf_counter()
                try:
                    handle = stack.sessions[index].submit(spec)
                    result = yield from handle.wait()
                except Exception as err:  # a refused or failed job is a measured failure
                    record.error = f"{type(err).__name__}: {err}"
                    return
                record.wall_ms = 1000.0 * (perf_counter() - t0) * factor
                record.finished = sim.now
                record.counts = result.counts
                with span("client.step"):
                    energy = _ising_energy(result.counts)
                    if energy < best_energy:
                        best, best_energy = trial, energy
                    step = opt.normal(0.0, (0.5, 1.0))
                    trial = np.clip(best + step, (2.0, 2.0), (11.0, 20.0))
                yield Timeout(period)

        for index in range(len(self.TENANTS)):
            sim.spawn(tenant(index), name=f"tenant-{index}")
        t0 = perf_counter()
        sim.run()
        wall = perf_counter() - t0
        samples = [j.wall_ms for j in jobs if j.wall_ms is not None]
        return self._episode(stack, jobs, wall, sum(samples) / 1000.0, samples)


def _ising_energy(counts: dict[str, int]) -> float:
    """Mean Rydberg-blockade Ising energy of a histogram: -1 per
    excitation, +2 per excited nearest-neighbour pair."""
    total = energy = 0.0
    for bits, count in counts.items():
        occ = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        energy += count * (-float(occ.sum()) + 2.0 * float((occ[:-1] & occ[1:]).sum()))
        total += count
    return energy / total


# -- the open loops -----------------------------------------------------------

@dataclass(frozen=True)
class _Arrival:
    gap: float        # simulated seconds since the previous arrival
    tenant: int
    program: int      # index into the program catalog
    shots: int
    iterations: int | None = None


def _catalog(rng, count: int, duration: float) -> list:
    """Small register programs; jobs draw from these so identical
    programs recur."""
    programs = []
    for k in range(count):
        n = 2 + k % 4
        programs.append(_sweep(
            n,
            float(rng.uniform(5.5, 7.5)),
            float(rng.uniform(4.0, 10.0)),
            float(rng.uniform(2.0, 6.0)),
            duration,
            100,
            f"catalog-{k}",
        ))
    return programs


def _fast_clock() -> ShotClock:
    # service times of a few simulated seconds against the 5 s
    # JobHandle.wait heartbeat: a job sees a handful of wake-ups
    return ShotClock(shot_rate_hz=50.0, setup_overhead_s=0.2, batch_size=100, batch_overhead_s=0.01)


def _submit_and_wait(session, spec, record: JobRecord, sim):
    try:
        handle = session.submit(spec)
        result = yield from handle.wait()
    except Exception as err:  # a refused or failed job is a measured failure
        record.error = f"{type(err).__name__}: {err}"
        return
    record.finished = sim.now
    record.counts = result.counts


class _OpenLoop(_Workload):
    """Poisson arrivals of catalog programs from a fixed set of tenants;
    each arrival is its own simulated client (submit, wait, fetch)."""

    QPUS = 1
    TENANTS = 1
    SHOT_CHOICES = (50, 100, 150, 200)
    PROGRAMS = 8
    #: 32 Trotter steps at the device's dt; every waveform part spans a
    #: whole number of steps (misaligned composite parts sample one step
    #: too many and the noisy batched evolution rejects them)
    DURATION_US = 0.32
    UTILIZATION = 0.8
    WINDOW_JOBS = 50         # expected completions per timed window

    def generate(self, rng) -> None:
        self.catalog_seed = int(rng.integers(2**31))
        self.device_seeds = [int(rng.integers(2**31)) for _ in range(self.QPUS)]
        self.rate = self.UTILIZATION * self.QPUS / self.mean_work_s()
        self.arrivals = [
            _Arrival(
                gap=float(rng.exponential(1.0 / self.rate)),
                tenant=int(rng.integers(self.TENANTS)),
                program=int(rng.integers(self.PROGRAMS)),
                shots=int(rng.choice(self.SHOT_CHOICES)),
                iterations=self.iterations(i),
            )
            for i in range(self.size)
        ]

    def iterations(self, index: int) -> int | None:
        return None

    def devices(self) -> list[QPUDevice]:
        return [QPUDevice(clock=_fast_clock(), rng=np.random.default_rng(s)) for s in self.device_seeds]

    def catalog(self) -> list:
        return _catalog(np.random.default_rng(self.catalog_seed), self.PROGRAMS, self.DURATION_US)

    def run(self, stack: _Stack, gauge, span=None) -> Episode:
        sim = stack.sim
        jobs: list[JobRecord] = []

        def arrivals():
            for i, a in enumerate(self.arrivals):
                yield Timeout(a.gap)
                program = stack.catalog[a.program]
                spec, shots = self.spec(a, program)
                record = JobRecord(f"job-{i}", program.num_qubits, shots, sim.now)
                jobs.append(record)
                sim.spawn(_submit_and_wait(stack.sessions[a.tenant], spec, record, sim))

        sim.spawn(arrivals(), name="arrivals")
        wall, work, samples = self._windows(sim, jobs, gauge)
        return self._episode(stack, jobs, wall, work, samples)

    def _windows(self, sim, jobs: list[JobRecord], gauge) -> tuple[float, float, list[float]]:
        """Run the simulation in windows of WINDOW_JOBS expected
        completions until every arrival has its result; returns (raw
        wall seconds, wall seconds at reference speed, reference-speed
        wall ms per job in each window that completed any)."""
        window_s = self.WINDOW_JOBS / self.rate
        samples: list[float] = []
        wall = work = 0.0
        done = 0
        while done < len(self.arrivals):
            if not sim.events:
                raise RuntimeError("simulation drained with jobs outstanding")
            factor = gauge.factor()
            t0 = perf_counter()
            sim.run(until=sim.now + window_s)
            elapsed = perf_counter() - t0
            wall += elapsed
            work += elapsed * factor
            now_done = sum(1 for j in jobs if j.finished is not None or j.error)
            if now_done > done:
                samples.append(1000.0 * elapsed * factor / (now_done - done))
            done = now_done
        return wall, work, samples


class QPUShared(_OpenLoop):
    """16 users share one on-prem QPU behind the daemon in preempt mode."""

    name = "qpu-shared"
    SEED_SALT = 202
    TENANTS = 16
    #: users 0-2 production, 3-7 test, 8-15 development (~20/30/50)
    CLASSES = ("production",) * 3 + ("test",) * 5 + ("development",) * 8
    SIZES = {"full": 2400, "tiny": 24}
    CAPS = ShotCapPolicy()  # the paper's initial sharing policy

    def _shots(self, cls: str, shots: int) -> int:
        cap = {"test": self.CAPS.test_max_shots, "development": self.CAPS.dev_max_shots}.get(cls)
        return shots if cap is None else min(shots, cap)

    def mean_work_s(self) -> float:
        """Expected QPU seconds per job over the class and shot mix."""
        clock = _fast_clock()
        total = 0.0
        for cls in self.CLASSES:
            batched = cls == "production" or not self.CAPS.disable_batching_below_production
            for shots in self.SHOT_CHOICES:
                total += clock.execution_time(self._shots(cls, shots), self.DURATION_US, batched=batched)
        return total / (len(self.CLASSES) * len(self.SHOT_CHOICES))

    def spec(self, a: _Arrival, program) -> tuple[JobSpec, int]:
        cls = self.CLASSES[a.tenant]
        spec = JobSpec(program=program, shots=a.shots, resource="onprem", priority_class=cls)
        return spec, self._shots(cls, a.shots)

    def setup(self) -> _Stack:
        sim = Simulator()
        (device,) = self.devices()
        daemon = MiddlewareDaemon(
            sim, {"onprem": OnPremQPUResource("onprem", device)},
            mode=SharingMode.PREEMPT, shot_cap=self.CAPS, scrape_interval=5.0,
        )
        sessions = [Session(daemon=daemon, user=f"user-{u:02d}") for u in range(self.TENANTS)]
        for session in sessions:
            session.attach_events()
        _warm([device._sv])
        return _Stack(sim, sessions, [daemon], [device], catalog=self.catalog())


class Federated(_OpenLoop):
    """8 tenants submit through the federation broker over 4 QPU sites."""

    name = "federated"
    SEED_SALT = 303
    QPUS = 4
    TENANTS = 8
    MALLEABLE_EVERY = 40     # one arrival in 40 is a multi-unit spec
    MALLEABLE_UNITS = 4
    UTILIZATION = 0.7
    SIZES = {"full": 3200, "tiny": 40}

    def iterations(self, index: int) -> int | None:
        last = index % self.MALLEABLE_EVERY == self.MALLEABLE_EVERY - 1
        return self.MALLEABLE_UNITS if last else None

    def mean_work_s(self) -> float:
        """Expected QPU seconds per arrival (sites run production, batched)."""
        clock = _fast_clock()
        per_unit = sum(
            clock.execution_time(s, self.DURATION_US, batched=True) for s in self.SHOT_CHOICES
        ) / len(self.SHOT_CHOICES)
        return per_unit * (1.0 + (self.MALLEABLE_UNITS - 1.0) / self.MALLEABLE_EVERY)

    def spec(self, a: _Arrival, program) -> tuple[JobSpec, int]:
        spec = JobSpec(program=program, shots=a.shots, iterations=a.iterations)
        return spec, a.shots * (a.iterations or 1)

    def setup(self) -> _Stack:
        sim = Simulator()
        registry = SiteRegistry(heartbeat_expiry=60.0)
        devices = self.devices()
        daemons = []
        for i, device in enumerate(devices):
            daemon = MiddlewareDaemon(sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0)
            registry.register(FederatedSite(f"site-{i}", daemon, max_queue_depth=12), now=0.0)
            daemons.append(daemon)
        registry.start_heartbeats(sim, interval=15.0)
        accounting = FederationAccounting(rates=RateBook(default=SiteRateCard(site="*", qpu_shot_price=0.01)))
        broker = FederationBroker(sim, registry, max_attempts=4, accounting=accounting)
        broker.spawn_housekeeping(interval=15.0)
        sessions = [Session(federation=broker, user=f"tenant-{t}") for t in range(self.TENANTS)]
        for session in sessions:
            session.attach_events()
        _warm([d._sv for d in devices])
        return _Stack(sim, sessions, daemons, devices, broker=broker, catalog=self.catalog())


WORKLOADS = {w.name: w for w in (DevLoop, QPUShared, Federated)}


def make_workload(name: str, seed: int, size: str = "full") -> _Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, size)

