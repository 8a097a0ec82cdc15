"""Shared experiment builders for the benchmark suite.

Every benchmark builds its stack through here so scenarios differ only
in the parameter under study.  Conventions:

* all randomness flows from one ``RngRegistry(seed)``,
* metrics come from :mod:`repro.scheduling.metrics` (uniform
  definitions), folded from the daemon's task transitions by the
  collector :func:`build_stack` attaches,
* each bench prints paper-style rows via
  :func:`repro.analysis.tables.format_table` and asserts the *shape*
  claims from DESIGN.md's experiment index (who wins, monotonicity),
  not absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.daemon import MiddlewareDaemon, SharingMode, build_router
from repro.daemon.queue import ShotCapPolicy
from repro.qpu import QPUDevice, ShotClock
from repro.qrmi import LocalEmulatorResource, OnPremQPUResource
from repro.runtime import DaemonClient
from repro.scheduling import SchedulingMetrics, TransitionCollector
from repro.scheduling.interleave import InterleavePlan
from repro.simkernel import RngRegistry, Simulator
from repro.workloads.generator import SyntheticHybridJob

__all__ = ["Stack", "build_federation_stack", "build_stack", "run_interleave_plan"]


@dataclass
class Stack:
    """One assembled HPC-QC stack instance."""

    sim: Simulator
    daemon: MiddlewareDaemon
    device: QPUDevice
    router: object
    #: the daemon's task transitions, collected from the first submit
    transitions: TransitionCollector

    def client_for(self, user: str, priority_class: str = "production") -> DaemonClient:
        client = DaemonClient(self.router)
        client.open_session(user, priority_class=priority_class)
        return client

    def metrics(self, classical_utilization: float | None = None) -> SchedulingMetrics:
        return SchedulingMetrics.from_transitions(
            self.transitions, resource="onprem", classical_utilization=classical_utilization
        )


def build_stack(
    shot_rate_hz: float = 1.0,
    mode: SharingMode = SharingMode.SHOT_CAP,
    shot_cap: ShotCapPolicy | None = None,
    algorithm=None,
    seed: int = 0,
    setup_overhead_s: float = 0.0,
    scrape_interval: float = 60.0,
    with_emulator: bool = False,
) -> Stack:
    """QPU + daemon + REST router, fully wired."""
    sim = Simulator()
    rng = RngRegistry(seed)
    device = QPUDevice(
        clock=ShotClock(
            shot_rate_hz=shot_rate_hz,
            setup_overhead_s=setup_overhead_s,
            batch_overhead_s=0.0,
        ),
        rng=rng.get("device"),
    )
    resources = {"onprem": OnPremQPUResource("onprem", device)}
    if with_emulator:
        resources["emu"] = LocalEmulatorResource("emu", emulator="emu-sv", seed=seed)
    daemon = MiddlewareDaemon(
        sim,
        resources,
        mode=mode,
        shot_cap=shot_cap if shot_cap is not None else ShotCapPolicy(
            test_max_shots=10**9, dev_max_shots=10**9,
            disable_batching_below_production=False,
        ),
        algorithm=algorithm,
        scrape_interval=scrape_interval,
    )
    return Stack(
        sim=sim, daemon=daemon, device=device, router=build_router(daemon),
        transitions=TransitionCollector(daemon),
    )


def build_federation_stack(
    n_sites: int = 3,
    shot_rate_hz: float = 1.0,
    max_queue_depth: int = 12,
    policy=None,
    seed: int = 0,
    heartbeat_interval: float = 15.0,
    accounting=None,
    housekeeping_jitter: float = 0.0,
):
    """N single-QPU sites on one clock behind a broker — the shared
    scenario base for the federation, cross-site-malleability, and
    accounting benches.  ``accounting`` optionally wires a
    :class:`~repro.accounting.FederationAccounting` into the broker.
    Returns (sim, registry, broker, sites)."""
    from repro.federation import FederatedSite, FederationBroker, SiteRegistry

    sim = Simulator()
    rng = RngRegistry(seed)
    registry = SiteRegistry(heartbeat_expiry=60.0)
    sites = {}
    for i in range(n_sites):
        device = QPUDevice(
            clock=ShotClock(
                shot_rate_hz=shot_rate_hz,
                setup_overhead_s=0.0,
                batch_overhead_s=0.0,
            ),
            rng=rng.get(f"dev{i}"),
        )
        daemon = MiddlewareDaemon(
            sim,
            {"onprem": OnPremQPUResource("onprem", device)},
            scrape_interval=120.0,
        )
        site = FederatedSite(f"site-{i}", daemon, max_queue_depth=max_queue_depth)
        registry.register(site, now=0.0)
        sites[site.name] = site
    registry.start_heartbeats(sim, interval=heartbeat_interval)
    broker = FederationBroker(
        sim, registry, policy=policy, max_attempts=4, accounting=accounting
    )
    broker.spawn_housekeeping(
        interval=heartbeat_interval, jitter=housekeeping_jitter, seed=seed
    )
    return sim, registry, broker, sites


def run_interleave_plan(
    plan: InterleavePlan,
    jobs_by_name: dict[str, SyntheticHybridJob],
    shot_rate_hz: float = 1.0,
    seed: int = 0,
) -> SchedulingMetrics:
    """Execute an interleave plan wave-by-wave on a fresh stack.

    All jobs in a wave run concurrently (the planner's co-scheduling
    decision); the next wave starts when the whole wave finishes —
    modeling the cluster admitting the planned batch.
    """
    stack = build_stack(shot_rate_hz=shot_rate_hz, seed=seed)

    def driver():
        for wave in plan.waves:
            procs = []
            for estimate in wave:
                job = jobs_by_name[estimate.job_name]

                def client_factory(user=job.user):
                    return stack.client_for(user, priority_class="production")

                payload = job.payload(client_factory, "onprem")
                procs.append(stack.sim.spawn(payload(None), name=job.name))
            for proc in procs:
                if proc.alive:
                    yield proc

    driver_proc = stack.sim.spawn(driver(), name="wave-driver")
    stack.sim.run_until_process(driver_proc)
    return stack.metrics()


# -- bench-regression gate (CI) ---------------------------------------------
#
# Every simulation above is a deterministic discrete-event run from
# fixed seeds, so makespan/throughput numbers are exact and
# machine-independent: a changed number means the *scheduling logic*
# changed, not the weather.  CI runs this module as a script, writes
# BENCH_pr.json, and fails when any metric regresses more than the
# tolerance against the committed benchmarks/BENCH_baseline.json.
# Metric direction is encoded in the name prefix: ``makespan_*``,
# ``tickcost_*`` and ``footprint_*`` must not rise, ``throughput_*``
# must not fall.


#: full-mode C6 total-wall/probe ratio of the last pre-batching core
#: (committed baseline before the batch-oriented kernel landed) — the
#: >=1.8x speed contract is measured against it
_C6_PRE_BATCHING_RATIO = 9094.144


def _numpy_probe(rows: int, width: int, rounds: int):
    """A fixed repro-free NumPy loop: ``rounds`` rounds of a 16x16
    complex matmul over a (rows, width, 16) array, a transposing copy
    and an elementwise phase.

    The emu-sv kernel is bound by BLAS and by NumPy call overhead, which
    the pure-python ``_probe_ms`` does not track from one machine (or
    NumPy build) to the next; this probe does the same kind of work, so
    the kernel/probe ratio is what stays put.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    unitary = np.linalg.qr(rng.standard_normal((16, 16)))[0].astype(np.complex128)
    phase = np.exp(1j * rng.standard_normal(rows * width * 16))

    def probe() -> None:
        state = np.ones(rows * width * 16, dtype=np.complex128)
        for _ in range(rounds):
            lead = state.reshape(rows, width, 16) @ unitary
            state = lead.transpose(0, 2, 1).reshape(-1) * phase

    return probe


def _paired_ratio(call, probe, repeats: int) -> tuple[float, float, float]:
    """Median over ``repeats`` back-to-back (call, probe) pairs of the
    wall-time ratio call/probe, after a warm-up, plus the best wall ms
    of each.  Each pair sees the same stretch of machine load, so the
    median ratio holds still while the raw times swing."""
    import statistics
    import time

    call()
    probe()
    times: list[list[float]] = [[], []]
    for _ in range(repeats):
        for fn, spent in zip((call, probe), times, strict=True):
            t0 = time.perf_counter()
            fn()
            spent.append(time.perf_counter() - t0)
    ratio = statistics.median(c / p for c, p in zip(*times, strict=True))
    return ratio, min(times[0]) * 1e3, min(times[1]) * 1e3


def run_emulator_rows() -> dict:
    """Wall cost of the ``emu-sv`` Strang kernel over a same-machine
    NumPy probe of matching shape, for one 12-qubit noiseless 60-step
    ``evolve`` (``dense_*``), one pass of 2-5-atom noisy 32-step
    ``evolve_many`` batches of R=4 realizations (``noisy_small_*``), and
    one pass of whole noisy ``run`` calls on the same shapes under the
    QPU's nominal calibration noise -- evolution, multinomial, SPAM and
    histogram (``run_small_*``): the paired ratio plus the best kernel
    and probe wall ms."""
    import numpy as np

    from repro.emulators import StateVectorEmulator
    from repro.qpu import (
        CalibrationState,
        ConstantWaveform,
        DriveSegment,
        RampWaveform,
        Register,
        RydbergHamiltonian,
    )

    def ham(n: int, duration: float) -> RydbergHamiltonian:
        seg = DriveSegment(
            ConstantWaveform(duration, 5.0), RampWaveform(duration, -4.0, 4.0), phase=0.3
        )
        return RydbergHamiltonian(Register.chain(n, spacing=6.0), [seg], dt=0.01)

    emu = StateVectorEmulator()
    dense_ham = ham(12, 0.6)
    small = [ham(n, 0.32) for n in range(2, 6)]
    rng = np.random.default_rng(0)
    scales = 1.0 + 0.03 * rng.standard_normal(4)
    offsets = 0.1 * rng.standard_normal(4)

    def noisy_pass() -> None:
        for h in small:
            emu.evolve_many(h, scales, offsets)

    noise = CalibrationState().to_noise_model()
    shots_rng = np.random.default_rng(1)

    def run_pass() -> None:
        for h in small:
            emu.run(h, 100, shots_rng, noise=noise)

    # 60 steps x 3 qubit groups on a 2^12 state; and about as many
    # NumPy calls on tiny arrays as the 4 x 32-step noisy pass
    dense = _paired_ratio(lambda: emu.evolve(dense_ham), _numpy_probe(1, 256, 180), 15)
    noisy = _paired_ratio(noisy_pass, _numpy_probe(4, 1, 512), 40)
    run = _paired_ratio(run_pass, _numpy_probe(4, 1, 512), 40)
    return {
        "dense_ratio": dense[0],
        "dense_ms": dense[1],
        "dense_probe_ms": dense[2],
        "noisy_small_ratio": noisy[0],
        "noisy_small_ms": noisy[1],
        "noisy_probe_ms": noisy[2],
        "run_small_ratio": run[0],
        "run_small_ms": run[1],
    }


def run_emu_sv_statics_row() -> dict:
    """Wall cost of the ``emu-sv`` per-program set-up over the same
    kind of NumPy probe as :func:`run_emulator_rows`: the first
    ``fused_diagonals()`` of a fresh 12-qubit and a fresh 14-qubit
    60-step Hamiltonian per call -- the interaction phase rows, drive
    half-angles and popcount phases a new program pays once before its
    first step.  The Hamiltonians are built before the timed region,
    so the row holds the statics alone: the paired ratio plus the best
    wall ms of the statics and of the probe."""
    from repro.qpu import ConstantWaveform, DriveSegment, RampWaveform, Register, RydbergHamiltonian

    seg = DriveSegment(ConstantWaveform(0.6, 5.0), RampWaveform(0.6, -4.0, 4.0), phase=0.3)
    repeats = 15
    # one fresh pair per call, the warm-up included; a pair is dropped
    # (caches and all) once its call is done
    fresh = [
        [RydbergHamiltonian(Register.chain(n, spacing=6.0), [seg], dt=0.01) for n in (12, 14)]
        for _ in range(repeats + 1)
    ]

    def statics() -> None:
        for ham in fresh.pop():
            ham.fused_diagonals()

    ratio, statics_ms, probe_ms = _paired_ratio(statics, _numpy_probe(1, 64, 60), repeats)
    return {"ratio": ratio, "statics_ms": statics_ms, "probe_ms": probe_ms}


def _numpy_split_probe(rounds: int):
    """A fixed repro-free NumPy loop: ``rounds`` rounds of a 32x32
    complex Gram matmul, its ``eigh`` and a QR of the same matrix.

    These are the calls of an emu-mps bond split at chi=16 that falls
    back to the optimal ``eigh`` truncation.  The probe itself stays
    fixed as the machine reference, so the evolve/probe ratios hold
    still where LAPACK speed differs from one machine (or NumPy build)
    to the next.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    theta = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))

    def probe() -> None:
        for _ in range(rounds):
            np.linalg.eigh(theta @ theta.conj().T)
            np.linalg.qr(theta)

    return probe


def run_emu_mps_row() -> dict:
    """Wall cost of two ``emu-mps`` ``evolve`` shapes over the same
    same-machine NumPy probe: the paired ratio plus the best evolve and
    probe wall ms of each.

    * ``ratio``: one 20-qubit chi=16 60-step evolve, the dev-loop
      shape.  Its 616 truncating bond splits are all on saturated bonds
      and lose ~8e-14 in total, so each is one Q-only seeded QR; its
      290 exact gauge moves take a QR with R as well.
    * ``truncating_ratio``: one 24-qubit chi=8 100-step evolve of the
      bond-dimension ablation's adiabatic sweep.  It truncates heavily
      enough that 880 of its 1,649 truncating splits use ``eigh`` (34
      of them after a seeded QR lost too much); the other 769 are
      seeded QRs.
    """
    from benchmarks.bench_ablation_bond_dimension import sweep_ham
    from repro.emulators import MPSEmulator
    from repro.qpu import ConstantWaveform, DriveSegment, RampWaveform, Register, RydbergHamiltonian

    seg = DriveSegment(ConstantWaveform(0.6, 5.0), RampWaveform(0.6, -4.0, 4.0), phase=0.3)
    ham = RydbergHamiltonian(Register.chain(20, spacing=6.0), [seg], dt=0.01)
    emu = MPSEmulator(max_bond_dim=16)
    ratio, evolve_ms, probe_ms = _paired_ratio(lambda: emu.evolve(ham), _numpy_split_probe(450), 9)
    sweep, narrow = sweep_ham(24), MPSEmulator(max_bond_dim=8)
    truncating = _paired_ratio(lambda: narrow.evolve(sweep), _numpy_split_probe(450), 9)
    return {
        "ratio": ratio,
        "evolve_ms": evolve_ms,
        "probe_ms": probe_ms,
        "truncating_ratio": truncating[0],
        "truncating_ms": truncating[1],
    }


def _python_probe(iterations: int):
    """A fixed repro-free pure-Python loop: ``iterations`` rounds of
    integer xor/shift accumulation (C6 times 50,000 of them).

    The broker's placement path is interpreter-bound -- dict, tuple and
    attribute traffic, no NumPy -- so a pure-Python probe is the one
    whose speed moves with it from one machine to the next.
    """

    def probe() -> None:
        acc = 0
        for i in range(iterations):
            acc += i ^ (i >> 3)

    return probe


def run_federation_place_row(burst: int = 96, repeats: int = 15) -> dict:
    """Wall cost of a 4-site broker placing a burst of ``burst``
    fixed-size 2-qubit jobs over a same-machine pure-Python probe: the
    paired ratio plus the best burst and probe wall ms.

    The simulation never runs, so every job queues at its site: each
    placement reads the four site snapshots, and each submit moves one
    site's queue depth.  At 12 queue slots per site the last 48 jobs of
    the default burst spill onto saturated sites.  Every burst gets a
    fresh federation, built before the timed region.
    """
    import numpy as np

    from repro.qpu import Register
    from repro.sdk import AnalogCircuit
    from repro.spec import JobSpec

    program = (
        AnalogCircuit(Register.chain(2, spacing=6.0), name="place-unit")
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=50)
    )
    spec = JobSpec(program=program, shots=50, tenant="burst")
    brokers = iter(
        [build_federation_stack(n_sites=4)[2] for _ in range(repeats + 1)]
    )

    def place_burst() -> None:
        broker = next(brokers)
        for _ in range(burst):
            broker.submit_spec(spec)

    ratio, burst_ms, probe_ms = _paired_ratio(place_burst, _python_probe(120_000), repeats)
    return {"ratio": ratio, "burst_ms": burst_ms, "probe_ms": probe_ms}


def _bus_stream(jobs: int) -> list:
    """A fixed synthetic lifecycle stream over four sites: every fourth
    job has four units, every third unit is preempted once and requeued,
    and each unit is queued, placed, run and completed; each job is
    submitted first and completed last."""
    from repro.federation.events import JobEvent

    def task_event(now, kind, site, task, **extra):
        payload = {"state": kind, "started_at": None, "finished_at": None, "priority": "production"}
        return JobEvent(now, kind, task, site=site, task_id=task, payload={**payload, **extra})

    events = []
    unit_seq = 0
    for j in range(jobs):
        job_id, tenant, t = f"bus-job-{j}", f"tenant-{j % 8}", float(j)
        events.append(JobEvent(t, "job_submitted", job_id, payload={"tenant": tenant, "program": "bus", "qubits": 2}))
        for unit in range(4 if j % 4 == 0 else 1):
            site, task = f"site-{unit_seq % 4}", f"bus-task-{unit_seq}"
            unit_seq += 1
            events.append(task_event(t + 0.1, "queued", site, task, tenant=tenant, signature="bus/q2"))
            events.append(JobEvent(t + 0.1, "job_placed", job_id, site=site, task_id=task, payload={"unit": unit}))
            events.append(task_event(t + 1.0, "running", site, task))
            if unit_seq % 3 == 0:
                events.append(task_event(t + 2.0, "preempted", site, task))
                events.append(task_event(t + 2.0, "queued", site, task, tenant=tenant, signature="bus/q2"))
                events.append(task_event(t + 3.0, "running", site, task))
            events.append(task_event(t + 4.0, "completed", site, task))
        events.append(JobEvent(t + 4.0, "job_completed", job_id, payload={"error": ""}))
    return events


def run_federation_bus_row(jobs: int = 120, repeats: int = 15) -> dict:
    """Wall cost of a 4-site broker's lifecycle bus delivering a fixed
    synthetic stream (:func:`_bus_stream`) to the metrics, a tracer, a
    profile store and an SLO tracker, over a same-machine pure-Python
    probe: the paired ratio plus the best stream and probe wall ms.
    Each pass gets a fresh broker with every view attached before the
    timed region, and ends with the cheapest read of every view (the
    registry's instrument list, the trace ids, the profile keys, one SLO
    evaluation), so the views' folds of the stage log are timed with the
    publishes.  No job of the stream is traced, so span building — the
    C6 trace-overhead rows time that — stays out of the row.
    """
    from repro.observability import SLOTracker

    events = _bus_stream(jobs)
    end = events[-1].time

    def observed_broker():
        broker = build_federation_stack(n_sites=4)[2]
        tracer, profiles, slo = broker.attach_tracer(), broker.attach_profiles(), SLOTracker()
        slo.attach_bus(broker.events)
        return broker.events, broker.metrics.registry, tracer, profiles, slo

    passes = iter([observed_broker() for _ in range(repeats + 1)])

    def deliver_stream() -> None:
        bus, registry, tracer, profiles, slo = next(passes)
        for event in events:
            bus.publish(event)
        registry.instruments()
        tracer.trace_ids()
        profiles.keys()
        slo.evaluate(end)

    ratio, stream_ms, probe_ms = _paired_ratio(deliver_stream, _python_probe(120_000), repeats)
    return {"ratio": ratio, "stream_ms": stream_ms, "probe_ms": probe_ms, "events": len(events)}


def _submit_catalog(count: int = 8) -> list:
    """``count`` fixed 2-5-atom adiabatic-sweep IR programs, the shape
    of the shared-QPU workload's catalog."""
    from repro.qpu import CompositeWaveform, ConstantWaveform, DriveSegment, RampWaveform, Register
    from repro.sdk import AnalogProgram

    programs = []
    for k in range(count):
        omega, delta = 4.0 + 0.5 * k, 2.0 + 0.25 * k
        segment = DriveSegment(
            CompositeWaveform(
                RampWaveform(0.08, 0.0, omega), ConstantWaveform(0.16, omega), RampWaveform(0.08, omega, 0.0)
            ),
            CompositeWaveform(
                ConstantWaveform(0.08, -delta), RampWaveform(0.16, -delta, delta), ConstantWaveform(0.08, delta)
            ),
        )
        register = Register.chain(2 + k % 4, spacing=5.5 + 0.25 * k)
        programs.append(AnalogProgram(register, (segment,), shots=100, name=f"catalog-{k}"))
    return programs


def run_daemon_submit_row(burst: int = 96, repeats: int = 15) -> dict:
    """Wall cost of the daemon's REST intake over a same-machine NumPy
    probe: a burst of ``burst`` ``POST /jobs`` requests, each decoded,
    validated, admitted against the QPU's specs and queued.  Returns the
    paired ratio plus the best burst and probe wall ms.

    The bodies are the wire form of the 8 catalog programs
    (:func:`_submit_catalog`) from sessions of all three priority
    classes, encoded once before timing, so a content recurs: the
    daemon's decoded-parts table and the specs' admission memory answer
    its repeats, as they do for a shared QPU's users.  The simulation never
    runs, so every job stays queued.  Every burst gets a fresh
    preempting daemon, its sessions open, built before the timed region.
    """
    from repro.daemon import Request
    from repro.spec import JobSpec

    catalog = _submit_catalog()
    classes = ("production", "test", "development")
    bodies = [
        JobSpec(program=catalog[i % len(catalog)], shots=50 + 50 * (i % 4), resource="onprem").to_dict()
        for i in range(burst)
    ]

    def open_daemon() -> tuple:
        stack = build_stack(mode=SharingMode.PREEMPT, shot_cap=ShotCapPolicy(), scrape_interval=5.0)
        headers = [
            {"Authorization": f"Bearer {stack.client_for(f'user-{c}', priority_class=c).token}"}
            for c in classes
        ]
        return stack.router, headers

    daemons = iter([open_daemon() for _ in range(repeats + 1)])

    def submit_burst() -> None:
        router, headers = next(daemons)
        for i, body in enumerate(bodies):
            router.dispatch(Request("POST", "/jobs", body=body, headers=headers[i % 3]))

    ratio, burst_ms, probe_ms = _paired_ratio(submit_burst, _numpy_probe(4, 1, 4096), repeats)
    return {"ratio": ratio, "burst_ms": burst_ms, "probe_ms": probe_ms}


def run_tsdb_scrape_row(scrapes: int = 240, repeats: int = 15) -> dict:
    """Wall cost of a QPU daemon's telemetry scrape over a same-machine
    pure-Python probe: ``scrapes`` consecutive 5 s scrapes of its two
    targets (the QPU's telemetry and the alert evaluator), each written
    to the TSDB with the scraper's own per-target series.  Returns the
    paired ratio plus the best pass and probe wall ms.  Every pass gets
    a fresh daemon (an empty TSDB), built before the timed region.
    """
    scrapers = iter(
        [build_stack(mode=SharingMode.PREEMPT, scrape_interval=5.0).daemon.scraper for _ in range(repeats + 1)]
    )

    def scrape_pass() -> None:
        scraper = next(scrapers)
        for k in range(1, scrapes + 1):
            scraper.scrape_once(5.0 * k)

    ratio, pass_ms, probe_ms = _paired_ratio(scrape_pass, _python_probe(90_000), repeats)
    return {"ratio": ratio, "pass_ms": pass_ms, "probe_ms": probe_ms}


def run_footprint_row(jobs: int = 60) -> dict:
    """Marginal retained bytes per finished job on an accounted
    two-site federation, measured with ``tracemalloc`` the way
    ``tests/integration/test_footprint.py`` measures it: a warm-up
    batch of ``jobs`` fills every first-use cache, then the traced
    growth across one more batch, divided by ``jobs``.  Each batch is
    ``jobs`` clients arriving 2 simulated seconds apart, each
    submitting a 2-4-atom program through its tenant's session and
    waiting for the result.  Exact for one Python version."""
    import gc
    import tracemalloc

    import numpy as np

    from repro.accounting import FederationAccounting, RateBook, SiteRateCard
    from repro.qpu import Register
    from repro.sdk import AnalogCircuit
    from repro.session import Session
    from repro.simkernel import Timeout
    from repro.spec import JobSpec

    accounting = FederationAccounting(rates=RateBook(default=SiteRateCard(site="*", qpu_shot_price=0.01)))
    sim, _, broker, _ = build_federation_stack(n_sites=2, shot_rate_hz=50.0, accounting=accounting)
    sessions = [Session(federation=broker, user=f"tenant-{t}") for t in range(4)]
    for session in sessions:
        session.attach_events()
    catalog = [
        AnalogCircuit(Register.chain(n, spacing=6.0), name=f"footprint-{n}")
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=100)
        for n in (2, 3, 4)
    ]
    done: list[int] = []

    def client(session, spec):
        result = yield from session.submit(spec).wait()
        done.append(result.shots)

    def batch() -> None:
        def arrivals():
            for i in range(jobs):
                yield Timeout(2.0)
                spec = JobSpec(program=catalog[i % len(catalog)], shots=50 + 50 * (i % 3))
                sim.spawn(client(sessions[i % len(sessions)], spec))

        sim.spawn(arrivals(), name="arrivals")
        sim.run()

    batch()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        batch()
        gc.collect()
        second = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    if len(done) != 2 * jobs:
        raise RuntimeError(f"footprint row: {len(done)} of {2 * jobs} jobs finished")
    return {"bytes_per_job": (second - first) / jobs}


def run_in_fresh_process(row: str) -> dict:
    """``row()``, a function of this module that returns a JSON-able
    dict, run in a new interpreter: its result cannot depend on the
    allocator and GC state that the rows before it leave behind."""
    import json
    import os
    import subprocess
    import sys

    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, root])}
    code = f"import json; from benchmarks.harness import {row}; print(json.dumps({row}()))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{row} failed in a fresh process:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def bench_regression_suite() -> dict:
    """Run the federation + malleable + accounting ablation benches;
    returns ``{"mode": ..., "metrics": {name: value}}``."""
    import os

    from benchmarks.bench_ablation_accounting import run_c5_budget, run_c5_fairshare
    from benchmarks.bench_ablation_malleable import run_all, run_c4c
    from benchmarks.bench_ablation_scale import DETERMINISTIC_KEYS, run_c6
    from benchmarks.bench_fig4_federation import POLICIES, run_policy

    metrics: dict[str, float] = {}
    rows, _ = run_all()
    for row in rows:
        metrics[f"makespan_c4_{row['scenario']}_rigid_s"] = float(
            row["rigid_makespan_s"]
        )
        metrics[f"makespan_c4_{row['scenario']}_malleable_s"] = float(
            row["malleable_makespan_s"]
        )
    c4c = run_c4c()
    metrics["makespan_c4c_rigid_s"] = round(c4c["rigid"]["makespan"], 3)
    metrics["makespan_c4c_malleable_s"] = round(c4c["malleable"]["makespan"], 3)
    for name in POLICIES:
        out = run_policy(name)
        metrics[f"makespan_f4_{name}_s"] = round(out["makespan"], 3)
        metrics[f"throughput_f4_{name}_jobs_per_h"] = round(
            out["completed"] / out["makespan"] * 3600.0, 3
        )
    # C5 — federated accounting: budget cap + fair-share convergence.
    # The capped steady-tenant makespan and the cost-aware burst
    # completions are the gated wins; the fair-share ratio rides along
    # presence-checked (the bench test asserts its bounds).
    c5 = run_c5_budget()
    metrics["makespan_c5_steady_capped_s"] = round(
        c5["capped"]["steady_makespan"], 3
    )
    metrics["makespan_c5_steady_uncapped_s"] = round(
        c5["uncapped"]["steady_makespan"], 3
    )
    metrics["throughput_c5_costaware_burst_jobs"] = float(
        c5["capped_cost_aware"]["burst_completed"]
    )
    metrics["spend_c5_burst_capped_credits"] = round(
        c5["capped"]["burst_spend"], 3
    )
    fair = run_c5_fairshare()
    metrics["makespan_c5f_heavy_s"] = round(fair["heavy_finished_at"], 3)
    metrics["fairshare_c5f_contended_ratio"] = round(fair["contended_ratio"], 3)
    # C6 — broker hot-path scale.  The scanned-per-tick counts are
    # deterministic DES outputs (wall timings are not), so they gate
    # like makespans: a rise means the reconcile sweep started touching
    # history again.  Raw wall-clock numbers ride along ungated for the
    # CI artifact trail; the *self-calibrated* latency percentiles
    # (tick wall latency / same-machine probe cost) gate with a wide
    # tolerance — they survive a runner-hardware change, a raw
    # millisecond does not.
    c6 = run_c6()
    metrics["tickcost_c6_scanned_per_tick_mean"] = round(
        c6["scanned_per_tick_mean"], 4
    )
    metrics["tickcost_c6_scanned_per_tick_max"] = float(
        c6["scanned_per_tick_max"]
    )
    metrics["tickcost_c6_scanned_final_tick"] = float(c6["scanned_final_tick"])
    metrics["throughput_c6_completed_jobs"] = float(c6["completed"])
    metrics["walltime_c6_total_s"] = round(c6["total_wall_s"], 3)
    metrics["walltime_c6_tick_ms_mean"] = round(c6["tick_ms_mean"], 4)
    metrics["walltime_c6_probe_ms"] = round(c6["probe_ms"], 4)
    metrics["walltime_c6_sim_step_us_mean"] = round(c6["sim_step_us_mean"], 4)
    for pct in ("p50", "p95", "p99"):
        metrics[f"latency_c6_{pct}_ratio"] = round(
            c6[f"latency_{pct}_ratio"], 4
        )
    # instrumentation overhead: the same sweep with the full span
    # pipeline (traced) and with the continuous profiling plane
    # (profiled).  Scheduling must be bit-identical across all three
    # flavors — a drift here is an instrumentation bug, not a
    # regression to tolerate.
    c6_traced = run_c6(traced="traced")
    c6_profiled = run_c6(traced="profiled")
    for key in DETERMINISTIC_KEYS:
        if not (c6[key] == c6_traced[key] == c6_profiled[key]):
            raise RuntimeError(
                f"C6 {key} drifted under instrumentation: "
                f"plain={c6[key]} traced={c6_traced[key]} "
                f"profiled={c6_profiled[key]}"
            )
    profile_overhead = c6_profiled["total_wall_s"] / c6["total_wall_s"]
    if profile_overhead > 1.6:
        # hard stop independent of any baseline: "low overhead" is the
        # profiler's contract, not a number to be re-baselined away
        raise RuntimeError(
            f"C6 profiling overhead {profile_overhead:.2f}x exceeds the "
            "1.6x contract"
        )
    metrics["walltime_c6_traced_total_s"] = round(
        c6_traced["total_wall_s"], 3
    )
    metrics["walltime_c6_profiled_total_s"] = round(
        c6_profiled["total_wall_s"], 3
    )
    metrics["walltime_c6_trace_overhead_ratio"] = round(
        c6_traced["total_wall_s"] / c6["total_wall_s"], 4
    )
    # self-calibrated walltime ratios (the ROADMAP "raw speed" gates):
    # wall cost over same-machine probe cost survives a runner change,
    # so these *_ratio names gate in compare_runs where raw seconds
    # stay an ungated artifact trail
    metrics["walltime_c6_profile_overhead_ratio"] = round(profile_overhead, 4)
    metrics["walltime_c6_total_ratio"] = round(
        c6["total_wall_s"] * 1e3 / c6["probe_ms"], 4
    )
    metrics["walltime_c6_drained_tick_ratio"] = round(
        c6["drained_tick_ms"] / c6["probe_ms"], 4
    )
    # the batched-core speed contract: before the batch-oriented core
    # landed, the committed full-mode baseline ran C6 at a total/probe
    # ratio of ~9094.  The contract is a >= 1.8x improvement, held as a
    # hard ceiling independent of re-baselining (smoke runs sit far
    # below it by construction).
    if metrics["walltime_c6_total_ratio"] > _C6_PRE_BATCHING_RATIO / 1.8:
        raise RuntimeError(
            f"C6 total ratio {metrics['walltime_c6_total_ratio']:.1f} "
            f"breaks the >=1.8x speed contract over the pre-batching core "
            f"(ceiling {_C6_PRE_BATCHING_RATIO / 1.8:.1f})"
        )
    # C7 — the scheduling-algorithm sweep.  Every registered algorithm
    # replays one saturated trace through one driver; makespans and
    # utilizations gate the relative claims (EASY < FIFO, elastic <
    # rigid) numerically.  The legacy-loop makespans pin the adapter
    # re-routing of the three production scheduling loops — those
    # numbers moving means the suite changed scheduling *behavior*.
    from benchmarks.bench_algorithm_sweep import (
        run_broker_loop,
        run_cluster_loop,
        run_daemon_loop,
        run_sweep,
    )

    for row in run_sweep():
        key = f"{row['algorithm']}_{row['trace']}".replace("-", "_")
        metrics[f"makespan_c7_{key}_s"] = row["makespan_s"]
        metrics[f"throughput_c7_{key}_util"] = row["utilization"]
    daemon_loop = run_daemon_loop()
    metrics["makespan_c7leg_daemon_s"] = round(daemon_loop["makespan"], 3)
    cluster_loop = run_cluster_loop()
    metrics["throughput_c7leg_cluster_starts"] = float(cluster_loop["starts"])
    broker_loop = run_broker_loop()
    metrics["makespan_c7leg_broker_s"] = round(broker_loop["makespan"], 3)
    metrics["throughput_c7leg_broker_jobs"] = float(broker_loop["completed"])
    # emulator layer: the emu-sv kernel on the dev-loop (12 q noiseless)
    # and qpu-shared (2-5 atoms, noisy) shapes, and the whole noisy run()
    # on the qpu-shared shapes, each over a NumPy probe
    emu = run_emulator_rows()
    metrics["walltime_emu_sv_dense_ratio"] = round(emu["dense_ratio"], 4)
    metrics["walltime_emu_sv_noisy_small_ratio"] = round(emu["noisy_small_ratio"], 4)
    metrics["walltime_emu_sv_run_small_ratio"] = round(emu["run_small_ratio"], 4)
    # the emu-sv per-program set-up: the first fused_diagonals() of
    # fresh 12- and 14-qubit Hamiltonians, which the rows above (one
    # cached Hamiltonian each) never pay again
    metrics["walltime_emu_sv_statics_ratio"] = round(run_emu_sv_statics_row()["ratio"], 4)
    # the emu-mps canonical TEBD sweep on the dev-loop's 20-qubit shape
    # (seeded QR splits) and on a heavily truncating 24-qubit chi=8
    # sweep (the eigh fallback)
    mps = run_emu_mps_row()
    metrics["walltime_emu_mps_ratio"] = round(mps["ratio"], 4)
    metrics["walltime_emu_mps_truncating_ratio"] = round(mps["truncating_ratio"], 4)
    # the federation control plane: snapshot reads, policy choice and
    # site intake for a burst of placements on a 4-site broker
    metrics["walltime_federation_place_ratio"] = round(
        run_federation_place_row()["ratio"], 4
    )
    # the lifecycle bus with every observability view attached: metrics,
    # tracer, profiles and SLOs over one fixed synthetic event stream
    metrics["walltime_federation_bus_ratio"] = round(run_federation_bus_row()["ratio"], 4)
    # the shared-QPU request path: REST intake to queued, and the
    # telemetry scrape into the TSDB
    metrics["walltime_daemon_submit_ratio"] = round(run_daemon_submit_row()["ratio"], 4)
    metrics["walltime_tsdb_scrape_ratio"] = round(run_tsdb_scrape_row()["ratio"], 4)
    # memory a long-running stack keeps per finished job, measured in a
    # fresh interpreter so every run of the suite reads the same bytes
    metrics["footprint_federated_bytes_per_job"] = round(
        run_in_fresh_process("run_footprint_row")["bytes_per_job"], 1
    )
    mode = "smoke" if os.environ.get("BENCH_SMOKE", "") not in ("", "0") else "full"
    return {"mode": mode, "metrics": metrics}


def compare_runs(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Regressions of ``current`` against ``baseline``; empty == pass."""
    failures: list[str] = []
    if baseline.get("mode") != current.get("mode"):
        failures.append(
            f"mode mismatch: baseline is {baseline.get('mode')!r}, "
            f"this run is {current.get('mode')!r} — regenerate the baseline"
        )
        return failures
    for name, base in sorted(baseline.get("metrics", {}).items()):
        value = current.get("metrics", {}).get(name)
        if value is None:
            failures.append(f"{name}: missing from this run (was {base})")
            continue
        if name.startswith(("makespan_", "tickcost_", "footprint_")) and value > max(
            base * (1.0 + tolerance), base + 1.0
        ):
            # tickcost_* is the reconcile-tick latency gate: scanned
            # jobs per housekeeping sweep must not regress toward
            # O(history).  footprint_* is retained memory per finished
            # job.  The +1 absolute allowance keeps near-zero
            # baselines from failing on a one-job jitter.
            failures.append(
                f"{name}: {value:.1f} vs baseline {base:.1f} "
                f"(+{100 * (value / base - 1):.1f}% > {100 * tolerance:.0f}%)"
                if base
                else f"{name}: {value:.1f} vs baseline {base:.1f}"
            )
        elif name.startswith("throughput_") and value < base * (1.0 - tolerance):
            failures.append(
                f"{name}: {value:.3f} vs baseline {base:.3f} "
                f"({100 * (value / base - 1):.1f}% < -{100 * tolerance:.0f}%)"
            )
        elif name.startswith("latency_") and value > max(
            base * (1.0 + 5.0 * tolerance), base + 0.05
        ):
            # latency_* are self-calibrated wall ratios: deterministic
            # in shape but still wall-clock underneath, so they get 5x
            # the makespan tolerance plus an absolute floor that keeps
            # near-zero baselines from failing on scheduler jitter
            failures.append(
                f"{name}: {value:.4f} vs baseline {base:.4f} "
                f"(> {5 * 100 * tolerance:.0f}% latency tolerance)"
            )
        elif (
            name.startswith("walltime_")
            and name.endswith("_ratio")
            and value > max(base * (1.0 + 5.0 * tolerance), base + 0.25)
        ):
            # walltime_*_ratio are the raw-speed gates: end-to-end wall
            # cost (or instrumentation overhead) over the same-machine
            # probe cost.  Same 5x treatment as latency_*, with a wider
            # absolute floor — whole-run ratios jitter more than
            # single-tick percentiles.  Plain walltime_* seconds stay
            # ungated: they are the artifact trail, not the gate.
            failures.append(
                f"{name}: {value:.4f} vs baseline {base:.4f} "
                f"(> {5 * 100 * tolerance:.0f}% walltime-ratio tolerance)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import pathlib

    from repro.analysis import format_table

    parser = argparse.ArgumentParser(
        description="Run the bench-regression suite and optionally gate "
        "against a committed baseline."
    )
    parser.add_argument("--out", type=pathlib.Path, default=None, help="write this run's metrics JSON here")
    parser.add_argument("--baseline", type=pathlib.Path, default=None, help="baseline JSON to compare against")
    parser.add_argument("--tolerance", type=float, default=0.10, help="allowed fractional regression (default 0.10)")
    args = parser.parse_args(argv)

    current = bench_regression_suite()
    if args.out is not None:
        args.out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    table = [
        {"metric": name, "value": value}
        for name, value in sorted(current["metrics"].items())
    ]
    print(format_table(table, title=f"bench-regression ({current['mode']} mode)"))

    if args.baseline is None:
        return 0
    baseline = json.loads(args.baseline.read_text())
    failures = compare_runs(baseline, current, args.tolerance)
    if failures:
        print("\nREGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nno regressions beyond {100 * args.tolerance:.0f}% tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
