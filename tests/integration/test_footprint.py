"""Per-job memory: what a long-running stack keeps for each finished job.

A site daemon stays up while its QPU serves job after job, so every
byte a finished job leaves behind is paid for the life of the service.
These tests run jobs through two stack shapes and measure, with
``tracemalloc``, the bytes one more finished job keeps alive: a warm-up
batch fills every first-use cache, then ``N`` jobs and another ``N``
run, and the growth across the second batch divided by ``N`` is the
marginal footprint.  Every per-job record the stack keeps stays
readable (task, result, job metadata, trace rows, usage events); only
dead references and duplicate copies are gone.
"""

import gc
import tracemalloc

import numpy as np

from repro.accounting import FederationAccounting, RateBook, SiteRateCard
from repro.daemon import MiddlewareDaemon, SharingMode
from repro.daemon.queue import ShotCapPolicy
from repro.federation import FederatedSite, FederationBroker, SiteRegistry
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.session import Session
from repro.simkernel import Simulator, Timeout
from repro.spec import JobSpec

#: jobs per measured batch
N = 60

#: bytes per finished job the two shapes kept before per-job state was
#: compacted (finished processes and scheduling views dropped, one
#: calibration mapping per version, trace rows as tuples, slotted
#: records), measured on CPython 3.11; the bounds are 70 % of these
FEDERATION_BEFORE = 6166
DAEMON_BEFORE = 6691

CATALOG = [
    AnalogCircuit(Register.chain(n, spacing=6.0), name=f"fp-{n}")
    .rx_global(np.pi / 2, duration=0.3)
    .measure_all()
    .transpile(shots=100)
    for n in (2, 3, 4)
]


def _clock() -> ShotClock:
    return ShotClock(shot_rate_hz=50.0, setup_overhead_s=0.2, batch_size=100, batch_overhead_s=0.01)


def _client(session, spec, done):
    handle = session.submit(spec)
    result = yield from handle.wait()
    done.append(result.shots)


def _run_batch(sim, sessions, specs, gap, n):
    """``n`` clients arriving every ``gap`` simulated seconds, each
    submitting, waiting and fetching its result; runs until all finish."""
    done: list[int] = []

    def arrivals():
        for i in range(n):
            yield Timeout(gap)
            sim.spawn(_client(sessions[i % len(sessions)], specs(i), done))

    sim.spawn(arrivals(), name="arrivals")
    sim.run()
    assert len(done) == n


def bytes_per_job(run_batch, n: int = N) -> float:
    """Marginal retained bytes per finished job (see module docstring)."""
    run_batch(n)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        run_batch(n)
        gc.collect()
        second = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    return (second - first) / n


def accounted_federation():
    """Two single-QPU sites behind an accounting broker, four tenants."""
    sim = Simulator()
    registry = SiteRegistry(heartbeat_expiry=60.0)
    for i in range(2):
        device = QPUDevice(clock=_clock(), rng=np.random.default_rng(i))
        daemon = MiddlewareDaemon(sim, {"onprem": OnPremQPUResource("onprem", device)}, scrape_interval=120.0)
        registry.register(FederatedSite(f"site-{i}", daemon, max_queue_depth=12), now=0.0)
    registry.start_heartbeats(sim, interval=15.0)
    accounting = FederationAccounting(rates=RateBook(default=SiteRateCard(site="*", qpu_shot_price=0.01)))
    broker = FederationBroker(sim, registry, max_attempts=4, accounting=accounting)
    broker.spawn_housekeeping(interval=15.0)
    sessions = [Session(federation=broker, user=f"tenant-{t}") for t in range(4)]
    for session in sessions:
        session.attach_events()

    def specs(i):
        return JobSpec(program=CATALOG[i % len(CATALOG)], shots=50 + 50 * (i % 3))

    return lambda n: _run_batch(sim, sessions, specs, 2.0, n)


def preempting_daemon():
    """One QPU daemon in preempt mode shared by three priority classes."""
    sim = Simulator()
    device = QPUDevice(clock=_clock(), rng=np.random.default_rng(0))
    daemon = MiddlewareDaemon(
        sim, {"onprem": OnPremQPUResource("onprem", device)},
        mode=SharingMode.PREEMPT, shot_cap=ShotCapPolicy(), scrape_interval=5.0,
    )
    sessions = [Session(daemon=daemon, user=f"user-{u}") for u in range(3)]
    for session in sessions:
        session.attach_events()
    classes = ("development", "test", "production")

    def specs(i):
        return JobSpec(
            program=CATALOG[i % len(CATALOG)], shots=100, resource="onprem",
            priority_class=classes[i % 3],
        )

    def run_batch(n):
        _run_batch(sim, sessions, specs, 1.5, n)
        assert daemon.scheduler.tasks_preempted > 0

    return run_batch


def test_federation_keeps_little_per_finished_job():
    per_job = bytes_per_job(accounted_federation())
    assert 0 < per_job <= 0.7 * FEDERATION_BEFORE, f"{per_job:.0f} B per finished job"


def test_preempting_daemon_keeps_little_per_finished_job():
    per_job = bytes_per_job(preempting_daemon())
    assert 0 < per_job <= 0.7 * DAEMON_BEFORE, f"{per_job:.0f} B per finished job"
