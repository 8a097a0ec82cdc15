"""Suite-wide guards: a swallowed error never goes unseen.

:class:`~repro.federation.events.LifecycleBus` isolates a raising
subscriber and counts it in ``dropped`` instead of re-raising, so a
broken observer would otherwise pass every test silently.  Every bus a
test builds is tracked; the test fails if one ends with drops it did not
acknowledge through the ``bus_drops`` fixture.

A simulated process that raises with nothing waiting on it stores its
error and dies quietly; the :class:`~repro.simkernel.Simulator` counts
it in ``unobserved_failures``.  Every simulator a test builds is
tracked the same way; the test fails if one ends with failures it did
not acknowledge through the ``process_failures`` fixture.
"""

import pytest

from repro.federation.events import LifecycleBus
from repro.simkernel import Simulator


class _BusDropGuard:
    def __init__(self) -> None:
        self.buses: list[LifecycleBus] = []
        self.acknowledged: dict[int, int] = {}

    def acknowledge(self, bus: LifecycleBus, count: int) -> None:
        self.acknowledged[id(bus)] = count

    def unacknowledged(self) -> list[str]:
        return [
            f"bus {id(bus):#x}: dropped={bus.dropped}, "
            f"acknowledged={self.acknowledged.get(id(bus), 0)}"
            for bus in self.buses
            if bus.dropped != self.acknowledged.get(id(bus), 0)
        ]


@pytest.fixture(autouse=True)
def _bus_drop_guard(monkeypatch):
    guard = _BusDropGuard()
    init = LifecycleBus.__init__

    def tracked_init(bus, *args, **kwargs):
        init(bus, *args, **kwargs)
        guard.buses.append(bus)

    monkeypatch.setattr(LifecycleBus, "__init__", tracked_init)
    yield guard
    problems = guard.unacknowledged()
    if problems:
        pytest.fail(
            "lifecycle-bus subscriber errors were swallowed: "
            + "; ".join(problems),
            pytrace=False,
        )


@pytest.fixture
def bus_drops(_bus_drop_guard):
    """``bus_drops(bus, n)``: this test expects exactly ``n`` isolated
    subscriber errors on ``bus``."""
    return _bus_drop_guard.acknowledge


class _ProcessFailureGuard:
    def __init__(self) -> None:
        self.sims: list[Simulator] = []
        self.acknowledged: dict[int, int] = {}

    def acknowledge(self, sim: Simulator, count: int) -> None:
        self.acknowledged[id(sim)] = count

    def unacknowledged(self) -> list[str]:
        return [
            f"simulator {id(sim):#x}: unobserved_failures={sim.unobserved_failures}, "
            f"acknowledged={self.acknowledged.get(id(sim), 0)}"
            for sim in self.sims
            if sim.unobserved_failures != self.acknowledged.get(id(sim), 0)
        ]


@pytest.fixture(autouse=True)
def _process_failure_guard(monkeypatch):
    guard = _ProcessFailureGuard()
    init = Simulator.__init__

    def tracked_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        guard.sims.append(sim)

    monkeypatch.setattr(Simulator, "__init__", tracked_init)
    yield guard
    problems = guard.unacknowledged()
    if problems:
        pytest.fail(
            "simulated processes died with nothing waiting on them: "
            + "; ".join(problems),
            pytrace=False,
        )


@pytest.fixture
def process_failures(_process_failure_guard):
    """``process_failures(sim, n)``: this test expects exactly ``n``
    simulated processes on ``sim`` to die with nothing waiting on them."""
    return _process_failure_guard.acknowledge
