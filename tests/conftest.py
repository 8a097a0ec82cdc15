"""Suite-wide guard: a lifecycle-bus subscriber error never goes unseen.

:class:`~repro.federation.events.LifecycleBus` isolates a raising
subscriber and counts it in ``dropped`` instead of re-raising, so a
broken observer would otherwise pass every test silently.  Every bus a
test builds is tracked; the test fails if one ends with drops it did not
acknowledge through the ``bus_drops`` fixture.
"""

import pytest

from repro.federation.events import LifecycleBus


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
