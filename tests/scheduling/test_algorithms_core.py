"""The pluggable algorithm suite: registry, FIFO, EASY, routing, sweep sim."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AlgorithmError
from repro.scheduling.algorithms import (
    AgreementElastic,
    Decision,
    EasyBackfill,
    FifoPriority,
    PendingJob,
    PolicyRouting,
    ResourceView,
    RunningUnit,
    SchedulingAlgorithm,
    SimJob,
    SystemView,
    available,
    get_algorithm,
    register,
    resolve,
    simulate,
)


class TestRegistry:
    def test_all_disciplines_registered(self):
        names = available()
        for expected in (
            "fifo-priority",
            "easy-backfill",
            "agreement-elastic",
            "policy-routing",
        ):
            assert expected in names

    def test_get_by_name(self):
        assert isinstance(get_algorithm("fifo-priority"), FifoPriority)
        assert isinstance(get_algorithm("easy-backfill"), EasyBackfill)

    def test_unknown_name_raises(self):
        with pytest.raises(AlgorithmError, match="unknown"):
            get_algorithm("galactic-random")

    def test_duplicate_registration_raises(self):
        with pytest.raises(AlgorithmError, match="already registered"):

            @register
            class Dup(SchedulingAlgorithm):
                name = "fifo-priority"

    def test_unnamed_registration_raises(self):
        with pytest.raises(AlgorithmError, match="name"):

            @register
            class NoName(SchedulingAlgorithm):
                pass

    def test_base_schedule_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SchedulingAlgorithm().schedule((), (), SystemView(now=0.0))

    def test_resolve_default_name_and_instance(self):
        assert isinstance(resolve(None, "fifo-priority"), FifoPriority)
        assert isinstance(resolve("easy-backfill", "fifo-priority"), EasyBackfill)
        mine = EasyBackfill()
        assert resolve(mine, "fifo-priority") is mine
        fallback = PolicyRouting()
        assert resolve(None, fallback) is fallback
        with pytest.raises(AlgorithmError, match="unknown"):
            resolve("galactic-random", "fifo-priority")


#: one slot division: ({claimant: (demand, weight, holding)}, capacity)
_claims = st.dictionaries(
    st.sampled_from("abcde"),
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0)),
        st.integers(min_value=0, max_value=12),
    ),
    min_size=1,
    max_size=5,
)


class TestSlotDivision:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=12), _claims)
    def test_negotiation_from_nothing_equals_the_fill(self, capacity, claims):
        """With no holdings, agreement-elastic's negotiation lands on
        exactly the base weighted max-min fill: the two disciplines
        differ only in where they start."""
        demands = {k: d for k, (d, _, _) in claims.items()}
        weights = {k: w for k, (_, w, _) in claims.items()}
        fill, transfers = SchedulingAlgorithm().divide(capacity, demands, weights)
        negotiated, _ = AgreementElastic().divide(capacity, demands, weights, None)
        assert negotiated == fill
        assert transfers == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=12), _claims)
    # an averaged steal must not push the taker ("d") past its demand
    @example(7, {"a": (0, 0.25, 0), "b": (0, 0.25, 0), "c": (1, 0.25, 0), "d": (3, 1.5, 0), "e": (4, 0.25, 4)})
    def test_negotiation_from_holdings_keeps_the_guarantees(self, capacity, claims):
        """From any holdings the negotiation stays demand-capped and
        work-conserving, like the fill."""
        demands = {k: d for k, (d, _, _) in claims.items()}
        weights = {k: w for k, (_, w, _) in claims.items()}
        holdings = {k: h for k, (_, _, h) in claims.items()}
        alloc, _ = AgreementElastic().divide(capacity, demands, weights, holdings)
        assert sum(alloc.values()) == min(capacity, sum(demands.values()))
        for k, granted in alloc.items():
            assert 0 <= granted <= demands[k]

    def test_base_division_ignores_holdings(self):
        algo = SchedulingAlgorithm()
        fresh = algo.divide(4, {"a": 4, "b": 4})
        assert algo.divide(4, {"a": 4, "b": 4}, None, {"a": 4}) == fresh == ({"a": 2, "b": 2}, [])

    def test_negotiation_starts_from_holdings(self):
        alloc, transfers = AgreementElastic().divide(4, {"a": 4, "b": 4}, None, {"a": 4})
        assert alloc == {"a": 2, "b": 2}
        assert transfers == [{"from": "a", "to": "b", "units": 2}]


def _views(jobs, total=4, free=4, running=(), now=0.0):
    resources = (
        ResourceView(name="r0", total_units=total, free_units=free, running=tuple(running)),
    )
    return tuple(jobs), resources, SystemView(now=now)


class TestFifoPriority:
    def test_priority_then_sequence_order(self):
        pending, resources, system = _views(
            [
                PendingJob(job_id="late-prod", priority=0, submit_seq=5, units=1),
                PendingJob(job_id="dev", priority=2, submit_seq=1, units=1),
                PendingJob(job_id="early-prod", priority=0, submit_seq=2, units=1),
            ]
        )
        order = [
            d.job_id
            for d in FifoPriority().schedule(pending, resources, system)
            if d.kind == "start"
        ]
        assert order == ["early-prod", "late-prod", "dev"]

    def test_head_blocks_strictly(self):
        # 3-unit head over 2 free units: nothing behind it may start
        pending, resources, system = _views(
            [
                PendingJob(job_id="big", priority=0, submit_seq=0, units=3),
                PendingJob(job_id="small", priority=1, submit_seq=1, units=1),
            ],
            total=4,
            free=2,
        )
        decisions = FifoPriority().schedule(pending, resources, system)
        assert [d for d in decisions if d.kind == "start"] == []


class TestEasyBackfill:
    def _blocked_head_views(self):
        # r0: 4 units, 2 busy until t=5 — head needs 4, shorts need 1
        running = [RunningUnit(job_id="held", units=2, expected_end=5.0)]
        return _views(
            [
                PendingJob(job_id="head", priority=0, submit_seq=0, units=4,
                           estimated_runtime=10.0),
                PendingJob(job_id="short", priority=1, submit_seq=1, units=1,
                           estimated_runtime=2.0),
                PendingJob(job_id="long", priority=1, submit_seq=2, units=1,
                           estimated_runtime=50.0),
            ],
            total=4,
            free=2,
            running=running,
        )

    def test_reserves_head_and_backfills_safe_jobs_only(self):
        pending, resources, system = self._blocked_head_views()
        decisions = EasyBackfill().schedule(pending, resources, system)
        kinds = {d.job_id: d.kind for d in decisions}
        assert kinds["head"] == "reserve"
        assert kinds["short"] == "backfill"  # ends at 2.0 < shadow 5.0
        assert "long" not in kinds  # would overrun the reservation
        reserve = next(d for d in decisions if d.kind == "reserve")
        assert reserve.payload["shadow_time"] == pytest.approx(5.0)

    def test_no_backfill_mode_blocks_like_fifo(self):
        pending, resources, system = self._blocked_head_views()
        easy = EasyBackfill(backfill=False).schedule(pending, resources, system)
        fifo = FifoPriority().schedule(pending, resources, system)
        assert easy == fifo == []

    def test_greedy_starts_when_head_fits(self):
        pending, resources, system = _views(
            [PendingJob(job_id="a", priority=0, submit_seq=0, units=2,
                        estimated_runtime=1.0)],
            total=4,
            free=4,
        )
        decisions = EasyBackfill().schedule(pending, resources, system)
        assert [(d.kind, d.job_id) for d in decisions] == [("start", "a")]


class _ScriptedPolicy:
    """Legacy-shaped routing policy: records calls, returns by script."""

    def __init__(self, picks):
        self.picks = list(picks)
        self.calls = []

    def choose(self, job, candidates, now):
        self.calls.append((job, tuple(c.name for c in candidates), now))
        want = self.picks.pop(0)
        return next(c for c in candidates if c.name == want)


class _Snap:
    def __init__(self, name):
        self.name = name


class TestPolicyRouting:
    def test_calls_wrapped_policy_exactly_once_per_job(self):
        policy = _ScriptedPolicy(["beta"])
        snaps = [_Snap("alpha"), _Snap("beta")]
        pending = (PendingJob(job_id="j", units=1, native=object()),)
        resources = tuple(
            ResourceView(name=s.name, total_units=4, free_units=4, native=s)
            for s in snaps
        )
        decisions = PolicyRouting(policy=policy).schedule(
            pending, resources, SystemView(now=3.0)
        )
        assert decisions == [Decision(kind="place", job_id="j", resource="beta")]
        assert len(policy.calls) == 1
        assert policy.calls[0][1] == ("alpha", "beta")

    def test_least_loaded_fallback_without_policy(self):
        pending = (PendingJob(job_id="j", units=1),)
        resources = (
            ResourceView(name="busy", total_units=4, free_units=1),
            ResourceView(name="idle", total_units=4, free_units=4),
        )
        decisions = PolicyRouting().schedule(pending, resources, SystemView(now=0.0))
        assert decisions[0].resource == "idle"


class TestSweepSimulator:
    def _trace(self):
        return [
            SimJob(job_id="a", arrival=0.0, units=2, runtime=4.0),
            SimJob(job_id="b", arrival=0.0, units=2, runtime=4.0),
            SimJob(job_id="c", arrival=1.0, units=1, runtime=2.0),
        ]

    def test_conservation_and_metrics(self):
        report = simulate(get_algorithm("fifo-priority"), self._trace(), {"r0": 4})
        assert report.completed == 3
        assert report.makespan > 0
        assert 0.0 < report.utilization <= 1.0

    def test_every_registered_algorithm_completes_the_trace(self):
        for name in available():
            report = simulate(get_algorithm(name), self._trace(), {"r0": 4})
            assert report.completed == 3, name

    def test_easy_beats_fifo_on_blocked_head_trace(self):
        # wide head arrives while half the machine is held: FIFO idles
        # the free units, EASY backfills the shorts into the hole
        jobs = [
            SimJob(job_id="hold", arrival=0.0, units=2, runtime=10.0),
            SimJob(job_id="head", arrival=1.0, units=4, runtime=5.0),
        ] + [
            SimJob(job_id=f"s{i}", arrival=1.0, units=1, runtime=2.0)
            for i in range(4)
        ]
        fifo = simulate(get_algorithm("fifo-priority"), jobs, {"r0": 4})
        easy = simulate(get_algorithm("easy-backfill"), jobs, {"r0": 4})
        assert easy.makespan < fifo.makespan
        assert easy.backfills > 0
