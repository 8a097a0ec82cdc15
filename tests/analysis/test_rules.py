"""Per-rule good/bad fixture tests: each archlint rule fires on the bad
snippet and stays silent on the good one."""

import pytest

from repro.analysis.rules import default_rules
from repro.analysis.rules.algorithm_name import AlgorithmNameRule
from repro.analysis.rules.bus_schema import BusSchemaRule
from repro.analysis.rules.determinism import SimDeterminismRule
from repro.analysis.rules.layering import Contract, LayeringRule
from repro.analysis.rules.no_direct_metrics import NoDirectMetricsRule
from repro.analysis.rules.no_poll import NoPollRule
from repro.analysis.rules.private_import import PrivateImportRule
from repro.analysis.rules.profiler_scope import ProfilerScopeRule
from repro.analysis.rules.state_transition import StateTransitionRule


def rules_of(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


class TestDefaultRules:
    def test_nine_rules_with_unique_ids(self):
        rules = default_rules()
        ids = [r.id for r in rules]
        assert len(ids) == 9
        assert len(set(ids)) == 9

    def test_fresh_instances_each_call(self):
        first, second = default_rules(), default_rules()
        assert first[0] is not second[0]


class TestSimDeterminism:
    def test_bad_wall_clock_and_global_rng(self, lint):
        report = lint(
            {
                "repro/simkernel/bad.py": """
                    import random
                    import time

                    import numpy as np


                    def stamp():
                        return time.time()


                    def jitter():
                        return random.random() + np.random.rand()
                """
            },
            [SimDeterminismRule()],
        )
        found = rules_of(report, "sim-determinism")
        assert len(found) == 3
        assert any("time.time" in f.message for f in found)
        assert any("random.random" in f.message for f in found)
        assert any("np.random.rand" in f.message for f in found)

    def test_bad_from_imports(self, lint):
        report = lint(
            {
                "repro/federation/bad.py": """
                    from random import choice
                    from time import monotonic
                """
            },
            [SimDeterminismRule()],
        )
        assert len(rules_of(report, "sim-determinism")) == 2

    def test_good_seeded_streams_and_perf_counter(self, lint):
        report = lint(
            {
                "repro/simkernel/good.py": """
                    import random
                    import time

                    import numpy as np


                    def draws(seed):
                        rng = np.random.default_rng(seed)
                        local = random.Random(seed)
                        t0 = time.perf_counter()
                        return rng.random(), local.random(), t0
                """
            },
            [SimDeterminismRule()],
        )
        assert rules_of(report, "sim-determinism") == []

    def test_out_of_scope_dir_is_ignored(self, lint):
        report = lint(
            {
                "repro/daemon/walltime.py": """
                    import time


                    def now():
                        return time.time()
                """
            },
            [SimDeterminismRule()],
        )
        assert rules_of(report, "sim-determinism") == []


class TestNoPoll:
    def test_bad_poll_in_broker(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def refresh(self, site, task_id):
                        return site.task_status("owner", task_id)
                """
            },
            [NoPollRule()],
        )
        assert len(rules_of(report, "no-poll")) == 1

    def test_bad_poll_anywhere_in_federation(self, lint):
        report = lint(
            {
                "repro/federation/site.py": """
                    def status(self, token, task_id):
                        return self.daemon.task_status(token, task_id)
                """,
                "repro/federation/client.py": """
                    def status(self, site, task_id):
                        return site.task_status("owner", task_id)
                """,
            },
            [NoPollRule()],
        )
        assert len(rules_of(report, "no-poll")) == 2

    def test_bad_second_queue_publisher_outside_daemon(self, lint):
        """Both pre-one-publisher call sites: the session facade and the
        federated site each added their own queue listener."""
        report = lint(
            {
                "repro/session.py": """
                    def join(self, daemon, publish):
                        daemon.queue.add_transition_listener(publish)
                """,
                "repro/federation/site.py": """
                    def attach_bus(self, bus):
                        self.daemon.queue.add_transition_listener(self._publish)
                """,
                # the daemon owning its queue is the one publisher
                "repro/daemon/service.py": """
                    def __init__(self, publish):
                        self.queue.add_transition_listener(publish)
                """,
            },
            [NoPollRule()],
        )
        found = rules_of(report, "no-poll")
        assert sorted(f.file.rsplit("/", 1)[-1] for f in found) == [
            "session.py",
            "site.py",
        ]

    def test_bad_tick_outside_the_reconcile_sweep(self, lint):
        """A status read that runs a resize pass and a pushed-event
        handler that ticks are findings; the reconcile sweep's own tick
        and ticks outside federation/ are not."""
        report = lint(
            {
                "repro/federation/broker.py": """
                    class FederationBroker:
                        def status(self, job_id):
                            self.malleable.tick()
                            return self._status(job_id)

                        def _on_site_event(self, event):
                            self.malleable.tick()

                        def reconcile(self):
                            return self.malleable.tick()
                """,
                "repro/daemon/service.py": """
                    def drive(self):
                        self.loop.tick()
                """,
            },
            [NoPollRule()],
        )
        found = rules_of(report, "no-poll")
        assert len(found) == 2
        assert all("tick" in f.message for f in found)

    def test_bad_status_poll_loop_in_runtime_and_session(self, lint):
        """The runtime's former daemon wait is a finding in runtime/ and
        session.py; the same loop in workloads/ (a synthetic polling
        client) is not, and neither is a status read without a sleep or
        a push wait."""
        poll_loop = """
            from repro.simkernel import Timeout


            def run_process(self, task_id, poll_interval=1.0):
                while True:
                    status = self.client.status(task_id)
                    if status["state"] in ("completed", "failed", "cancelled"):
                        break
                    yield Timeout(poll_interval)
                return status
        """
        report = lint(
            {
                "repro/runtime/environment.py": poll_loop,
                "repro/session.py": poll_loop.replace("Timeout(", "simkernel.Timeout("),
                "repro/workloads/generator.py": poll_loop,
                "repro/runtime/workflow.py": """
                    def drain(self, handles):
                        while handles:
                            if handles[-1].status()["state"] == "completed":
                                handles.pop()

                    def wait(self, handle):
                        return (yield from handle.wait())
                """,
            },
            [NoPollRule()],
        )
        found = rules_of(report, "no-poll")
        assert sorted(f.file.rsplit("/", 1)[-1] for f in found) == [
            "environment.py",
            "session.py",
        ]
        assert all("status-poll loop" in f.message for f in found)

    def test_good_push_consumption(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def refresh(self):
                        return self._drain_pushed()
                """,
                # same call outside federation/ is fine
                "repro/daemon/client.py": """
                    def check(self, site, task_id):
                        return site.task_status("owner", task_id)
                """,
            },
            [NoPollRule()],
        )
        assert rules_of(report, "no-poll") == []


class TestNoDirectMetrics:
    def test_bad_record_call(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def place(self, job):
                        self.metrics.record_placement(job)
                """
            },
            [NoDirectMetricsRule()],
        )
        found = rules_of(report, "no-direct-metrics")
        assert len(found) == 1
        assert "record_placement" in found[0].message

    def test_bad_observe_refresh(self, lint):
        report = lint(
            {
                "repro/federation/malleable.py": """
                    def rebalance(self, job):
                        self.broker.metrics.observe_share_weights(job.weights())
                """,
                # a pushed refresh is banned outside the federation too
                "repro/daemon/service.py": """
                    def tick(self):
                        self.metrics.observe_queue(self.queue)
                """,
            },
            [NoDirectMetricsRule()],
        )
        found = rules_of(report, "no-direct-metrics")
        assert sorted(f.message.split("(")[0] for f in found) == [
            "direct metrics call self.broker.metrics.observe_share_weights",
            "direct metrics call self.metrics.observe_queue",
        ]

    def test_good_inside_metrics_module_and_non_metrics(self, lint):
        report = lint(
            {
                # the bus-subscription fold itself may record
                "repro/federation/metrics.py": """
                    def _on_event(self, event):
                        self.record_transition(event)
                """,
                # record_from_result is jobmeta bookkeeping, not metrics
                "repro/daemon/jobmeta.py": """
                    def fold(self, meta, result):
                        meta.record_from_result(result)
                """,
                # observe_usage feeds the arbiter, and a histogram's own
                # observe() is how a fold records a sample
                "repro/accounting/service.py": """
                    def meter(self, tenant, cost, now):
                        self.arbiter.observe_usage(tenant, cost, now)
                        self.metrics.stage_latency.observe(cost)
                """,
            },
            [NoDirectMetricsRule()],
        )
        assert rules_of(report, "no-direct-metrics") == []


class TestStateTransition:
    def test_bad_direct_write(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def sweep(self, job):
                        job.state = "completed"
                """
            },
            [StateTransitionRule()],
        )
        found = rules_of(report, "state-transition")
        assert len(found) == 1
        assert "job.state" in found[0].message

    def test_bad_malleable_private_transition(self, lint):
        # the malleable manager's jobs move through the broker's
        # JobTable.set_state; a _set_state of its own is not blessed
        report = lint(
            {
                "repro/federation/malleable.py": """
                    def _set_state(self, job, state):
                        job.state = state
                """
            },
            [StateTransitionRule()],
        )
        found = rules_of(report, "state-transition")
        assert len(found) == 1
        assert "job.state" in found[0].message

    def test_bad_daemon_task_write_outside_set_state(self, lint):
        # the scheduler and the rest of the queue go through set_state,
        # which stamps the timestamps before the listeners fire
        report = lint(
            {
                "repro/daemon/queue.py": """
                    def requeue(self, task):
                        task.state = "queued"
                """,
                "repro/daemon/scheduler.py": """
                    def _select(self, chosen):
                        chosen.state = "running"
                """,
            },
            [StateTransitionRule()],
        )
        found = rules_of(report, "state-transition")
        assert sorted(f.file for f in found) == ["repro/daemon/queue.py", "repro/daemon/scheduler.py"]

    def test_good_blessed_function_and_module(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def set_state(self, job, state):
                        job.state = state
                """,
                # daemon tasks change state in MiddlewareQueue.set_state
                "repro/daemon/queue.py": """
                    def set_state(self, task, state, now):
                        task.state = state
                """,
                # a local variable named state is not an attribute write
                "repro/federation/malleable.py": """
                    def classify(self, job):
                        state = job.state
                        return state
                """,
            },
            [StateTransitionRule()],
        )
        assert rules_of(report, "state-transition") == []


class TestBusSchema:
    SCHEMAS = {"job_placed": (), "resize": ("action", "unit")}

    def test_bad_unknown_kind_and_payload_key(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def announce(self, job):
                        self._publish("job_compelted", job.job_id)
                        self._publish("resize", job.job_id, action="grow", wat=1)
                """
            },
            [BusSchemaRule(schemas=self.SCHEMAS)],
        )
        found = rules_of(report, "bus-schema")
        assert len(found) == 2
        assert any("job_compelted" in f.message for f in found)
        assert any("'wat'" in f.message for f in found)

    def test_bad_job_event_and_subscribe_literals(self, lint):
        report = lint(
            {
                "repro/federation/metrics.py": """
                    def attach(self, bus):
                        bus.subscribe(self._on, kinds=("job_placed", "job_lost"))

                    def emit(self, t):
                        return JobEvent(time=t, kind="resise", payload={"axn": 1})
                """
            },
            [BusSchemaRule(schemas=self.SCHEMAS)],
        )
        found = rules_of(report, "bus-schema")
        assert any("'job_lost'" in f.message for f in found)
        assert any("'resise'" in f.message for f in found)

    def test_good_declared_kinds(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def announce(self, job, unit):
                        self._publish("job_placed", job.job_id)
                        self._publish("resize", job.job_id, action="grow", unit=unit)

                    def handle(self, event):
                        if event.kind == "job_placed":
                            return True
                        kind = event.kind
                        return kind in ("resize",)
                """
            },
            [BusSchemaRule(schemas=self.SCHEMAS)],
        )
        assert rules_of(report, "bus-schema") == []

    def test_good_bare_kind_local_not_treated_as_event(self, lint):
        # `kind` that was NOT bound from event.kind (e.g. a resize
        # action) must not be checked against the registry
        report = lint(
            {
                "repro/federation/malleable.py": """
                    def resize(self, weight, before):
                        kind = "grow" if weight > before else "shrink"
                        if kind == "grow":
                            return 1
                        return -1
                """
            },
            [BusSchemaRule(schemas=self.SCHEMAS)],
        )
        assert rules_of(report, "bus-schema") == []

    def test_registry_parsed_from_events_py_ast(self, lint):
        # no injected schemas: the rule reads EVENT_SCHEMAS out of the
        # fixture's federation/events.py, resolving shared tuple symbols
        report = lint(
            {
                "repro/federation/events.py": """
                    _COMMON = ("state", "priority")
                    EVENT_SCHEMAS = {
                        "queued": _COMMON,
                        "job_placed": (),
                    }
                """,
                "repro/federation/broker.py": """
                    def announce(self, job):
                        self._publish("queued", job.job_id, state="queued")
                        self._publish("job_vanished", job.job_id)
                """,
            },
            [BusSchemaRule()],
        )
        found = rules_of(report, "bus-schema")
        assert len(found) == 1
        assert "job_vanished" in found[0].message

    def test_missing_registry_is_a_finding(self, lint):
        report = lint(
            {
                "repro/federation/broker.py": """
                    def announce(self, job):
                        self._publish("job_placed", job.job_id)
                """
            },
            [BusSchemaRule()],
        )
        found = rules_of(report, "bus-schema")
        assert len(found) == 1
        assert "no EVENT_SCHEMAS registry" in found[0].message


class TestLayering:
    def test_bad_contract_violation(self, lint):
        report = lint(
            {
                "repro/simkernel/clock.py": """
                    from repro.federation.broker import FederationBroker
                """
            },
            [LayeringRule()],
        )
        found = rules_of(report, "layering")
        assert len(found) == 1
        assert "'simkernel'" in found[0].message

    def test_bad_deferred_still_flagged_when_contract_absolute(self, lint):
        # simkernel's contract has include_deferred=True: even a lazy
        # function-local import of the federation is a finding
        report = lint(
            {
                "repro/simkernel/clock.py": """
                    def load(self):
                        from repro.federation import broker

                        return broker
                """
            },
            [LayeringRule()],
        )
        assert len(rules_of(report, "layering")) == 1

    def test_bad_import_cycle(self, lint):
        report = lint(
            {
                "repro/scheduling/alpha.py": """
                    from ..daemon import queue
                """,
                "repro/daemon/beta.py": """
                    from ..scheduling import alpha
                """,
            },
            [LayeringRule()],
        )
        found = rules_of(report, "layering")
        assert len(found) == 1
        assert "cycle" in found[0].message

    def test_good_deferred_edge_breaks_cycle(self, lint):
        report = lint(
            {
                "repro/scheduling/alpha.py": """
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from ..daemon.queue import QueuedTask


                    def pick(self):
                        from ..daemon import queue

                        return queue
                """,
                "repro/daemon/beta.py": """
                    from ..scheduling import alpha
                """,
            },
            [LayeringRule()],
        )
        assert rules_of(report, "layering") == []

    def test_good_errors_always_allowed(self, lint):
        report = lint(
            {
                "repro/simkernel/clock.py": """
                    from repro.errors import ReproError
                """,
                "repro/spec/session.py": """
                    from ..errors import SpecError
                """,
            },
            [LayeringRule()],
        )
        assert rules_of(report, "layering") == []

    def test_custom_contract_injection(self, lint):
        contracts = {"qpu": Contract(frozenset(), include_deferred=True)}
        report = lint(
            {
                "repro/qpu/device.py": """
                    from repro.emulators import sampling
                """
            },
            [LayeringRule(contracts=contracts)],
        )
        assert len(rules_of(report, "layering")) == 1


class TestProfilerScope:
    MANIFEST = (("simkernel/process.py", "Simulator.step", "sim.step"),)

    def test_bad_missing_scope(self, lint):
        report = lint(
            {
                "repro/simkernel/process.py": """
                    class Simulator:
                        def step(self):
                            return self._advance()
                """
            },
            [ProfilerScopeRule(manifest=self.MANIFEST)],
        )
        found = rules_of(report, "profiler-scope")
        assert len(found) == 1
        assert "sim.step" in found[0].message

    def test_bad_manifest_drift(self, lint):
        report = lint(
            {
                "repro/simkernel/process.py": """
                    class Simulator:
                        def advance(self):
                            return 1
                """
            },
            [ProfilerScopeRule(manifest=self.MANIFEST)],
        )
        found = rules_of(report, "profiler-scope")
        assert len(found) == 1
        assert "manifest drift" in found[0].message

    def test_good_with_scope_and_push_forms(self, lint):
        manifest = self.MANIFEST + (
            ("simkernel/process.py", "Simulator.step_batch", "sim.step"),
        )
        report = lint(
            {
                "repro/simkernel/process.py": """
                    class Simulator:
                        def step(self):
                            with self.profiler.scope("sim.step"):
                                return self._advance()

                        def step_batch(self, n):
                            self.profiler.push("sim.step")
                            try:
                                return [self._advance() for _ in range(n)]
                            finally:
                                self.profiler.pop()
                """
            },
            [ProfilerScopeRule(manifest=manifest)],
        )
        assert rules_of(report, "profiler-scope") == []

    def test_good_scoped_decorator(self, lint):
        report = lint(
            {
                "repro/simkernel/process.py": """
                    from repro.observability.profiling import scoped

                    class Simulator:
                        @scoped("sim.step")
                        def step(self):
                            return self._advance()
                """
            },
            [ProfilerScopeRule(manifest=self.MANIFEST)],
        )
        assert rules_of(report, "profiler-scope") == []

    @pytest.mark.parametrize("decorator", ["", '@scoped("sim.tick")', "@staticmethod"])
    def test_bad_missing_or_other_scoped_decorator(self, lint, decorator):
        report = lint(
            {
                "repro/simkernel/process.py": f"""
                    class Simulator:
                        {decorator}
                        def step(self):
                            return self._advance()
                """
            },
            [ProfilerScopeRule(manifest=self.MANIFEST)],
        )
        found = rules_of(report, "profiler-scope")
        assert len(found) == 1
        assert "'sim.step'" in found[0].message


class TestPrivateImport:
    def test_bad_private_module_and_name(self, lint):
        report = lint(
            {
                "repro/emulators/bad.py": """
                    import numpy._core
                    from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced
                    from numpy.linalg import _linalg, norm
                    from scipy import _lib as lib


                    def helper():
                        import numpy.random._pickle
                        return numpy.random._pickle
                """
            },
            [PrivateImportRule()],
        )
        found = rules_of(report, "private-import")
        assert [f.line for f in found] == [2, 3, 4, 5, 9]
        assert "'numpy.linalg._umath_linalg'" in found[1].message
        assert "'_linalg'" in found[2].message

    def test_good_own_packages_relative_and_dunder(self, lint):
        report = lint(
            {
                "repro/emulators/good.py": """
                    from __future__ import annotations

                    import numpy as np
                    from numpy import __version__
                    from numpy.linalg import LinAlgError

                    from benchmarks.harness import _paired_ratio
                    from repro.emulators.mps import _qr
                    from ._private import _helper
                    from . import _sibling
                """
            },
            [PrivateImportRule()],
        )
        assert rules_of(report, "private-import") == []

    def test_justified_suppression_covers_the_import(self, lint):
        report = lint(
            {
                "repro/emulators/mps.py": """
                    # archlint: disable=private-import -- the gufuncs behind np.linalg.qr
                    from numpy.linalg._umath_linalg import qr_r_raw
                """
            },
            [PrivateImportRule()],
        )
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["private-import"]


class TestAlgorithmName:
    NAMES = ("agreement-elastic", "fifo-priority")

    def test_bad_name_comparisons_outside_scheduling(self, lint):
        report = lint(
            {
                "repro/federation/malleable.py": """
                    def negotiates(spec):
                        if spec.algorithm == "agreement-elastic":
                            return True
                        if "fifo-priority" != spec.algorithm:
                            return spec.algorithm in ("fifo-priority", "other")
                        return False
                """
            },
            [AlgorithmNameRule(names=self.NAMES)],
        )
        found = rules_of(report, "algorithm-name")
        assert [f.line for f in found] == [3, 5, 6]
        assert "'agreement-elastic'" in found[0].message

    def test_good_owner_package_and_unregistered_literals(self, lint):
        report = lint(
            {
                "repro/scheduling/algorithms/pick.py": """
                    def pick(name):
                        return name == "agreement-elastic"
                """,
                "repro/daemon/scheduler.py": """
                    def use(self, algorithm, resolve):
                        self.algorithm = resolve(algorithm, "fifo-priority")
                        return algorithm == "round-robin"
                """,
            },
            [AlgorithmNameRule(names=self.NAMES)],
        )
        assert rules_of(report, "algorithm-name") == []

    def test_good_outside_the_package(self, lint):
        report = lint(
            {"benchmarks/bench_sweep.py": 'TRACE = "elastic" if NAME == "agreement-elastic" else "rigid"\n'},
            [AlgorithmNameRule(names=self.NAMES)],
            paths=("benchmarks",),
        )
        assert rules_of(report, "algorithm-name") == []

    def test_registry_parsed_from_register_classes(self, lint):
        # no injected names: the rule reads each @register class's name
        # out of the fixture's scheduling/algorithms/ package
        report = lint(
            {
                "repro/scheduling/algorithms/steal.py": """
                    @register
                    class Steal(SchedulingAlgorithm):
                        name = "steal"


                    class Helper:
                        name = "helper"
                """,
                "repro/federation/broker.py": """
                    def route(spec):
                        return spec.algorithm == "steal" or spec.algorithm == "helper"
                """,
            },
            [AlgorithmNameRule()],
        )
        found = rules_of(report, "algorithm-name")
        assert len(found) == 1
        assert "'steal'" in found[0].message
