"""Tests for the hybrid workflow (DAG) engine."""

import numpy as np
import pytest

from repro.config import DictConfig
from repro.errors import ReproError
from repro.qpu import Register
from repro.runtime import RuntimeEnvironment, Workflow
from repro.sdk import AnalogCircuit


def env():
    return RuntimeEnvironment.from_config(
        DictConfig(
            {
                "QRMI_RESOURCES": "emu",
                "QRMI_EMU_TYPE": "local-emulator",
                "QRMI_EMU_EMULATOR": "emu-sv",
            }
        )
    )


def probe_circuit(theta=np.pi / 2, n=2):
    return (
        AnalogCircuit(Register.chain(n, spacing=20.0), name="probe")
        .rx_global(theta, duration=0.4)
        .measure_all()
    )


class TestConstruction:
    def test_topological_order(self):
        wf = Workflow()
        wf.add_classical("a", lambda up: 1)
        wf.add_classical("b", lambda up: 2, after=("a",))
        wf.add_classical("c", lambda up: 3, after=("a",))
        wf.add_classical("d", lambda up: 4, after=("b", "c"))
        order = wf.steps()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_duplicate_step_rejected(self):
        wf = Workflow()
        wf.add_classical("a", lambda up: 1)
        with pytest.raises(ReproError):
            wf.add_classical("a", lambda up: 2)

    def test_unknown_dependency_rejected(self):
        wf = Workflow()
        with pytest.raises(ReproError):
            wf.add_classical("b", lambda up: 1, after=("ghost",))

    def test_self_dependency_rejected_as_unknown(self):
        """A step can only depend on steps that already exist, so the
        one cycle left to try, a step after itself, is refused as an
        unknown dependency and leaves the workflow as it was."""
        wf = Workflow()
        wf.add_classical("a", lambda up: 1)
        with pytest.raises(ReproError, match="depends on unknown 'b'"):
            wf.add_classical("b", lambda up: 2, after=("a", "b"))
        assert wf.steps() == ["a"]

    # Golden orders: roots in the order they were added, then each step
    # once its last upstream step is released, in edge order; upstream
    # outputs keyed in the order ``after`` named them, repeats dropped.
    @pytest.mark.parametrize(
        ("shape", "order", "upstream"),
        [
            (
                [("a", ()), ("b", ("a",)), ("c", ("a",)), ("d", ("c", "b"))],
                ["a", "b", "c", "d"],
                {"d": ["c", "b"]},
            ),
            ([("a", ()), ("b", ("a",)), ("c", ())], ["a", "c", "b"], {"b": ["a"]}),
            ([("a", ()), ("b", ()), ("c", ("b", "a", "b", "a"))], ["a", "b", "c"], {"c": ["b", "a"]}),
            (
                [
                    ("r1", ()),
                    ("r2", ()),
                    ("x", ("r2",)),
                    ("y", ("r2", "r1")),
                    ("r3", ()),
                    ("z", ("x", "r3")),
                    ("w", ("y", "x")),
                    ("v", ("r1",)),
                ],
                ["r1", "r2", "r3", "v", "x", "y", "z", "w"],
                {"y": ["r2", "r1"], "z": ["x", "r3"], "w": ["y", "x"]},
            ),
        ],
        ids=["diamond", "root-after-dependent", "repeated-after", "mixed"],
    )
    def test_golden_step_and_upstream_order(self, shape, order, upstream):
        wf = Workflow()
        seen = {}
        for name, after in shape:
            wf.add_classical(name, lambda up, name=name: seen.setdefault(name, list(up)), after=after)
        assert wf.steps() == order
        result = wf.run(env())
        assert result.order == order
        for name, deps in upstream.items():
            assert seen[name] == deps


class TestSynchronousExecution:
    def test_linear_pipeline(self):
        """calibrate-angle -> measure -> postprocess."""
        wf = Workflow("pipeline")
        wf.add_classical("pick-angle", lambda up: {"theta": np.pi})
        wf.add_quantum(
            "measure",
            lambda up: probe_circuit(theta=up["pick-angle"]["theta"]),
            after=("pick-angle",),
            shots=300,
        )
        wf.add_classical(
            "analyze",
            lambda up: up["measure"].expectation_occupation().mean(),
            after=("measure",),
        )
        result = wf.run(env())
        assert result.order == ["pick-angle", "measure", "analyze"]
        # pi pulse on far atoms: mean occupation ~ 1
        assert result["analyze"] > 0.9

    def test_diamond_fanout(self):
        """Two independent quantum probes feeding one combiner."""
        wf = Workflow()
        wf.add_classical("start", lambda up: None)
        wf.add_quantum("probe-x", lambda up: probe_circuit(np.pi / 2), after=("start",), shots=200)
        wf.add_quantum("probe-y", lambda up: probe_circuit(np.pi), after=("start",), shots=200)
        wf.add_classical(
            "combine",
            lambda up: {
                "x": up["probe-x"].expectation_occupation().mean(),
                "y": up["probe-y"].expectation_occupation().mean(),
            },
            after=("probe-x", "probe-y"),
        )
        result = wf.run(env())
        combined = result["combine"]
        assert combined["y"] > combined["x"]  # pi pulse excites more than pi/2

    def test_data_flows_between_quantum_steps(self):
        """Second quantum step's program depends on the first's result."""
        wf = Workflow()
        wf.add_quantum("coarse", lambda up: probe_circuit(np.pi / 2), shots=200)

        def refine(up):
            occ = up["coarse"].expectation_occupation().mean()
            # push toward full excitation based on the coarse estimate
            theta = np.pi if occ < 0.9 else np.pi / 2
            return probe_circuit(theta)

        wf.add_quantum("refined", refine, after=("coarse",), shots=200)
        result = wf.run(env())
        assert result["refined"].expectation_occupation().mean() > 0.9


class TestSimulatedExecution:
    def test_payload_runs_in_cluster_with_concurrent_probes(self):
        from repro.cluster import JobSpec, Node, Partition, SlurmController
        from repro.daemon import MiddlewareDaemon
        from repro.qpu import QPUDevice, ShotClock
        from repro.qrmi import OnPremQPUResource
        from repro.simkernel import Simulator

        sim = Simulator()
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
            rng=np.random.default_rng(0),
        )
        daemon = MiddlewareDaemon(sim, {"onprem": OnPremQPUResource("onprem", device)})
        wf_env = RuntimeEnvironment.with_daemon(
            daemon, user="wf-user", priority_class="production", default_resource="onprem"
        )

        wf = Workflow("hpc-wf")
        wf.add_quantum("a", lambda up: probe_circuit(np.pi / 2), shots=50)
        wf.add_quantum("b", lambda up: probe_circuit(np.pi), shots=50)
        wf.add_classical(
            "merge",
            lambda up: sum(sum(up[k].counts.values()) for k in ("a", "b")),
            after=("a", "b"),
            classical_seconds=3.0,
        )

        nodes = [Node("n0", cpus=4)]
        ctl = SlurmController(sim, nodes, [Partition("batch", nodes)])
        job_id = ctl.submit(JobSpec(name="wf-job", payload=wf.as_payload(wf_env)))
        sim.run()
        job = ctl.jobs[job_id]
        assert job.state.value == "completed"
        assert job.result["merge"] == 100
        # both probes went through the middleware
        assert daemon.scheduler.tasks_completed == 2

    def test_counts_of_helper(self):
        wf = Workflow()
        wf.add_quantum("q", lambda up: probe_circuit(), shots=50)
        result = wf.run(env())
        counts = Workflow.counts_of(result["q"])
        assert sum(counts.values()) == 50
        with pytest.raises(ReproError):
            Workflow.counts_of("not a result")
