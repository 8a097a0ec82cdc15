"""Property-based tests (hypothesis) on cross-layer invariants."""

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import JobSpec, Node, Partition, SlurmController
from repro.daemon.queue import MiddlewareQueue, PriorityClass
from repro.observability import TimeSeriesDB
from repro.qpu import ConstantWaveform, DriveSegment, RampWaveform, Register
from repro.sdk import AnalogProgram, Pulse, Sequence
from repro.simkernel import Simulator
from tests.daemon.queueutil import take_next


def make_program(shots=10, n=2):
    seq = Sequence(Register.chain(n, spacing=6.0))
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 1.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


job_strategy = st.tuples(
    st.integers(min_value=1, max_value=8),     # cpus
    st.floats(min_value=0.5, max_value=50.0),  # duration
    st.integers(min_value=0, max_value=5),     # priority
)


class TestClusterInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=15))
    def test_nodes_never_oversubscribed_and_all_jobs_finish(self, jobs):
        """Under arbitrary job mixes: capacity conservation at every
        event, and the cluster drains (no lost jobs)."""
        sim = Simulator()
        nodes = [Node(f"n{i}", cpus=8) for i in range(2)]
        ctl = SlurmController(sim, nodes, [Partition("batch", nodes)])

        violations = []

        def check_capacity(record):
            for node in nodes:
                if node.cpus_allocated > node.schedulable_cpus:
                    violations.append((record.time, node.name))

        ctl.trace.subscribe(check_capacity)
        for i, (cpus, duration, priority) in enumerate(jobs):
            ctl.submit(
                JobSpec(name=f"j{i}", cpus=cpus, duration=duration, priority=priority)
            )
        sim.run()
        assert not violations
        assert all(job.is_terminal for job in ctl.jobs.values())
        assert len(ctl.accounting) == len(jobs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=2, max_size=12))
    def test_no_priority_inversion_at_equal_shape(self, jobs):
        """Among same-shape jobs submitted together, a strictly higher
        priority job never starts after a strictly lower one."""
        sim = Simulator()
        nodes = [Node("n0", cpus=4)]
        ctl = SlurmController(sim, nodes, [Partition("batch", nodes)])
        ids = []
        for i, (_, duration, priority) in enumerate(jobs):
            ids.append(
                ctl.submit(
                    JobSpec(name=f"j{i}", cpus=4, duration=min(duration, 10.0), priority=priority)
                )
            )
        sim.run()
        started = [(ctl.jobs[j].start_time, ctl.jobs[j].spec.priority) for j in ids]
        for t1, p1 in started:
            for t2, p2 in started:
                if p1 > p2:
                    assert t1 <= t2


class TestQueueInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sampled_from([PriorityClass.PRODUCTION, PriorityClass.TEST, PriorityClass.DEVELOPMENT]),
            min_size=1,
            max_size=25,
        )
    )
    def test_pop_order_respects_class_then_fifo(self, classes):
        queue = MiddlewareQueue(shot_cap=None)
        program = make_program()
        submitted = []
        for i, cls in enumerate(classes):
            task = queue.submit(f"s{i}", f"u{i}", program, cls, "qpu", now=float(i))
            submitted.append(task)
        popped = []
        while True:
            task = take_next(queue)
            if task is None:
                break
            popped.append(task)
        assert len(popped) == len(submitted)
        # verify (class, enqueue-time) lexicographic order
        keys = [(int(t.priority), t.enqueued_at) for t in popped]
        assert keys == sorted(keys)


class TestIRInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=6.0),
        st.integers(min_value=1, max_value=1000),
    )
    def test_ir_dict_roundtrip_preserves_hash(self, n, duration, omega, shots):
        seq = Sequence(Register.chain(n, spacing=6.0))
        seq.declare_channel("ch")
        seq.add(Pulse.constant_detuning(ConstantWaveform(duration, omega), 0.0), "ch")
        seq.measure()
        program = seq.build(shots=shots)
        again = AnalogProgram.from_dict(program.to_dict())
        assert again.content_hash() == program.content_hash()
        assert again.shots == shots

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=4.0, max_value=12.0),
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=2.0),     # duration
                st.floats(min_value=0.0, max_value=12.0),     # omega
                st.floats(min_value=-50.0, max_value=50.0),   # detuning start
                st.floats(min_value=-50.0, max_value=50.0),   # detuning stop
                st.floats(min_value=-3.0, max_value=3.0),     # phase
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=5000),
    )
    def test_memoized_content_hash_equals_a_fresh_computation(
        self, n, spacing, parts, shots
    ):
        """The memo (on the program and on its register and segments) is
        invisible: every path gives the digest of the sorted-key JSON of
        the physics content."""
        segments = tuple(
            DriveSegment(
                ConstantWaveform(duration, omega),
                RampWaveform(duration, start, stop),
                phase=phase,
            )
            for duration, omega, start, stop, phase in parts
        )
        program = AnalogProgram(Register.chain(n, spacing=spacing), segments, shots=7)
        payload = {
            "register": program.register.to_dict(),
            "segments": [seg.to_dict() for seg in segments],
        }
        fresh = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert program.content_hash() == fresh
        assert program.with_shots(shots).content_hash() == fresh
        assert AnalogProgram.from_dict(program.to_dict()).content_hash() == fresh
        assert program.with_shots(shots).to_dict() == {**program.to_dict(), "shots": shots}


class TestPhysicsInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_statevector_norm_preserved(self, n, omega, delta):
        from repro.emulators import StateVectorEmulator
        from repro.qpu import DriveSegment, RydbergHamiltonian

        reg = Register.chain(n, spacing=6.0)
        seg = DriveSegment(ConstantWaveform(1.0, omega), ConstantWaveform(1.0, delta))
        ham = RydbergHamiltonian(reg, [seg], dt=0.02)
        psi = StateVectorEmulator().evolve(ham)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_mps_counts_total_and_norm(self, n, omega):
        from repro.emulators import MPSEmulator
        from repro.qpu import DriveSegment, RydbergHamiltonian

        reg = Register.chain(n, spacing=6.0)
        seg = DriveSegment(ConstantWaveform(0.5, omega), ConstantWaveform(0.5, 0.0))
        ham = RydbergHamiltonian(reg, [seg], dt=0.02)
        emu = MPSEmulator(max_bond_dim=8)
        mps, order = emu.evolve(ham)
        psi = mps[0]
        for tensor in mps[1:]:
            psi = np.tensordot(psi, tensor, axes=([-1], [0]))
        norm2 = float(np.vdot(psi, psi).real)
        assert abs(norm2 - 1.0) < 1e-6
        result = emu.run(ham, 40, np.random.default_rng(0))
        assert sum(result.counts.values()) == 40


class TestTSDBInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_query_returns_sorted_window(self, times):
        db = TimeSeriesDB()
        for t in sorted(times):
            db.write("m", t, 1.0)
        got, _ = db.query("m")
        assert list(got) == sorted(got)
        mid = sorted(times)[len(times) // 2]
        window, _ = db.query("m", since=mid)
        assert all(t >= mid for t in window)


class TestTokenInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_session_tokens_unique(self, n):
        from repro.daemon import SessionManager, TokenStore

        mgr = SessionManager(TokenStore())
        tokens = {mgr.create(f"user-{i}", now=0.0).token for i in range(n)}
        assert len(tokens) == n
