"""Tests for the synthetic workloads: VQE, QAA, SQD, job streams."""

import numpy as np
import pytest

from repro.config import DictConfig
from repro.runtime import RuntimeEnvironment
from repro.scheduling import WorkloadPattern
from repro.simkernel import RngRegistry
from repro.workloads import (
    HybridJobFactory,
    JobStream,
    SQDWorkload,
    StreamConfig,
    ising_energy_from_counts,
    make_qaa_program,
    make_vqe,
    qaa_energy,
    sqd_postprocess,
)


def emu_env():
    return RuntimeEnvironment.from_config(
        DictConfig(
            {
                "QRMI_RESOURCES": "emu",
                "QRMI_EMU_TYPE": "local-emulator",
                "QRMI_EMU_EMULATOR": "emu-mps",
                "QRMI_EMU_MAX_BOND_DIM": "16",
            }
        )
    )


class TestEnergyEstimators:
    def test_afm_state_is_low_energy(self):
        afm = {"101010": 100}
        uniform = {"111111": 100}
        assert ising_energy_from_counts(afm) < ising_energy_from_counts(uniform)

    def test_empty_counts_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            ising_energy_from_counts({})

    def test_qaa_energy_consistent(self):
        counts = {"1010": 50, "0101": 50}
        assert qaa_energy(counts) == qaa_energy({"1010": 1, "0101": 1})


class TestVQE:
    def test_vqe_improves_energy(self):
        env = emu_env()
        vqe = make_vqe(n_atoms=4, shots=300, max_iterations=10, sweep_duration=1.5)
        summary = vqe.run(env)
        first_energy = vqe.history[0][1]
        assert summary["best_value"] <= first_energy
        assert summary["iterations"] == 10

    def test_vqe_finds_ordered_phase(self):
        """The optimum of the AFM objective is the alternating pattern; a
        short VQE should at least reach negative energy (excitations win)."""
        env = emu_env()
        vqe = make_vqe(n_atoms=4, shots=300, max_iterations=8)
        summary = vqe.run(env)
        assert summary["best_value"] < 0.0


class TestQAA:
    def test_program_shape(self):
        program = make_qaa_program(n_atoms=6, shots=100)
        assert program.num_qubits == 6
        assert program.shots == 100
        assert program.duration_us == pytest.approx(4.0)

    def test_sweep_prepares_ordered_phase(self):
        """The sweep must end in a blockade-ordered state: a maximal
        independent set (no adjacent excitations, 3 excitations on a
        6-chain; degenerate under open boundaries)."""
        env = emu_env()
        program = make_qaa_program(n_atoms=6, shots=400)
        result = env.run(program)
        top = result.most_frequent()
        occupations = [int(b) for b in top]
        assert sum(occupations) == 3
        assert all(not (a and b) for a, b in zip(occupations, occupations[1:], strict=False))


class TestSQD:
    def test_postprocess_solves_subspace(self):
        env = emu_env()
        workload = SQDWorkload(n_atoms=6, shots=200, max_dim=64)
        result = env.run(workload.quantum_program())
        report = workload.run_postprocess(result.counts)
        assert report["subspace_dim"] <= 64
        assert report["num_qubits"] == 6
        # subspace ground energy must beat the raw sample mean energy
        sample_energy = qaa_energy(result.counts, h_field=-6.0)
        assert report["ground_energy"] <= sample_energy + 1e-6

    def test_subspace_dim_capped(self):
        counts = {format(i, "04b"): 1 for i in range(16)}
        from repro.qpu import Register

        report = sqd_postprocess(counts, Register.chain(4, spacing=6.0), max_dim=5)
        assert report["subspace_dim"] == 5

    def test_full_subspace_matches_exact_diagonalization(self):
        """Sampling every configuration makes the subspace the whole
        Hilbert space, so the result is the exact ground energy of H,
        built here independently from Kronecker products."""
        from repro.qpu import Register
        from repro.qpu.hamiltonian import interaction_matrix

        n, delta, omega = 4, 6.0, 2.0
        register = Register.chain(n, spacing=6.0)
        counts = {format(s, f"0{n}b"): 1 for s in range(2**n)}
        report = sqd_postprocess(counts, register, delta=delta, omega=omega)

        u = interaction_matrix(register)
        occ = np.array([[int(c) for c in format(s, f"0{n}b")] for s in range(2**n)], dtype=float)
        h = np.diag(0.5 * np.einsum("si,ij,sj->s", occ, u, occ) - delta * occ.sum(axis=1))
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for k in range(n):
            term = np.ones((1, 1))
            for q in range(n):
                term = np.kron(term, x if q == k else np.eye(2))
            h += (omega / 2.0) * term
        assert report["subspace_dim"] == 2**n
        assert report["ground_energy"] == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-9)
        # the diagonal plus both halves of every single-flip coupling
        assert report["nnz"] == 2**n + n * 2**n

    def test_classical_cost_model_superlinear(self):
        w = SQDWorkload()
        assert w.classical_seconds(400) > 2 * w.classical_seconds(200)


class TestJobStream:
    def test_reproducible_generation(self):
        cfg = StreamConfig(num_jobs=10)
        a = JobStream(cfg, RngRegistry(7)).generate()
        b = JobStream(cfg, RngRegistry(7)).generate()
        assert [(t, j.pattern) for t, j in a] == [(t, j.pattern) for t, j in b]

    def test_arrivals_sorted_and_positive(self):
        stream = JobStream(StreamConfig(num_jobs=20), RngRegistry(0))
        jobs = stream.generate()
        times = [t for t, _ in jobs]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_mix_respected(self):
        cfg = StreamConfig(
            mix={WorkloadPattern.HIGH_QC_LOW_CC: 1.0},
            num_jobs=5,
        )
        jobs = JobStream(cfg, RngRegistry(0)).generate()
        assert all(j.pattern is WorkloadPattern.HIGH_QC_LOW_CC for _, j in jobs)

    def test_job_estimates_match_pattern(self):
        factory = HybridJobFactory()
        for pattern in WorkloadPattern:
            job = factory.make(pattern)
            estimate = job.estimate(shot_period_s=1.0)
            assert estimate.pattern is pattern, f"{pattern} misclassified"

    def test_hint_strings(self):
        factory = HybridJobFactory()
        job = factory.make(WorkloadPattern.LOW_QC_HIGH_CC)
        assert job.hint == "cc-heavy"

    def test_payload_runs_against_daemon(self):
        from repro.daemon import MiddlewareDaemon, build_router
        from repro.qpu import QPUDevice, ShotClock
        from repro.qrmi import OnPremQPUResource
        from repro.runtime import DaemonClient
        from repro.simkernel import Simulator
        from repro.cluster import JobSpec, Node, Partition, SlurmController

        sim = Simulator()
        device = QPUDevice(
            clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
            rng=np.random.default_rng(0),
        )
        daemon = MiddlewareDaemon(sim, {"onprem": OnPremQPUResource("onprem", device)})
        router = build_router(daemon)
        job = HybridJobFactory().make(WorkloadPattern.HIGH_QC_LOW_CC, user="alice")

        def client_factory():
            client = DaemonClient(router)
            client.open_session("alice", priority_class="production")
            return client

        nodes = [Node("n0", cpus=8)]
        ctl = SlurmController(sim, nodes, [Partition("batch", nodes)])
        job_id = ctl.submit(
            JobSpec(name=job.name, payload=job.payload(client_factory, "onprem"))
        )
        sim.run()
        assert ctl.jobs[job_id].state.value == "completed"
        assert device.tasks_completed == job.iterations
