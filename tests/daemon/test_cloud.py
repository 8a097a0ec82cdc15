"""Tests for the cloud intake gateway (JHPC-Quantum-style extension)."""

import numpy as np
import pytest

from repro.errors import AuthError, DaemonError
from repro.daemon import MiddlewareDaemon
from repro.daemon.cloud import CloudGateway
from repro.daemon.queue import PriorityClass
from repro.qpu import ConstantWaveform, QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import Pulse, Sequence
from repro.simkernel import Simulator
from repro.spec import JobSpec


def make_program(shots=50):
    seq = Sequence(Register.chain(2, spacing=6.0), name="cloud-task")
    seq.declare_channel("ch")
    seq.add(Pulse.constant_detuning(ConstantWaveform(0.5, 2.0), 0.0), "ch")
    seq.measure()
    return seq.build(shots=shots)


def build():
    sim = Simulator()
    device = QPUDevice(
        clock=ShotClock(shot_rate_hz=10.0, setup_overhead_s=0.0, batch_overhead_s=0.0),
        rng=np.random.default_rng(0),
    )
    daemon = MiddlewareDaemon(sim, {"onprem": OnPremQPUResource("onprem", device)})
    return sim, daemon, CloudGateway(daemon)


class TestProvisioning:
    def test_provision_and_list(self):
        _, _, gw = build()
        key = gw.provision_tenant("uni-lab")
        assert key.startswith("ck_")
        assert gw.tenants() == ["uni-lab"]

    def test_duplicate_tenant_rejected(self):
        _, _, gw = build()
        gw.provision_tenant("lab")
        with pytest.raises(DaemonError):
            gw.provision_tenant("lab")

    def test_production_priority_forbidden(self):
        _, _, gw = build()
        with pytest.raises(DaemonError):
            gw.provision_tenant("vip", priority_class=PriorityClass.PRODUCTION)

    def test_revoke(self):
        _, _, gw = build()
        key = gw.provision_tenant("lab")
        gw.revoke_tenant("lab")
        with pytest.raises(AuthError):
            gw.submit(key, JobSpec(program=make_program(), resource="onprem"))


class TestIntake:
    def test_submit_poll_fetch(self):
        sim, daemon, gw = build()
        key = gw.provision_tenant("lab")
        task_id = gw.submit(key, JobSpec(program=make_program(shots=30), resource="onprem"))
        sim.run()
        assert gw.status(key, task_id)["state"] == "completed"
        result = gw.result(key, task_id)
        # lab enters at TEST priority: dev shot caps don't apply, test caps do
        assert sum(result.counts.values()) == 30

    def test_invalid_key(self):
        _, _, gw = build()
        with pytest.raises(AuthError):
            gw.submit("ck_bogus", JobSpec(program=make_program(), resource="onprem"))

    def test_cross_tenant_isolation(self):
        sim, daemon, gw = build()
        key_a = gw.provision_tenant("lab-a")
        key_b = gw.provision_tenant("lab-b")
        task_id = gw.submit(key_a, JobSpec(program=make_program(shots=10), resource="onprem"))
        sim.run()
        with pytest.raises(AuthError):
            gw.result(key_b, task_id)

    def test_cloud_never_outranks_production(self):
        sim, daemon, gw = build()
        key = gw.provision_tenant("lab", priority_class=PriorityClass.TEST)
        prod = daemon.create_session("site-operator", "production")
        # fill the QPU with a cloud task, then production arrives
        t_cloud2_holder = gw.submit(key, JobSpec(program=make_program(shots=200), resource="onprem"))
        t_cloud = gw.submit(key, JobSpec(program=make_program(shots=200), resource="onprem"))
        sim.run(until=1.0)
        t_prod = daemon.submit_task(prod.token, make_program(shots=50), "onprem")
        sim.run()
        assert t_prod.started_at < daemon.queue.get(t_cloud).started_at

    def test_rate_limit(self):
        sim, daemon, gw = build()
        key = gw.provision_tenant("spammy", max_submissions_per_hour=6.0)
        # burst capacity = 6/6 = 1 -> second immediate submit is limited
        gw.submit(key, JobSpec(program=make_program(shots=5), resource="onprem"))
        with pytest.raises(DaemonError, match="rate limit"):
            gw.submit(key, JobSpec(program=make_program(shots=5), resource="onprem"))

    def test_rate_limit_refills_over_time(self):
        sim, daemon, gw = build()
        key = gw.provision_tenant("patient", max_submissions_per_hour=60.0)
        for _ in range(10):  # burst cap = 10
            gw.submit(key, JobSpec(program=make_program(shots=1), resource="onprem"))
        with pytest.raises(DaemonError):
            gw.submit(key, JobSpec(program=make_program(shots=1), resource="onprem"))
        sim.run(until=120.0)  # one minute per token at 60/hour
        gw.submit(key, JobSpec(program=make_program(shots=1), resource="onprem"))  # refilled

    def test_shot_quota(self):
        sim, daemon, gw = build()
        key = gw.provision_tenant("small", shot_quota=100, max_submissions_per_hour=1000.0)
        gw.submit(key, JobSpec(program=make_program(shots=80), resource="onprem"))
        with pytest.raises(DaemonError, match="quota"):
            gw.submit(key, JobSpec(program=make_program(shots=50), resource="onprem"))
        usage = gw.usage(key)
        assert usage["shots_used"] == 80
        assert usage["shot_quota"] == 100

    def test_quota_checks_the_programs_own_shot_count(self):
        # a spec without shots= runs at the program's count, so the
        # quota must check that count -- not a 100-shot default
        sim, daemon, gw = build()
        key = gw.provision_tenant("small", shot_quota=100, max_submissions_per_hour=1000.0)
        with pytest.raises(DaemonError, match="quota") as err:
            gw.submit(key, JobSpec(program=make_program(shots=500), resource="onprem"))
        assert "requested 500" in str(err.value)
        usage = gw.usage(key)
        assert usage["shots_used"] == 0
        assert usage["shots_used"] <= usage["shot_quota"]

    def test_quota_admits_a_program_that_fits_the_remainder(self):
        sim, daemon, gw = build()
        key = gw.provision_tenant("small", shot_quota=100, max_submissions_per_hour=1000.0)
        gw.submit(key, JobSpec(program=make_program(shots=40), resource="onprem"))
        assert gw.usage(key)["shots_used"] == 40  # 60 shots left
        gw.submit(key, JobSpec(program=make_program(shots=30), resource="onprem"))
        usage = gw.usage(key)
        assert usage["shots_used"] == 70
        assert usage["shots_used"] <= usage["shot_quota"]

    def test_usage_report(self):
        _, _, gw = build()
        key = gw.provision_tenant("lab")
        usage = gw.usage(key)
        assert usage["tenant"] == "lab"
        assert usage["priority_class"] == "test"


class TestTenantNameIndex:
    """provision/revoke go through the O(1) name index, not key scans."""

    def test_reprovision_after_revoke(self):
        _, _, gw = build()
        old_key = gw.provision_tenant("lab")
        gw.revoke_tenant("lab")
        new_key = gw.provision_tenant("lab")
        assert new_key != old_key
        assert gw.tenants() == ["lab"]
        with pytest.raises(AuthError):
            gw.submit(old_key, JobSpec(program=make_program(), resource="onprem"))

    def test_revoke_unknown_still_loud(self):
        _, _, gw = build()
        gw.provision_tenant("lab")
        with pytest.raises(DaemonError, match="unknown tenant"):
            gw.revoke_tenant("ghost")

    def test_index_and_key_table_stay_consistent(self):
        _, _, gw = build()
        keys = {name: gw.provision_tenant(name) for name in ("a", "b", "c")}
        gw.revoke_tenant("b")
        assert gw.tenants() == ["a", "c"]
        assert gw._by_name.keys() == {"a", "c"}
        assert {t.name for t in gw._tenants.values()} == {"a", "c"}
        assert gw._tenants[keys["a"]].name == "a"
