"""One read-only calibration snapshot per calibration version.

Every QPU result carries the calibration it ran under, and its job
metadata record keeps it.  Results of one calibration version share one
read-only mapping (``CalibrationState.snapshot_view``), memoised like
``fidelity_proxy``: any versioned change — a drift step, a jump, a
recalibration, a direct assignment — makes the next result carry a new
one, and the old one keeps its values.  ``snapshot()`` still returns a
dict the caller owns.
"""

import numpy as np
import pytest

from repro.observability import JobMetadataStore
from repro.qpu import CalibrationState, ConstantWaveform, DriftModel, DriveSegment, QPUDevice, Register


def run(device, shots=10):
    register = Register.chain(2, spacing=6.0)
    segments = [DriveSegment(ConstantWaveform(1.0, np.pi), ConstantWaveform(1.0, 0.0))]
    return device.run_now(register, segments, shots=shots)


class TestSharedView:
    def test_one_version_shares_one_read_only_mapping(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        first, second = run(device), run(device, shots=20)
        view = first.metadata["calibration"]
        assert second.metadata["calibration"] is view
        assert dict(view) == device.calibration.snapshot()
        with pytest.raises(TypeError):
            view["t2_us"] = 1.0

    def test_job_metadata_keeps_the_shared_mapping(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        store = JobMetadataStore()
        records = [store.record_from_result(f"t{i}", 0.0, run(device)) for i in range(2)]
        assert records[0].calibration is records[1].calibration
        assert records[0].calibration is device.calibration.snapshot_view()

    def test_foreign_calibration_is_copied_read_only(self):
        class Result:
            shots, backend = 1, "stub"
            metadata = {"calibration": {"t2_us": 50.0}}

        record = JobMetadataStore().record_from_result("t", 0.0, Result())
        Result.metadata["calibration"]["t2_us"] = 1.0
        assert record.calibration["t2_us"] == 50.0
        with pytest.raises(TypeError):
            record.calibration["t2_us"] = 2.0

    def test_drift_step_yields_a_new_mapping(self):
        device = QPUDevice(rng=np.random.default_rng(0))
        before = run(device).metadata["calibration"]
        DriftModel().step(device.calibration, 600.0, np.random.default_rng(1))
        after = run(device).metadata["calibration"]
        assert after is not before
        assert after["t2_us"] == device.calibration.t2_us != before["t2_us"]
        assert before["t2_us"] == 50.0

    @pytest.mark.parametrize("change", ["recalibrate", "assign"])
    def test_every_versioned_change_yields_a_new_mapping(self, change):
        state = CalibrationState()
        before = state.snapshot_view()
        if change == "recalibrate":
            state.recalibrate(now=30.0)
            assert state.snapshot_view()["last_calibrated_at"] == 30.0
        else:
            state.detection_epsilon = 0.04
            assert state.snapshot_view()["fidelity_proxy"] == state.fidelity_proxy() < 1.0
        assert state.snapshot_view() is not before
        assert before["last_calibrated_at"] == 0.0 and before["detection_epsilon"] == 0.01


def test_snapshot_is_a_fresh_dict_the_caller_owns():
    state = CalibrationState()
    first = state.snapshot()
    assert type(first) is dict and state.snapshot() is not first
    first["t2_us"] = 1e9
    assert state.snapshot()["t2_us"] == 50.0
