"""``CalibrationState.fidelity_proxy`` is computed once per version.

The memo must be invisible: the value equals the ``np.clip`` formula it
replaced, bit for bit, and every assignment to a versioned field drops
it.  A device whose calibration object is replaced outright must not
keep serving the old state's noise model.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.qpu import CalibrationState, QPUDevice

VERSIONED = (
    "t1_us",
    "t2_us",
    "state_prep_error",
    "detection_epsilon",
    "detection_epsilon_prime",
    "rabi_calibration_error",
    "detuning_offset",
    "last_calibrated_at",
)


def clip_reference(state: CalibrationState) -> float:
    """The scoring formula as written before the memo, ending in np.clip."""
    nominal = state.NOMINAL
    penalties = [
        max(0.0, nominal["t2_us"] / max(state.t2_us, 1e-6) - 1.0) * 0.1,
        max(0.0, state.state_prep_error - nominal["state_prep_error"]) * 10.0,
        max(0.0, state.detection_epsilon - nominal["detection_epsilon"]) * 10.0,
        max(0.0, state.detection_epsilon_prime - nominal["detection_epsilon_prime"]) * 10.0,
        max(0.0, state.rabi_calibration_error - nominal["rabi_calibration_error"]) * 5.0,
        abs(state.detuning_offset) * 0.2,
    ]
    return float(np.clip(1.0 - sum(penalties), 0.0, 1.0))


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


RATE = st.floats(0.0, 1.0)
STATES = st.builds(
    CalibrationState,
    t1_us=st.floats(1.0, 200.0),
    t2_us=st.one_of(st.floats(1e-9, 500.0), st.floats(0.0, 1e-6)),
    state_prep_error=RATE,
    detection_epsilon=RATE,
    detection_epsilon_prime=RATE,
    rabi_calibration_error=RATE,
    detuning_offset=st.one_of(
        st.floats(-50.0, 50.0), st.sampled_from((float("nan"), float("inf")))
    ),
)


class TestFidelityProxy:
    @settings(max_examples=300, deadline=None)
    @given(state=STATES)
    @example(state=CalibrationState())
    @example(state=CalibrationState(t2_us=10.0, detection_epsilon=0.05))
    # far past every bound: the score clips at 0
    @example(state=CalibrationState(t2_us=1.0, detection_epsilon=0.5, detuning_offset=3.0))
    @example(state=CalibrationState(state_prep_error=0.105))
    def test_equals_the_clip_formula(self, state):
        expected = clip_reference(state)
        assert same(state.fidelity_proxy(), expected)
        assert same(state.fidelity_proxy(), expected)  # served from the memo
        assert same(state.snapshot()["fidelity_proxy"], expected)

    def test_clipped_states_score_zero(self):
        state = CalibrationState(t2_us=1.0, detection_epsilon=0.5, detuning_offset=3.0)
        assert clip_reference(state) == 0.0
        assert state.fidelity_proxy() == 0.0

    @pytest.mark.parametrize("name", VERSIONED)
    def test_every_versioned_assignment_drops_the_memo(self, name):
        state = CalibrationState()
        assert state.fidelity_proxy() == clip_reference(state)
        version = state.version
        # a value that moves the score for every field the score reads
        value = {"t2_us": 20.0, "detuning_offset": 0.5, "t1_us": 10.0,
                 "last_calibrated_at": 99.0}.get(name, 0.2)
        setattr(state, name, value)
        assert state.version == version + 1
        assert state.fidelity_proxy() == clip_reference(state)
        assert state.snapshot()["fidelity_proxy"] == state.fidelity_proxy()
        if name not in ("t1_us", "last_calibrated_at"):
            assert state.fidelity_proxy() < 1.0

    def test_in_place_updates_and_recalibration(self):
        state = CalibrationState()
        trail = []
        for _ in range(5):
            state.t2_us -= 7.0
            state.detuning_offset += 0.1
            trail.append(state.fidelity_proxy())
            assert trail[-1] == clip_reference(state)
        assert trail == sorted(trail, reverse=True)
        state.recalibrate(now=10.0)
        assert state.fidelity_proxy() == clip_reference(state) == 1.0


class TestReplacedCalibration:
    def test_noise_model_follows_a_replaced_state(self):
        device = QPUDevice()
        assert device._noise_model().detection_epsilon == 0.01
        # the fresh state starts again at version 0
        device.calibration = CalibrationState(t2_us=10.0, detection_epsilon=0.05)
        assert device.calibration.version == 0
        assert device._noise_model().detection_epsilon == 0.05

    def test_noise_model_still_cached_per_version(self):
        device = QPUDevice()
        first = device._noise_model()
        assert device._noise_model() is first
        device.calibration.detection_epsilon = 0.04
        drifted = device._noise_model()
        assert drifted is not first
        assert drifted.detection_epsilon == 0.04
