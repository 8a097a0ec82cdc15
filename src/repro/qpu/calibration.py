"""Calibration state and drift processes.

The paper's §2.1 identifies the core analog-hardware problem this
stack must surface: "quantum processors are subject to calibration
drift over time, which can lead to discrepancies between the
environment in which a program is developed or tested and the one in
which it is executed."

We model a calibration state as a set of physical parameters, each
following a mean-reverting **Ornstein-Uhlenbeck** process around its
nominal value plus occasional jump events (e.g. laser realignment
shifts).  A recalibration resets parameters to nominal.  The
calibration state maps to the shared :class:`~repro.emulators.noise.NoiseModel`,
so drift visibly degrades user results, which is exactly what the
drift-detection experiment (C6 in DESIGN.md) measures.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ..errors import CalibrationError
from ..emulators.noise import NoiseModel
from ..simkernel import Simulator, Timeout

__all__ = ["CalibrationState", "DriftEnsemble", "DriftModel", "DriftProcess"]

#: parameters whose mutation bumps :attr:`CalibrationState.version`
_VERSIONED_FIELDS = frozenset(
    (
        "t1_us",
        "t2_us",
        "state_prep_error",
        "detection_epsilon",
        "detection_epsilon_prime",
        "rabi_calibration_error",
        "detuning_offset",
        "last_calibrated_at",
    )
)


@dataclass
class CalibrationState:
    """Current physical calibration of the device.

    ``fidelity_proxy`` summarizes overall health in [0, 1]; 1.0 = nominal.
    ``version`` counts parameter mutations (drift steps, jumps,
    recalibrations, direct assignment) — a cheap change signal that lets
    snapshot caches skip recomputing fidelity when nothing drifted.

    The proxy itself is computed once per version: every assignment to a
    versioned field drops the memo along with the version bump, so the
    schedulers, the federation registry and the device status that ask
    for it between two drift steps share one computation.  The memo is
    per object — a freshly constructed state (``version`` 0 again) never
    sees another state's value.  :meth:`snapshot_view` is memoised the
    same way: every result and job-metadata record of one version
    shares one read-only mapping.
    """

    t1_us: float = 100.0                 # effective relaxation time
    t2_us: float = 50.0                  # effective coherence time
    state_prep_error: float = 0.005
    detection_epsilon: float = 0.01
    detection_epsilon_prime: float = 0.03
    rabi_calibration_error: float = 0.01  # relative Omega miscalibration
    detuning_offset: float = 0.0          # rad/us systematic offset
    last_calibrated_at: float = 0.0
    #: declared after every tracked field so dataclass __init__ resets it
    #: to 0 deterministically once the field assignments above ran
    version: int = 0
    #: fidelity_proxy() of the current version; None until first asked
    _fidelity: float | None = field(default=None, init=False, repr=False, compare=False)
    #: snapshot_view() of the current version; None until first asked
    _view: Mapping[str, float] | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _VERSIONED_FIELDS:
            object.__setattr__(self, "version", getattr(self, "version", 0) + 1)
            object.__setattr__(self, "_fidelity", None)
            object.__setattr__(self, "_view", None)

    NOMINAL: dict[str, float] = field(
        default_factory=lambda: {
            "t1_us": 100.0,
            "t2_us": 50.0,
            "state_prep_error": 0.005,
            "detection_epsilon": 0.01,
            "detection_epsilon_prime": 0.03,
            "rabi_calibration_error": 0.01,
            "detuning_offset": 0.0,
        }
    )

    def fidelity_proxy(self) -> float:
        """Scalar health score: 1 at nominal, decreasing with degradation."""
        fidelity = self._fidelity
        if fidelity is not None:
            return fidelity
        nominal = self.NOMINAL
        penalties = [
            max(0.0, nominal["t2_us"] / max(self.t2_us, 1e-6) - 1.0) * 0.1,
            max(0.0, self.state_prep_error - nominal["state_prep_error"]) * 10.0,
            max(0.0, self.detection_epsilon - nominal["detection_epsilon"]) * 10.0,
            max(0.0, self.detection_epsilon_prime - nominal["detection_epsilon_prime"]) * 10.0,
            max(0.0, self.rabi_calibration_error - nominal["rabi_calibration_error"]) * 5.0,
            abs(self.detuning_offset) * 0.2,
        ]
        # max/min in this argument order pass NaN through, as np.clip did
        fidelity = float(min(max(1.0 - sum(penalties), 0.0), 1.0))
        object.__setattr__(self, "_fidelity", fidelity)
        return fidelity

    def to_noise_model(self, realizations: int = 4) -> NoiseModel:
        """Derive the execution noise model from the calibration state."""
        return NoiseModel(
            state_prep_error=min(1.0, self.state_prep_error),
            detection_epsilon=min(1.0, self.detection_epsilon),
            detection_epsilon_prime=min(1.0, self.detection_epsilon_prime),
            amplitude_rel_std=self.rabi_calibration_error,
            detuning_std=abs(self.detuning_offset) + 0.02,
            noise_realizations=realizations,
        )

    def recalibrate(self, now: float) -> None:
        """Reset to nominal (a maintenance / calibration run completed)."""
        for name, value in self.NOMINAL.items():
            setattr(self, name, value)
        self.last_calibrated_at = now

    def snapshot(self) -> dict[str, float]:
        """The calibration parameters as a dict the caller owns."""
        return dict(self.snapshot_view())

    def snapshot_view(self) -> Mapping[str, float]:
        """The calibration parameters as a read-only mapping, shared by
        every caller until a versioned field changes.  It does not
        pickle or JSON-encode; :meth:`snapshot` copies it into a dict."""
        view = self._view
        if view is None:
            view = MappingProxyType({
                "t1_us": self.t1_us,
                "t2_us": self.t2_us,
                "state_prep_error": self.state_prep_error,
                "detection_epsilon": self.detection_epsilon,
                "detection_epsilon_prime": self.detection_epsilon_prime,
                "rabi_calibration_error": self.rabi_calibration_error,
                "detuning_offset": self.detuning_offset,
                "fidelity_proxy": self.fidelity_proxy(),
                "last_calibrated_at": self.last_calibrated_at,
            })
            object.__setattr__(self, "_view", view)
        return view


class DriftModel:
    """Mean-reverting (OU) drift with Poisson jump events.

    Each step of size ``dt`` updates parameter ``x`` with nominal ``mu``:

        x += theta * (mu - x) * dt + sigma * sqrt(dt) * N(0,1)

    Degradation direction is enforced (error rates drift up, coherence
    drifts down) by using one-sided noise: the diffusive term pushes
    away from nominal, mean reversion pulls back — calibration events do
    the big resets.
    """

    #: (theta, sigma, direction): direction +1 means "bad = larger".
    PARAMS: dict[str, tuple[float, float, int]] = {
        "t2_us": (0.002, 0.08, -1),
        "state_prep_error": (0.002, 2e-5, +1),
        "detection_epsilon": (0.002, 4e-5, +1),
        "detection_epsilon_prime": (0.002, 6e-5, +1),
        "rabi_calibration_error": (0.002, 5e-5, +1),
        "detuning_offset": (0.004, 3e-4, +1),
    }

    def __init__(
        self,
        jump_rate_per_hour: float = 0.2,
        jump_scale: float = 3.0,
        params: dict[str, tuple[float, float, int]] | None = None,
    ) -> None:
        if jump_rate_per_hour < 0:
            raise CalibrationError("jump rate must be >= 0")
        self.jump_rate_per_hour = jump_rate_per_hour
        self.jump_scale = jump_scale
        self.params = dict(params or self.PARAMS)
        # frozen coefficient vectors for the vectorized step (the params
        # dict is fixed at construction)
        self._names = list(self.params)
        self._theta = np.array([t for t, _, _ in self.params.values()])
        self._sigma = np.array([s for _, s, _ in self.params.values()])
        self._direction = np.array(
            [d for _, _, d in self.params.values()], dtype=np.float64
        )

    def step(self, state: CalibrationState, dt: float, rng: np.random.Generator) -> None:
        """Advance the drift by ``dt`` simulated seconds.

        All tracked parameters draw their diffusive shocks in one
        vectorized normal call; NumPy consumes the bit stream exactly
        as per-parameter scalar draws would, so stepped trajectories
        are unchanged from the scalar implementation.
        """
        if dt <= 0:
            raise CalibrationError(f"drift step dt must be positive, got {dt}")
        shocks = np.abs(rng.normal(0.0, self._sigma)) * self._direction * np.sqrt(dt)
        self._apply(state, dt, shocks)
        # Poisson jump events (sudden degradation, e.g. alignment loss).
        jump_prob = self.jump_rate_per_hour * dt / 3600.0
        if rng.random() < jump_prob:
            self.apply_jump(state, rng)

    def step_many(
        self, states: list[CalibrationState], dt: float, rng: np.random.Generator
    ) -> None:
        """Advance several states sharing a drift cadence in one batched
        draw: a single ``(len(states), params)`` normal call plus one
        uniform vector for the jump checks.

        The shared ``rng`` is consumed state-major/parameter-minor, so
        for a fixed seed the trajectory set is deterministic — but the
        stream interleaving differs from running per-state :meth:`step`
        calls against the same generator (those alternate shocks and
        jump draws per state).
        """
        if dt <= 0:
            raise CalibrationError(f"drift step dt must be positive, got {dt}")
        if not states:
            return
        count = len(states)
        shocks = (
            np.abs(rng.normal(0.0, self._sigma, size=(count, len(self._names))))
            * self._direction
            * np.sqrt(dt)
        )
        jumps = rng.random(count) < (self.jump_rate_per_hour * dt / 3600.0)
        for i, state in enumerate(states):
            self._apply(state, dt, shocks[i])
            if jumps[i]:
                self.apply_jump(state, rng)

    def _apply(self, state: CalibrationState, dt: float, shocks: np.ndarray) -> None:
        nominal = state.NOMINAL
        for name, theta, shock in zip(self._names, self._theta, shocks, strict=True):
            x = getattr(state, name)
            x = x + theta * (nominal[name] - x) * dt + shock
            if name == "t2_us":
                x = max(1.0, x)
            elif name != "detuning_offset":
                x = float(np.clip(x, 0.0, 1.0))
            setattr(state, name, x)

    def apply_jump(self, state: CalibrationState, rng: np.random.Generator) -> None:
        victim = rng.choice(list(self.params.keys()))
        theta, sigma, direction = self.params[victim]
        x = getattr(state, victim)
        jump = abs(rng.normal(0.0, sigma * self.jump_scale * 60.0)) * direction
        x = x + jump
        if victim == "t2_us":
            x = max(1.0, x)
        elif victim != "detuning_offset":
            x = float(np.clip(x, 0.0, 1.0))
        setattr(state, victim, x)


class DriftProcess:
    """Simulated process stepping a drift model on a fixed cadence."""

    def __init__(
        self,
        sim: Simulator,
        state: CalibrationState,
        model: DriftModel,
        rng: np.random.Generator,
        interval: float = 60.0,
        on_step: Callable[[CalibrationState], None] | None = None,
    ) -> None:
        if interval <= 0:
            raise CalibrationError("drift interval must be positive")
        self.sim = sim
        self.state = state
        self.model = model
        self.rng = rng
        self.interval = interval
        self.on_step = on_step
        self.process = sim.spawn(self._run(), name="calibration-drift", background=True)

    def _run(self):
        while True:
            yield Timeout(self.interval)
            self.model.step(self.state, self.interval, self.rng)
            if self.on_step is not None:
                self.on_step(self.state)


class DriftEnsemble:
    """One background process advancing *every* site's calibration on a
    shared cadence.

    A federation of N sites used to spawn N :class:`DriftProcess`
    instances — N wakeups per interval, each stepping one state with
    per-parameter draws.  The ensemble wakes once and steps all member
    states through :meth:`DriftModel.step_many`: a single batched
    normal draw covers every (site, parameter) shock.  States may join
    after the process starts (late-join sites drift from their next
    shared tick).
    """

    def __init__(
        self,
        sim: Simulator,
        model: DriftModel,
        rng: np.random.Generator,
        interval: float = 60.0,
        on_step: Callable[[list[CalibrationState]], None] | None = None,
    ) -> None:
        if interval <= 0:
            raise CalibrationError("drift interval must be positive")
        self.sim = sim
        self.model = model
        self.rng = rng
        self.interval = interval
        self.on_step = on_step
        self.states: list[CalibrationState] = []
        self.ticks = 0
        self.process = sim.spawn(
            self._run(), name="calibration-drift-ensemble", background=True
        )

    def add(self, state: CalibrationState) -> None:
        """Enroll a state; it drifts from the next shared tick on."""
        # identity, not ==: distinct sites can hold equal-valued states
        if not any(existing is state for existing in self.states):
            self.states.append(state)

    def _run(self):
        while True:
            yield Timeout(self.interval)
            self.model.step_many(self.states, self.interval, self.rng)
            self.ticks += 1
            if self.on_step is not None and self.states:
                self.on_step(self.states)
