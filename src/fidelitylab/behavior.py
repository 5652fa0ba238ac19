"""Individual corrective behaviors, from inert to predictive.

Every behavior maps the same observation shape onto the same actuator
vocabulary — a bias increment, a gain multiplier, and optionally a new
sampling period for the node's channel — so policies of very different
sophistication compare on one error metric:

1. Passive: no output, ever.
2. ActiveNonPurposeful: cycles a fixed schedule of actions, blind to
   observations.
3. PurposefulNonTeleological: a servo — a fixed policy of the setpoint
   alone, no feedback.
4. Reactive: proportional feedback, bias increment = -gain * delta.
5. Predictive(k): extrapolates the channel's intrinsic deviation one step
   ahead by least squares over its recent history and pre-empts it. Order
   k counts the context variables in the model: k=1 fits deviation against
   time; higher orders add further context figures as regressors.

The predictive fit works on the deviation net of the correction already
applied (the observation reports the channel's current correction bias),
which is what makes the extrapolation exact under a clean linear drift:
once warm, the residual error collapses to rounding noise, whereas
proportional feedback settles at drift_rate * dt / gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .reflection import DeltaSample


@dataclass(frozen=True)
class CorrectiveAction:
    """One actuator command on the node's sensing channel."""

    bias: float = 0.0
    gain: float = 1.0  # multiplier on the correction gain
    resample: Optional[float] = None  # new sampling period, if any
    fallback: bool = False  # predictive cold-start fell back to feedback

    def validate(self) -> list[str]:
        problems = []
        if self.gain <= 0:
            problems.append("gain multiplier must be > 0")
        if self.resample is not None and self.resample <= 0:
            problems.append("new sampling period must be > 0")
        return problems

    def is_zero(self) -> bool:
        return self.bias == 0.0 and self.gain == 1.0 and self.resample is None


ZERO_ACTION = CorrectiveAction()


@dataclass(frozen=True)
class HistoryEntry:
    """One remembered tick of a predictive behavior: time, deviation and
    context figures."""

    time: float
    delta: float
    context: tuple[float, ...]


@dataclass(frozen=True)
class Observation:
    """What a behavior sees each tick."""

    latest: DeltaSample
    context: tuple[float, ...] = ()
    correction: float = 0.0  # channel's current correction bias


class Behavior:
    """Base class; subclasses implement act()."""

    def act(self, obs: Observation) -> CorrectiveAction:
        raise NotImplementedError

    @property
    def order(self) -> int:
        return 0

    def validate(self, context_variables: int = 1) -> list[str]:
        return []


@dataclass
class Passive(Behavior):
    """Inert: produces no output energy."""

    def act(self, obs):
        return ZERO_ACTION


@dataclass
class ActiveNonPurposeful(Behavior):
    """Emits a fixed cyclic schedule of actions regardless of observations."""

    schedule: tuple[CorrectiveAction, ...]
    _cursor: int = field(default=0, repr=False)

    def act(self, obs):
        if not self.schedule:
            return ZERO_ACTION
        action = self.schedule[self._cursor % len(self.schedule)]
        self._cursor += 1
        return action

    def validate(self, context_variables=1):
        problems = []
        for action in self.schedule:
            problems.extend(action.validate())
        return problems


@dataclass
class PurposefulNonTeleological(Behavior):
    """Servo: a fixed policy of the setpoint, deaf to the error signal."""

    policy: CorrectiveAction = ZERO_ACTION

    def act(self, obs):
        return self.policy

    def validate(self, context_variables=1):
        return self.policy.validate()


@dataclass
class Reactive(Behavior):
    """Proportional feedback on the latest error sample."""

    feedback_gain: float = 1.0

    def act(self, obs):
        correction = -self.feedback_gain * obs.latest.delta
        if correction == 0.0:
            return ZERO_ACTION
        return CorrectiveAction(bias=correction)

    def validate(self, context_variables=1):
        if not 0.0 < self.feedback_gain <= 2.0:
            return ["reactive feedback gain must be in (0, 2]"]
        return []


@dataclass
class Predictive(Behavior):
    """Order-k extrapolation of the channel's intrinsic deviation.

    Keeps its own bounded history of (time, deviation, context) samples,
    where deviation = observed delta minus the correction already applied.
    Before k+1 samples exist it falls back to unit-gain feedback and flags
    the action, so warm-up ticks can be excluded from comparisons.
    """

    k: int = 1
    window: int = 8  # history length m >= k + 1

    def __post_init__(self):
        self._history: list[HistoryEntry] = []

    @property
    def order(self) -> int:
        return self.k

    def validate(self, context_variables=1):
        problems = []
        if self.k < 1:
            problems.append("predictive order k must be >= 1")
        if self.window < self.k + 1:
            problems.append("predictive history length must be >= k + 1")
        if self.k > context_variables:
            problems.append(
                f"predictive order {self.k} exceeds the {context_variables} "
                "tracked context variable(s)"
            )
        return problems

    def reset(self) -> None:
        self._history.clear()

    def _ingest(self, obs: Observation) -> None:
        deviation = obs.latest.delta - obs.correction
        self._history.append(
            HistoryEntry(
                time=obs.latest.time,
                delta=deviation,
                context=tuple(obs.context),
            )
        )
        if len(self._history) > self.window:
            del self._history[: len(self._history) - self.window]

    def _predict_next(self) -> float:
        entries = self._history
        times = np.array([e.time for e in entries])
        y = np.array([e.delta for e in entries])
        # Regressors: intercept, time, then k-1 extra context figures.
        columns = [np.ones_like(times), times]
        for j in range(self.k - 1):
            columns.append(np.array([e.context[j] for e in entries]))
        design = np.column_stack(columns)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        spacing = times[-1] - times[-2] if len(times) >= 2 else 0.0
        # Context regressors are held at their last value for the one-step look-ahead.
        next_row = [1.0, times[-1] + spacing]
        for j in range(self.k - 1):
            next_row.append(entries[-1].context[j])
        return float(np.dot(coef, next_row))

    def act(self, obs):
        if self.k - 1 > len(obs.context):
            raise ConfigurationError(
                f"order-{self.k} prediction needs {self.k - 1} context figures, "
                f"observation carries {len(obs.context)}"
            )
        self._ingest(obs)
        if len(self._history) < self.k + 1:
            correction = -obs.latest.delta
            return CorrectiveAction(bias=correction, fallback=True)
        predicted = self._predict_next() + obs.correction
        return CorrectiveAction(bias=-predicted)


def behavior_order(behavior: Behavior) -> int:
    """Number of context variables in the behavior's forward model (0 if none)."""
    return behavior.order


def _action_from_spec(spec: dict) -> CorrectiveAction:
    return CorrectiveAction(
        bias=float(spec.get("bias", 0.0)),
        gain=float(spec.get("gain", 1.0)),
        resample=float(spec["resample"]) if "resample" in spec else None,
    )


def behavior_from_spec(spec: dict) -> Behavior:
    """Build a fresh behavior from a plain mapping (config or catalog entry)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("behavior spec needs a 'kind' key")
    kind = spec["kind"]
    known = {
        "passive", "active_non_purposeful", "purposeful_non_teleological",
        "reactive", "predictive",
    }
    if kind not in known:
        raise ConfigurationError(f"unknown behavior kind {kind!r}")
    extra = set(spec) - {"kind", "schedule", "policy", "gain", "k", "window"}
    if extra:
        raise ConfigurationError(f"unknown behavior keys {sorted(extra)}")
    if kind == "passive":
        return Passive()
    if kind == "active_non_purposeful":
        schedule = tuple(_action_from_spec(s) for s in spec.get("schedule", []))
        return ActiveNonPurposeful(schedule=schedule)
    if kind == "purposeful_non_teleological":
        return PurposefulNonTeleological(policy=_action_from_spec(spec.get("policy", {})))
    if kind == "reactive":
        return Reactive(feedback_gain=float(spec.get("gain", 1.0)))
    return Predictive(k=int(spec.get("k", 1)), window=int(spec.get("window", 8)))


def _action_to_spec(action: CorrectiveAction) -> dict:
    spec: dict = {"bias": action.bias, "gain": action.gain}
    if action.resample is not None:
        spec["resample"] = action.resample
    return spec


def behavior_to_spec(behavior: Behavior) -> dict:
    """Inverse of behavior_from_spec, for the effective-config echo."""
    if isinstance(behavior, Passive):
        return {"kind": "passive"}
    if isinstance(behavior, ActiveNonPurposeful):
        return {
            "kind": "active_non_purposeful",
            "schedule": [_action_to_spec(a) for a in behavior.schedule],
        }
    if isinstance(behavior, PurposefulNonTeleological):
        return {
            "kind": "purposeful_non_teleological",
            "policy": _action_to_spec(behavior.policy),
        }
    if isinstance(behavior, Reactive):
        return {"kind": "reactive", "gain": behavior.feedback_gain}
    if isinstance(behavior, Predictive):
        return {"kind": "predictive", "k": behavior.k, "window": behavior.window}
    raise ConfigurationError(f"cannot serialize behavior {type(behavior).__name__}")
