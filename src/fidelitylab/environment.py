"""Evolving raw-fact vector: drift processes, shocks, and regime labelling.

The environment is an ordered vector of named real-valued figures. Each
figure evolves under one drift process per fixed step. A windowed
mean-absolute-increment statistic labels the recent history Calm or
Turbulent; that label is the cheap context signal the adaptive layer keys
its strategy statistics on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError


class Regime(Enum):
    CALM = "calm"
    TURBULENT = "turbulent"


@dataclass(frozen=True)
class EnvState:
    """Snapshot of the raw-fact vector at one instant."""

    time: float
    figures: tuple[float, ...]

    def __post_init__(self):
        if len(self.figures) == 0:
            raise ConfigurationError("environment needs at least one figure")


class DriftProcess:
    """One figure's per-step evolution rule. Subclasses override step()."""

    def step(self, value: float, dt: float, rng: Optional[np.random.Generator]) -> float:
        raise NotImplementedError

    def validate(self) -> list[str]:
        return []


@dataclass
class Constant(DriftProcess):
    def step(self, value, dt, rng):
        return value


@dataclass
class LinearDrift(DriftProcess):
    rate: float  # figure units per second

    def step(self, value, dt, rng):
        return value + self.rate * dt


@dataclass
class RandomWalk(DriftProcess):
    std: float  # increment standard deviation per unit time

    def step(self, value, dt, rng):
        return value + self.std * np.sqrt(dt) * rng.standard_normal()

    def validate(self):
        return ["random walk std must be >= 0"] if self.std < 0 else []


@dataclass
class RegimeSwitching(DriftProcess):
    """Alternates between a calm and a turbulent sub-process.

    The switch draw is consumed every step regardless of the hazard so the
    stream layout stays fixed when the hazard changes.
    """

    calm: DriftProcess
    turbulent: DriftProcess
    hazard: float  # switch probability per second
    active_turbulent: bool = field(default=False)

    def step(self, value, dt, rng):
        if rng.uniform() < self.hazard * dt:
            self.active_turbulent = not self.active_turbulent
        sub = self.turbulent if self.active_turbulent else self.calm
        return sub.step(value, dt, rng)

    def validate(self):
        problems = []
        if not 0.0 <= self.hazard <= 1.0:
            problems.append("switch hazard must be in [0, 1]")
        problems.extend(self.calm.validate())
        problems.extend(self.turbulent.validate())
        return problems


@dataclass(frozen=True)
class ShockEvent:
    """Scheduled additive jump on one figure.

    The recovery window does not undo the jump; it bounds the episode over
    which the response to the jump is measured.
    """

    at: float
    figure: int
    magnitude: float
    recovery_window: float

    def validate(self) -> list[str]:
        return ["shock recovery window must be > 0"] if self.recovery_window <= 0 else []


def step_environment(
    state: EnvState,
    processes: Sequence[DriftProcess],
    dt: float,
    rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
) -> EnvState:
    """Advance every figure by one step of dt seconds.

    ``rngs`` holds one stream per figure (None is fine for draw-free
    processes); separate streams keep figures independent.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    if len(processes) != len(state.figures):
        raise ConfigurationError(
            f"{len(processes)} drift processes for {len(state.figures)} figures"
        )
    if rngs is None:
        rngs = [None] * len(processes)
    figures = tuple(
        proc.step(value, dt, rng)
        for proc, value, rng in zip(processes, state.figures, rngs)
    )
    return EnvState(time=state.time + dt, figures=figures)


def apply_shock(state: EnvState, shock: ShockEvent) -> EnvState:
    """Add the shock magnitude to its target figure."""
    if not 0 <= shock.figure < len(state.figures):
        raise ConfigurationError(f"shock figure index {shock.figure} out of range")
    figures = list(state.figures)
    figures[shock.figure] += shock.magnitude
    return EnvState(time=state.time, figures=tuple(figures))


def process_from_spec(spec: dict) -> DriftProcess:
    """Build a drift process from a plain mapping (scenario config)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("process spec needs a 'kind' key")
    kind = spec["kind"]
    if kind == "constant":
        _reject_extra(spec, {"kind"})
        return Constant()
    if kind == "linear":
        _reject_extra(spec, {"kind", "rate"})
        return LinearDrift(rate=float(spec.get("rate", 0.0)))
    if kind == "random_walk":
        _reject_extra(spec, {"kind", "std"})
        return RandomWalk(std=float(spec.get("std", 0.0)))
    if kind == "regime_switching":
        _reject_extra(spec, {"kind", "calm", "turbulent", "hazard"})
        return RegimeSwitching(
            calm=process_from_spec(spec.get("calm", {"kind": "constant"})),
            turbulent=process_from_spec(spec.get("turbulent", {"kind": "constant"})),
            hazard=float(spec.get("hazard", 0.0)),
        )
    raise ConfigurationError(f"unknown process kind {kind!r}")


def _reject_extra(spec: dict, allowed: set) -> None:
    extra = set(spec) - allowed
    if extra:
        raise ConfigurationError(f"unknown process keys {sorted(extra)}")


def process_to_spec(process: DriftProcess) -> dict:
    """Inverse of process_from_spec, for the effective-config echo."""
    if isinstance(process, Constant):
        return {"kind": "constant"}
    if isinstance(process, LinearDrift):
        return {"kind": "linear", "rate": process.rate}
    if isinstance(process, RandomWalk):
        return {"kind": "random_walk", "std": process.std}
    if isinstance(process, RegimeSwitching):
        return {
            "kind": "regime_switching",
            "calm": process_to_spec(process.calm),
            "turbulent": process_to_spec(process.turbulent),
            "hazard": process.hazard,
        }
    raise ConfigurationError(f"cannot serialize process {type(process).__name__}")


def regime_increments(history: Sequence[EnvState]) -> np.ndarray:
    """|figure increments| between consecutive states: one row per pair."""
    if len(history) == 0:
        raise ConfigurationError("regime labelling needs a non-empty history")
    figures = np.array([state.figures for state in history], dtype=float)
    return np.abs(figures[1:] - figures[:-1])


def label_regime(increments: np.ndarray, threshold: float) -> Regime:
    """Label recent history by its windowed mean absolute increment.

    ``increments`` holds one row of |figure increments| per consecutive
    state pair in the window (``regime_increments``). Turbulent iff their
    mean strictly exceeds the threshold; with no increments yet (a single
    state) the label is Calm. A C-contiguous array sums in the same order,
    and to the same bits, as np.mean over a flat list of the increments.
    """
    if len(increments) == 0:
        return Regime.CALM
    mean_increment = float(increments.sum() / increments.size)
    return Regime.TURBULENT if mean_increment > threshold else Regime.CALM
