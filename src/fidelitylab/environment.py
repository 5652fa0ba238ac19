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


@dataclass
class Constant(DriftProcess):
    def step(self, value, dt, rng):
        return value


@dataclass
class LinearDrift(DriftProcess):
    rate: float = 0.0  # figure units per second

    def step(self, value, dt, rng):
        return value + self.rate * dt


@dataclass
class RandomWalk(DriftProcess):
    std: float = 0.0  # increment standard deviation per unit time

    def step(self, value, dt, rng):
        return value + self.std * np.sqrt(dt) * rng.standard_normal()


@dataclass
class RegimeSwitching(DriftProcess):
    """Alternates between a calm and a turbulent sub-process.

    The switch draw is consumed every step regardless of the hazard so the
    stream layout stays fixed when the hazard changes.
    """

    calm: DriftProcess
    turbulent: DriftProcess
    hazard: float = 0.0  # switch probability per second
    active_turbulent: bool = field(default=False, init=False)

    def step(self, value, dt, rng):
        if rng.uniform() < self.hazard * dt:
            self.active_turbulent = not self.active_turbulent
        sub = self.turbulent if self.active_turbulent else self.calm
        return sub.step(value, dt, rng)


@dataclass(frozen=True)
class ShockEvent:
    """Scheduled additive jump on one figure.

    The recovery window does not undo the jump; it bounds the episode over
    which the response to the jump is measured.
    """

    at: float = 0.0
    figure: int = 0
    magnitude: float = 0.0
    recovery_window: float = 1.0


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


def label_regime(increments: np.ndarray, threshold: float) -> Regime:
    """Label recent history by its windowed mean absolute increment.

    ``increments`` holds one row of |figure increments| per consecutive
    state pair in the window. Turbulent iff their
    mean strictly exceeds the threshold; with no increments yet (a single
    state) the label is Calm. A C-contiguous array sums in the same order,
    and to the same bits, as np.mean over a flat list of the increments.
    """
    if len(increments) == 0:
        return Regime.CALM
    mean_increment = float(increments.sum() / increments.size)
    return Regime.TURBULENT if mean_increment > threshold else Regime.CALM
