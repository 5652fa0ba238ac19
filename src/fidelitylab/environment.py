"""Evolving raw-fact vector: drift processes, shocks, and regime labelling.

The environment is an ordered vector of named real-valued figures. Each
figure evolves under one drift process per fixed step. A windowed
mean-absolute-increment statistic labels the recent history Calm or
Turbulent; that label is the cheap context signal the adaptive layer keys
its strategy statistics on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError


class Regime(Enum):
    CALM = "calm"
    TURBULENT = "turbulent"


class DriftProcess:
    """One figure's per-step evolution rule, a frozen spec: ``start`` builds
    the run state one figure steps (None: it keeps none), ``step`` advances it."""

    def start(self):
        return None

    def step(self, value: float, dt: float, rng: Optional[np.random.Generator], state) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(DriftProcess):
    def step(self, value, dt, rng, state):
        return value


@dataclass(frozen=True)
class LinearDrift(DriftProcess):
    rate: float = 0.0  # figure units per second

    def step(self, value, dt, rng, state):
        return value + self.rate * dt


@dataclass(frozen=True)
class RandomWalk(DriftProcess):
    std: float = 0.0  # increment standard deviation per unit time

    def step(self, value, dt, rng, state):
        return value + self.std * np.sqrt(dt) * rng.standard_normal()


@dataclass(frozen=True)
class RegimeSwitching(DriftProcess):
    """Alternates between a calm and a turbulent sub-process. Its run state
    is ``[turbulent now, the calm one's state, the turbulent one's]``.

    The switch draw is consumed every step regardless of the hazard so the
    stream layout stays fixed when the hazard changes.
    """

    calm: DriftProcess
    turbulent: DriftProcess
    hazard: float = 0.0  # switch probability per second

    def start(self):
        return [False, self.calm.start(), self.turbulent.start()]

    def step(self, value, dt, rng, state):
        if rng.uniform() < self.hazard * dt:
            state[0] = not state[0]
        sub, sub_state = (self.turbulent, state[2]) if state[0] else (self.calm, state[1])
        return sub.step(value, dt, rng, sub_state)


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
    figures: tuple[float, ...],
    processes: Sequence[DriftProcess],
    states: Sequence,
    dt: float,
    rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
) -> tuple[float, ...]:
    """The figures after one step of dt seconds.

    ``states`` holds each process's run state, ``rngs`` one stream per figure
    (None for draw-free processes); separate streams keep figures independent.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    if len(processes) != len(figures):
        raise ConfigurationError(f"{len(processes)} drift processes for {len(figures)} figures")
    if rngs is None:
        rngs = [None] * len(processes)
    return tuple(
        proc.step(value, dt, rng, run_state)
        for proc, run_state, value, rng in zip(processes, states, figures, rngs)
    )


def apply_shock(figures: tuple[float, ...], shock: ShockEvent) -> tuple[float, ...]:
    """The figures with the shock magnitude added to its target."""
    if not 0 <= shock.figure < len(figures):
        raise ConfigurationError(f"shock figure index {shock.figure} out of range")
    shocked = list(figures)
    shocked[shock.figure] += shock.magnitude
    return tuple(shocked)


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
