"""Sensing channels: raw facts in, qualia out, plus the fidelity error.

A channel converts a raw figure value into its internal representation
through an affine map (gain, bias) with optional Gaussian noise, grid
quantization, and acquisition latency. Two fidelity probes live here:

* ``preservation_distance`` measures how far the channel is from adding up
  cleanly, i.e. q(u1+u2) - q(u1) - q(u2) for the deterministic part. A
  noise-free linear channel scores exactly zero.
* ``tracking_error`` is the operational per-tick error against what a
  perfect channel with the contract's nominal gain/bias would report. This
  is the signal every monitor downstream consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, GridAlignmentError

#: Tolerance for deciding two timestamps are the same grid point.
TIME_EPS = 1e-9


@dataclass(frozen=True)
class ReflectiveMap:
    """Parameterized sensing channel for one figure."""

    gain: float = 1.0
    bias: float = 0.0
    noise_std: float = 0.0
    quantization: float = 0.0  # grid step; 0 disables
    latency: float = 0.0


@dataclass(frozen=True)
class Quale:
    """One sensed value. acquired_at includes channel latency."""

    value: float
    acquired_at: float


@dataclass(frozen=True)
class DeltaSample:
    """Signed per-tick fidelity error for one figure."""

    time: float
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ConfigurationError(f"non-finite delta at t={self.time}")


def quantize(value: float, step: float) -> float:
    """Round to the nearest multiple of step, ties to even.

    Stated bit-exactly so recorded traces are portable: Python's round()
    implements round-half-even on the scaled value.
    """
    if step <= 0:
        return value
    return round(value / step) * step


def sense(
    cmap: ReflectiveMap,
    raw: float,
    t: float,
    rng: Optional[np.random.Generator] = None,
) -> Quale:
    """Convert one raw value through the channel at time t.

    With noise_std = 0 the result is deterministic; otherwise one Gaussian
    draw is consumed from rng.
    """
    value = cmap.gain * raw + cmap.bias
    if cmap.noise_std > 0:
        if rng is None:
            raise ConfigurationError("noisy channel needs an rng stream")
        value += cmap.noise_std * rng.standard_normal()
    value = quantize(value, cmap.quantization)
    return Quale(value=value, acquired_at=t + cmap.latency)


def _deterministic_value(cmap: ReflectiveMap, raw: float) -> float:
    return quantize(cmap.gain * raw + cmap.bias, cmap.quantization)


def preservation_distance(cmap: ReflectiveMap, u1: float, u2: float) -> float:
    """Additivity error of the channel's deterministic part.

    Returns q(u1+u2) - q(u1) - q(u2) with noise suppressed; the noisy
    component is measured statistically by repeating the probe upstream.
    For a noise-free affine channel this is exactly -bias plus quantization
    error, bounded by 1.5*quantization + |bias|.
    """
    return (
        _deterministic_value(cmap, u1 + u2)
        - _deterministic_value(cmap, u1)
        - _deterministic_value(cmap, u2)
    )


def tracking_error(
    ideal: Sequence[tuple[float, float]],
    qualia: Sequence[tuple[float, float]],
) -> list[DeltaSample]:
    """Per-tick error between reported values and the ideal reflection.

    Both series are (time, value) pairs on the same grid; the ideal series
    is what a perfect channel with the contract's nominal parameters would
    report. Output length equals input length.
    """
    if len(ideal) != len(qualia):
        raise GridAlignmentError(
            f"series lengths differ: {len(ideal)} vs {len(qualia)}"
        )
    trace = []
    for (t_i, ideal_value), (t_q, quale_value) in zip(ideal, qualia):
        if abs(t_i - t_q) > TIME_EPS:
            raise GridAlignmentError(f"time grids diverge at t={t_i} vs {t_q}")
        trace.append(DeltaSample(time=t_i, delta=quale_value - ideal_value))
    return trace


def ideal_reflection(nominal_gain: float, nominal_bias: float, raw: float) -> float:
    """What a perfect channel under the contract would report for raw."""
    return nominal_gain * raw + nominal_bias
