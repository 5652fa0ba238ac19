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
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .identity import WindowRing
from .reflection import DeltaSample

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class CorrectiveAction:
    """One actuator command on the node's sensing channel."""

    bias: float = 0.0
    gain: float = 1.0  # multiplier on the correction gain
    resample: Optional[float] = None  # new sampling period, if any
    fallback: bool = False  # predictive cold-start fell back to feedback


ZERO_ACTION = CorrectiveAction()


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


@dataclass
class PurposefulNonTeleological(Behavior):
    """Servo: a fixed policy of the setpoint, deaf to the error signal."""

    policy: CorrectiveAction = ZERO_ACTION

    def act(self, obs):
        return self.policy


@dataclass
class Reactive(Behavior):
    """Proportional feedback on the latest error sample."""

    gain: float = 1.0

    def act(self, obs):
        correction = -self.gain * obs.latest.delta
        if correction == 0.0:
            return ZERO_ACTION
        return CorrectiveAction(bias=correction)


@dataclass
class Predictive(Behavior):
    """Order-k extrapolation of the channel's intrinsic deviation.

    Keeps its own bounded history of (time, deviation, context) samples,
    where deviation = observed delta minus the correction already applied.
    Before k+1 samples exist it falls back to unit-gain feedback and flags
    the action, so warm-up ticks can be excluded from comparisons.
    ``act`` stages one observation as a group of one.
    """

    k: int = 1
    window: int = 8  # history length m >= k + 1

    def __post_init__(self):
        # One row per remembered tick: 1 (the intercept), time, the k-1
        # context figures, then the deviation. The newest rows are the
        # design matrix beside its right-hand side. An order or length out of
        # range builds a ring of one, so validation can name it.
        self._history = WindowRing(max(self.window, 1), width=max(self.k, 1) + 2)

    def act(self, obs):
        latest = obs.latest
        [bias] = stage_predictions(
            [(self, latest.time, obs.context, latest.delta, obs.correction)]
        )
        return CorrectiveAction(bias=bias, fallback=self._history.count < self.k + 1)


def stage_predictions(
    rows: Sequence[tuple[Predictive, float, Sequence[float], float, float]],
) -> list[float]:
    """Record each row (behavior, time, context, delta, correction) in its
    behavior's history and return the bias increment that behavior applies.

    Rows whose designs have the same shape (order k and history length)
    are solved in one ``lstsq_stack`` call, each row to the bits of its own
    ``np.linalg.lstsq``. Context regressors are held at their last value
    for the one-step look-ahead: one stacked ``np.matmul`` per shape, which
    gives each row the bits of its own ``np.dot``.
    """
    biases = []
    shapes: dict[tuple[int, int], list[tuple[int, WindowRing, float]]] = {}
    for row, (behavior, time, context, delta, correction) in enumerate(rows):
        k, history = behavior.k, behavior._history
        if k - 1 > len(context):
            raise ConfigurationError(
                f"order-{k} prediction needs {k - 1} context figures, "
                f"observation carries {len(context)}"
            )
        history.push((1.0, time, *context[:k - 1], delta - correction))
        biases.append(-delta)  # the cold-start fallback
        if history.count >= k + 1:
            shapes.setdefault((k, history.count), []).append((row, history, correction))
    for (_, m), group in shapes.items():
        entries = np.array([history.tail(m) for _, history, _ in group])
        coef = lstsq_stack(entries[..., :-1], entries[..., -1:])
        # The last design row, one time step on (m >= k + 1 >= 2).
        ahead = entries[:, -1:, :-1].copy()
        ahead[:, 0, 1] += entries[:, -1, 1] - entries[:, -2, 1]
        for (row, _, correction), value in zip(group, np.matmul(ahead, coef)[:, 0, 0].tolist()):
            biases[row] = -(value + correction)
    return biases


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq_stack(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The least-squares solution of every problem in a stack,
    ``design (..., m, n)`` against ``rhs (..., m, nrhs)``, as
    ``np.linalg.lstsq`` computes each: its LAPACK gufunc, called once, with
    the wrapper's default ``rcond`` and its errstate, which turns
    non-convergence into ``LinAlgError``."""
    m, n = design.shape[-2:]
    with np.errstate(call=_lstsq_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x, _, _, _ = np.linalg._umath_linalg.lstsq(
            design, rhs, _EPS * max(m, n), signature="ddd->ddid"
        )
    return x
