"""Identity classes, contract self-checking, and drift detection.

A system's identity is the strongest timeliness class its error trace
supports, in the strict order HardRT > SoftRT > BestEffort > NonRT:

* HardRT(t): every |delta| in the window is within t.
* SoftRT(t, sigma): mean |delta| within t and std of |delta| within sigma
  (population std, ddof=0 — fixed here so traces classify portably).
* BestEffort(b): at least 95% of samples within b. Best-effort systems do
  not watch their own error, so the engine withholds the drift detector
  from them; the 0.95 coverage is an operational stand-in, not a law.
* NonRT: no guarantee, no self-checking.

Guarded systems self-check their contract each tick. Undetected drift out
of the contracted class is an identity failure; the streaming detector
combines a two-sided CUSUM on |delta| with a direct contract check and
reports whichever fires first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ContractFreeError, InsufficientDataError, SequencingError
from .reflection import DeltaSample

#: Fraction of in-bound samples a best-effort contract requires.
BEST_EFFORT_COVERAGE = 0.95

#: Contract-utilization level above which a holding contract is flagged at risk.
DEFAULT_AT_RISK_MARGIN = 0.8


class IdentityKind(Enum):
    HARD_RT = "HardRT"
    SOFT_RT = "SoftRT"
    BEST_EFFORT = "BestEffort"
    NON_RT = "NonRT"


#: Strongest first; classification walks this order.
CLASS_ORDER = (
    IdentityKind.HARD_RT,
    IdentityKind.SOFT_RT,
    IdentityKind.BEST_EFFORT,
    IdentityKind.NON_RT,
)


@dataclass(frozen=True)
class IdentityClass:
    """One equivalence class with its thresholds.

    hard_threshold is t for HardRT; soft_mean/soft_std are (t, sigma) for
    SoftRT; acceptability_bound is b for BestEffort. Unused fields are None.
    """

    kind: IdentityKind
    hard_threshold: Optional[float] = None
    soft_mean: Optional[float] = None
    soft_std: Optional[float] = None
    acceptability_bound: Optional[float] = None

    @staticmethod
    def hard(threshold: float) -> "IdentityClass":
        return IdentityClass(IdentityKind.HARD_RT, hard_threshold=threshold)

    @staticmethod
    def soft(mean_threshold: float, std_threshold: float) -> "IdentityClass":
        return IdentityClass(
            IdentityKind.SOFT_RT, soft_mean=mean_threshold, soft_std=std_threshold
        )

    @staticmethod
    def best_effort(bound: float) -> "IdentityClass":
        return IdentityClass(IdentityKind.BEST_EFFORT, acceptability_bound=bound)

    @staticmethod
    def non_rt() -> "IdentityClass":
        return IdentityClass(IdentityKind.NON_RT)

    def validate(self) -> list[str]:
        problems = []
        for name, value in (
            ("hard_threshold", self.hard_threshold),
            ("soft_mean", self.soft_mean),
            ("soft_std", self.soft_std),
            ("acceptability_bound", self.acceptability_bound),
        ):
            if value is not None and value <= 0:
                problems.append(f"{name} must be > 0")
        return problems

    def label(self) -> str:
        return self.kind.value


class ContractStatus(Enum):
    HOLDING = "holding"
    AT_RISK = "at_risk"
    VIOLATED = "violated"


@dataclass(frozen=True)
class IdentityFailureEvent:
    """Loss of the contracted class, as seen by the streaming detector."""

    time: float
    figure: int
    previous_class: IdentityClass
    max_abs_delta: float
    window_mean: float
    window_std: float


class WindowRing:
    """The last ``size`` entries of a stream, in time order, as one
    contiguous array.

    Every entry is written twice, at ``i`` and ``i + size`` of a buffer of
    ``2 * size`` rows, so the full window is always ``buf[pos:pos + size]``
    (``buf[:count]`` while filling): reading it copies nothing, and numpy
    reduces the same values in the same order as over a fresh array.
    ``width`` gives each entry that many columns.
    """

    __slots__ = ("size", "count", "_pos", "_buf")

    def __init__(self, size: int, width: Optional[int] = None):
        self.size = size
        self.count = 0
        self._pos = 0  # oldest entry once full
        self._buf = np.zeros((2 * size,) if width is None else (2 * size, width))

    def push(self, entry) -> None:
        size, buf = self.size, self._buf
        if self.count < size:
            at = self.count
            self.count += 1
        else:
            at = self._pos
            self._pos = at + 1 if at + 1 < size else 0
        buf[at] = entry
        buf[at + size] = entry

    def view(self) -> np.ndarray:
        """The window, oldest first. Valid until the next push."""
        if self.count < self.size:
            return self._buf[: self.count]
        return self._buf[self._pos : self._pos + self.size]

    def clear(self) -> None:
        self.count = 0
        self._pos = 0


def mean_std(mags: np.ndarray) -> tuple[float, float]:
    """np.mean and np.std (ddof=0) to the bit, in one pass of numpy calls."""
    n = len(mags)
    mean = mags.sum() / n
    dev = mags - mean
    return float(mean), math.sqrt((dev * dev).sum() / n)


def _assess(
    mags: np.ndarray, contract: IdentityClass, kind: Optional[IdentityKind] = None
) -> tuple[bool, float]:
    """Whether the window satisfies ``kind`` (the contract's own by default)
    at the contract's thresholds, and its utilization (1.0 = at the bound),
    from one pass over the window."""
    kind = contract.kind if kind is None else kind
    if kind is IdentityKind.HARD_RT:
        peak = float(mags.max())
        return peak <= contract.hard_threshold, peak / contract.hard_threshold
    if kind is IdentityKind.SOFT_RT:
        mean, std = mean_std(mags)
        ok = mean <= contract.soft_mean and std <= contract.soft_std
        return ok, max(mean / contract.soft_mean, std / contract.soft_std)
    # Best effort: utilization is the violating fraction against the allowance.
    n = len(mags)
    over = int(np.count_nonzero(mags > contract.acceptability_bound))
    covered = (n - over) / n
    return covered >= BEST_EFFORT_COVERAGE, (over / n) / (1.0 - BEST_EFFORT_COVERAGE)


#: The thresholds each constrained class is tested against.
_THRESHOLDS = {
    IdentityKind.HARD_RT: ("hard_threshold",),
    IdentityKind.SOFT_RT: ("soft_mean", "soft_std"),
    IdentityKind.BEST_EFFORT: ("acceptability_bound",),
}


def _satisfies(mags: np.ndarray, candidate: IdentityClass, kind: IdentityKind) -> bool:
    if kind is IdentityKind.NON_RT:
        return True  # NonRT holds vacuously
    if any(getattr(candidate, name) is None for name in _THRESHOLDS[kind]):
        return False
    return _assess(mags, candidate, kind)[0]


def classify_trace(mags: np.ndarray, candidate: IdentityClass) -> IdentityKind:
    """Return the strongest class the |delta| array satisfies.

    ``candidate`` supplies the thresholds to test against; only threshold
    fields relevant to classes at or below the candidate's strength are
    consulted, so a candidate built with all thresholds filled tests the
    full ladder. Callers pass the window itself, already sliced.
    """
    if not len(mags):
        raise InsufficientDataError("cannot classify an empty trace")
    return next(kind for kind in CLASS_ORDER if _satisfies(mags, candidate, kind))


def _checked(mags: np.ndarray, contract: IdentityClass) -> np.ndarray:
    if contract.kind is IdentityKind.NON_RT:
        raise ContractFreeError("NonRT carries no contract to check")
    if not len(mags):
        raise InsufficientDataError("cannot check an empty window")
    return mags


def contract_utilization(mags: np.ndarray, contract: IdentityClass) -> float:
    """How much of the contract's allowance the |delta| window consumes
    (1.0 = at the bound)."""
    return _assess(_checked(mags, contract), contract)[1]


def check_contract(
    mags: np.ndarray,
    contract: IdentityClass,
    at_risk_margin: float = DEFAULT_AT_RISK_MARGIN,
) -> tuple[ContractStatus, float]:
    """Self-check one |delta| window against the contract: its status and
    its utilization, from one pass.

    Violated when the window fails the contract predicate; at risk when it
    holds but utilization strictly exceeds the margin; holding otherwise.
    """
    satisfied, utilization = _assess(_checked(mags, contract), contract)
    if not satisfied:
        return ContractStatus.VIOLATED, utilization
    if utilization > at_risk_margin:
        return ContractStatus.AT_RISK, utilization
    return ContractStatus.HOLDING, utilization


@dataclass(frozen=True)
class DetectorConfig:
    """Two-sided CUSUM tuning: S <- max(0, S + (x - reference) -/+ slack)."""

    slack: float = 0.02
    threshold: float = 0.2
    reference: float = 0.0
    window: int = 100  # samples kept for the direct contract check

    def validate(self) -> list[str]:
        problems = []
        if self.slack < 0:
            problems.append("detector slack must be >= 0")
        if self.threshold <= 0:
            problems.append("detector threshold must be > 0")
        if self.window < 1:
            problems.append("detector window must be >= 1")
        return problems


class IdentityFailureDetector:
    """Streaming identity-failure detector for one guarded figure.

    Each update feeds one error sample. An event is emitted at the first
    tick where either CUSUM side crosses the decision threshold or the
    windowed contract check reports Violated, whichever comes first. The
    detector resets after emitting, so at most one event fires per
    recovery.
    """

    def __init__(self, contract: IdentityClass, config: DetectorConfig):
        if contract.kind is IdentityKind.NON_RT:
            raise ContractFreeError("cannot guard the unconstrained class")
        self.contract = contract
        self.config = config
        self._high = 0.0
        self._low = 0.0
        self._window = WindowRing(config.window)
        self._last_time: Optional[float] = None

    def reset(self) -> None:
        self._high = 0.0
        self._low = 0.0
        self._window.clear()

    def update(self, sample: DeltaSample) -> Optional[IdentityFailureEvent]:
        if self._last_time is not None and sample.time <= self._last_time:
            raise SequencingError(
                f"sample at t={sample.time} after t={self._last_time}"
            )
        self._last_time = sample.time
        x = abs(sample.delta)
        self._window.push(x)
        config = self.config
        self._high = max(0.0, self._high + (x - config.reference) - config.slack)
        self._low = max(0.0, self._low + (config.reference - x) - config.slack)
        crossed = self._high > config.threshold or self._low > config.threshold
        mags = self._window.view()
        if not crossed and _assess(mags, self.contract)[0]:
            return None
        mean, std = mean_std(mags)
        event = IdentityFailureEvent(
            time=sample.time,
            figure=sample.figure,
            previous_class=self.contract,
            max_abs_delta=float(mags.max()),
            window_mean=mean,
            window_std=std,
        )
        self.reset()
        return event

