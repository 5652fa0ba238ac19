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

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigurationError,
    ContractFreeError,
    InsufficientDataError,
    SequencingError,
)
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


@dataclass
class DeltaTrace:
    """Ordered error samples for one figure."""

    figure: int
    samples: list[DeltaSample] = field(default_factory=list)

    def append(self, sample: DeltaSample) -> None:
        if self.samples and sample.time <= self.samples[-1].time:
            raise ConfigurationError(
                f"trace timestamps must strictly increase (got {sample.time})"
            )
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def magnitudes(self) -> np.ndarray:
        return np.abs([s.delta for s in self.samples])


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


def _window_magnitudes(samples: Sequence[DeltaSample], window: int) -> np.ndarray:
    tail = samples[-window:] if window else samples
    return np.abs([s.delta for s in tail])


def _satisfies(mags: np.ndarray, candidate: IdentityClass, kind: IdentityKind) -> bool:
    if kind is IdentityKind.HARD_RT:
        if candidate.hard_threshold is None:
            return False
        return float(np.max(mags)) <= candidate.hard_threshold
    if kind is IdentityKind.SOFT_RT:
        if candidate.soft_mean is None or candidate.soft_std is None:
            return False
        return (
            float(np.mean(mags)) <= candidate.soft_mean
            and float(np.std(mags)) <= candidate.soft_std
        )
    if kind is IdentityKind.BEST_EFFORT:
        if candidate.acceptability_bound is None:
            return False
        covered = float(np.mean(mags <= candidate.acceptability_bound))
        return covered >= BEST_EFFORT_COVERAGE
    return True  # NonRT holds vacuously


def classify_trace(
    trace: Union[DeltaTrace, Sequence[DeltaSample]],
    candidate: IdentityClass,
    window: int,
) -> IdentityClass:
    """Return the strongest class the windowed trace satisfies.

    ``candidate`` supplies the thresholds to test against; only threshold
    fields relevant to classes at or below the candidate's strength are
    consulted, so a candidate built with all thresholds filled tests the
    full ladder.
    """
    samples = trace.samples if isinstance(trace, DeltaTrace) else list(trace)
    if not samples:
        raise InsufficientDataError("cannot classify an empty trace")
    if window > len(samples):
        raise InsufficientDataError(
            f"window {window} exceeds trace length {len(samples)}"
        )
    mags = _window_magnitudes(samples, window)
    for kind in CLASS_ORDER:
        if _satisfies(mags, candidate, kind):
            return IdentityClass(
                kind=kind,
                hard_threshold=candidate.hard_threshold,
                soft_mean=candidate.soft_mean,
                soft_std=candidate.soft_std,
                acceptability_bound=candidate.acceptability_bound,
            )
    return IdentityClass.non_rt()


def contract_utilization(
    samples: Union[DeltaTrace, Sequence[DeltaSample]],
    contract: IdentityClass,
) -> float:
    """How much of the contract's allowance the window consumes (1.0 = at the bound)."""
    if contract.kind is IdentityKind.NON_RT:
        raise ContractFreeError("the unconstrained class has no allowance")
    samples = samples.samples if isinstance(samples, DeltaTrace) else list(samples)
    if not samples:
        raise InsufficientDataError("cannot check an empty window")
    return _utilization(np.abs([s.delta for s in samples]), contract)


def _utilization(mags: np.ndarray, contract: IdentityClass) -> float:
    if contract.kind is IdentityKind.HARD_RT:
        return float(np.max(mags)) / contract.hard_threshold
    if contract.kind is IdentityKind.SOFT_RT:
        return max(
            float(np.mean(mags)) / contract.soft_mean,
            float(np.std(mags)) / contract.soft_std,
        )
    # Best effort: utilization is the violating fraction against the allowance.
    violating = float(np.mean(mags > contract.acceptability_bound))
    return violating / (1.0 - BEST_EFFORT_COVERAGE)


def check_contract(
    window: Union[DeltaTrace, Sequence[DeltaSample]],
    contract: IdentityClass,
    at_risk_margin: float = DEFAULT_AT_RISK_MARGIN,
) -> ContractStatus:
    """Self-check one window against the contract.

    Violated when the window fails the contract predicate; at risk when it
    holds but utilization strictly exceeds the margin; holding otherwise.
    """
    if contract.kind is IdentityKind.NON_RT:
        raise ContractFreeError("NonRT carries no contract to check")
    samples = window.samples if isinstance(window, DeltaTrace) else list(window)
    if not samples:
        raise InsufficientDataError("cannot check an empty window")
    mags = np.abs([s.delta for s in samples])
    if not _satisfies(mags, contract, contract.kind):
        return ContractStatus.VIOLATED
    if _utilization(mags, contract) > at_risk_margin:
        return ContractStatus.AT_RISK
    return ContractStatus.HOLDING


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
        self._window: deque[DeltaSample] = deque(maxlen=config.window)
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
        self._window.append(sample)
        self._high = max(0.0, self._high + (x - self.config.reference) - self.config.slack)
        self._low = max(0.0, self._low + (self.config.reference - x) - self.config.slack)
        crossed = self._high > self.config.threshold or self._low > self.config.threshold
        mags = np.abs([s.delta for s in self._window])
        if not crossed and _satisfies(mags, self.contract, self.contract.kind):
            return None
        event = IdentityFailureEvent(
            time=sample.time,
            figure=sample.figure,
            previous_class=self.contract,
            max_abs_delta=float(np.max(mags)),
            window_mean=float(np.mean(mags)),
            window_std=float(np.std(mags)),
        )
        self.reset()
        return event


def detect_identity_failure(
    stream: Iterable[DeltaSample],
    contract: IdentityClass,
    config: DetectorConfig,
) -> Optional[IdentityFailureEvent]:
    """Scan a whole stream; return the first failure event, if any."""
    detector = IdentityFailureDetector(contract, config)
    for sample in stream:
        event = detector.update(sample)
        if event is not None:
            return event
    return None
