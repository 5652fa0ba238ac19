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
reports whichever fires first. Systems that share a contract and a
detector config are checked together, as the rows of one
``ContractGroup``: one |delta| ring, one numpy pass per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ContractFreeError, InsufficientDataError, SequencingError

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
# The per-tick checks compare against these names: an enum attribute
# lookup costs about ten times a module global's.
_HARD_RT, _SOFT_RT, _NON_RT = IdentityKind.HARD_RT, IdentityKind.SOFT_RT, IdentityKind.NON_RT


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

    def label(self) -> str:
        return self.kind.value


#: The levels each constrained class is tested against, as (document key,
#: IdentityClass field) pairs: the one statement of a contract's keys.
CONTRACT_LEVELS = {
    IdentityKind.HARD_RT: (("threshold", "hard_threshold"),),
    IdentityKind.SOFT_RT: (("mean", "soft_mean"), ("std", "soft_std")),
    IdentityKind.BEST_EFFORT: (("bound", "acceptability_bound"),),
}


class ContractStatus(Enum):
    HOLDING = "holding"
    AT_RISK = "at_risk"
    VIOLATED = "violated"


_HOLDING, _AT_RISK, _VIOLATED = ContractStatus


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

    Entries are appended to a buffer of ``2 * size`` slots; when it is
    full, the newest ``size - 1`` move to its front, once every ``size + 1``
    pushes. So the newest ``n`` entries are always one slice ending at
    ``end`` (``buf[end - n:end]``): reading them copies nothing, and numpy
    reduces the same values in the same order as over a fresh array.
    ``width`` gives each entry that many columns (one row per entry).
    ``rows`` instead keeps that many streams side by side, node-major: the
    buffer is ``(rows, 2 * size)``, each entry is a column of one value per
    stream, and a reduction along the last axis of a tail gives each stream
    the bits it would get over its own 1-D window.
    """

    __slots__ = ("size", "count", "end", "_buf", "_entries", "_rows")

    def __init__(self, size: int, width: Optional[int] = None, rows: Optional[int] = None):
        self.size = size
        self.count = 0
        self.end = 0  # one past the newest entry
        self._rows = rows is not None
        if self._rows:
            self._buf = np.zeros((rows, 2 * size))
            self._entries = self._buf.T  # entry i is column i
        else:
            self._buf = np.zeros((2 * size,) if width is None else (2 * size, width))
            self._entries = self._buf

    def push(self, entry) -> None:
        end, entries = self.end, self._entries
        if end == len(entries):
            keep = self.size - 1
            entries[:keep] = entries[end - keep:end]
            end = keep
        entries[end] = entry
        self.end = end + 1
        if self.count < self.size:
            self.count += 1

    def tail(self, n: int) -> np.ndarray:
        """The newest ``n`` entries (at most ``count``), oldest first; for a
        ring of rows, ``(rows, n)``. Valid until the next push."""
        return self._slice(self.end - n, self.end)

    def windows(self, n: int) -> list[np.ndarray]:
        """``tail(min(n, count))`` for every ``end`` the ring can reach,
        indexed by it: a reader of a fixed window slices once, up front."""
        return [self._slice(max(0, end - n), end) for end in range(len(self._entries) + 1)]

    def _slice(self, start: int, end: int) -> np.ndarray:
        return self._buf[:, start:end] if self._rows else self._buf[start:end]

    def view(self) -> np.ndarray:
        """The window, oldest first. Valid until the next push."""
        return self.tail(self.count)


def mean_std(mags: np.ndarray):
    """np.mean and np.std (ddof=0) along the last axis, to the bit, in one
    pass of numpy calls: numpy scalars for a 1-D window, arrays for rows."""
    n = mags.shape[-1]
    mean = np.add.reduce(mags, axis=-1) / n
    dev = mags - (mean[:, None] if mags.ndim > 1 else mean)
    return mean, np.sqrt(np.add.reduce(dev * dev, axis=-1) / n)


def _per_row(stat) -> list:
    """A statistic along the last axis as a list of Python numbers: one per
    row, or one for a 1-D window."""
    return stat.tolist() if stat.ndim else [float(stat)]


def _assess(
    mags: np.ndarray, contract: IdentityClass, kind: Optional[IdentityKind] = None
) -> tuple[list[bool], list[float]]:
    """Whether each row of ``mags`` (or a 1-D window, as one row) satisfies
    ``kind`` (the contract's own by default) at the contract's thresholds,
    and its utilization (1.0 = at the bound). One numpy pass along the last
    axis gives each row's statistics; the thresholds apply to them as
    Python floats."""
    kind = contract.kind if kind is None else kind
    satisfied, utilization = [], []
    if kind is _HARD_RT:
        bound = contract.hard_threshold
        for peak in _per_row(np.maximum.reduce(mags, axis=-1)):
            satisfied.append(peak <= bound)
            utilization.append(peak / bound)
    elif kind is _SOFT_RT:
        mean_bound, std_bound = contract.soft_mean, contract.soft_std
        means, stds = mean_std(mags)
        for mean, std in zip(_per_row(means), _per_row(stds)):
            satisfied.append(mean <= mean_bound and std <= std_bound)
            utilization.append(max(mean / mean_bound, std / std_bound))
    else:
        # Best effort: utilization is the violating fraction against the allowance.
        n = mags.shape[-1]
        over_bound = mags > contract.acceptability_bound
        for over in _per_row(np.add.reduce(over_bound, axis=-1)):
            satisfied.append((n - over) / n >= BEST_EFFORT_COVERAGE)
            utilization.append((over / n) / (1.0 - BEST_EFFORT_COVERAGE))
    return satisfied, utilization


def _satisfies(mags: np.ndarray, candidate: IdentityClass, kind: IdentityKind) -> bool:
    if kind is _NON_RT:
        return True  # NonRT holds vacuously
    if None in [getattr(candidate, name) for _, name in CONTRACT_LEVELS[kind]]:
        return False
    return _assess(mags, candidate, kind)[0][0]


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


def contract_utilization(mags: np.ndarray, contract: IdentityClass) -> list[float]:
    """How much of the contract's allowance each row of |delta| windows
    consumes (1.0 = at the bound)."""
    return _assess(mags, contract)[1]


def check_contract(
    mags: np.ndarray,
    contract: IdentityClass,
    at_risk_margin: float = DEFAULT_AT_RISK_MARGIN,
) -> tuple[list[ContractStatus], list[float]]:
    """Self-check rows of |delta| windows against the contract, in one pass:
    each row's status and its utilization. A single window is one row
    (``mags[None]``); ``ContractGroup`` has checked the contract and the
    window length.

    Violated when a window fails the contract predicate; at risk when it
    holds but utilization strictly exceeds the margin; holding otherwise.
    """
    satisfied, utilizations = _assess(mags, contract)
    return [
        (_AT_RISK if utilization > at_risk_margin else _HOLDING) if ok else _VIOLATED
        for ok, utilization in zip(satisfied, utilizations)
    ], utilizations


@dataclass(frozen=True)
class DetectorConfig:
    """Two-sided CUSUM tuning: S <- max(0, S + (x - reference) -/+ slack)."""

    slack: float = 0.02
    threshold: float = 0.2
    reference: float = 0.0
    window: int = 100  # samples kept for the direct contract check


class IdentityFailureDetector:
    """Streaming identity-failure detector for the rows of a ``ContractGroup``.

    Each update feeds one |delta| per row. A row emits an event at the first
    tick where either CUSUM side crosses the decision threshold or the
    contract check over its window reports Violated, whichever comes first;
    the row then resets, so at most one event fires per recovery. The
    detector keeps no samples: a row's window is the trailing
    ``min(window, ticks since its last reset)`` entries of the group's ring.
    """

    def __init__(self, contract: IdentityClass, config: DetectorConfig, figures: Sequence[int]):
        self.contract = contract
        self.config = config
        self.figures = tuple(figures)
        rows = len(self.figures)
        self._high = [0.0] * rows
        self._low = [0.0] * rows
        self._ticks = 0
        self._reset_at = [0] * rows  # the tick of each row's last reset
        # Rows that last reset on one tick share a window length: (that
        # tick, the rows as an index, or None for all of them, the rows as a
        # list), oldest first.
        self._cohorts = [self._cohort(0, list(range(rows)))]

    def _cohort(self, tick: int, rows: list[int]) -> tuple:
        return tick, None if len(rows) == len(self.figures) else np.array(rows), rows

    def update(
        self, time: float, mags: Sequence[float], ring: WindowRing
    ) -> Optional[list[tuple[int, IdentityFailureEvent]]]:
        """Feed each row's newest |delta|, already pushed onto ``ring``:
        the rows that fired with their events, or None when none did."""
        config, contract = self.config, self.contract
        reference, slack, threshold = config.reference, config.slack, config.threshold
        high, low = self._high, self._low
        # A hard window fails only through its newest entry: an older one
        # above the bound failed its own tick and emptied the window.
        hard, bound = contract.kind is _HARD_RT, contract.hard_threshold
        fired = []
        for row, x in enumerate(mags):
            high[row] = up = max(0.0, high[row] + (x - reference) - slack)
            low[row] = down = max(0.0, low[row] + (reference - x) - slack)
            if up > threshold or down > threshold or (hard and not x <= bound):
                fired.append(row)
        self._ticks = ticks = self._ticks + 1
        if not hard:
            fired += self._failing(ticks, ring)
        return self._fire(time, sorted(set(fired)), ring) if fired else None

    def _failing(self, ticks: int, ring: WindowRing) -> list[int]:
        """The rows whose window fails the contract, from one pass per
        cohort."""
        window, cohorts = self.config.window, self._cohorts
        if len(cohorts) > 1 and ticks - cohorts[1][0] >= window:
            # Cohorts whose windows have all filled share a length again.
            full = [c for c in cohorts if ticks - c[0] >= window]
            self._cohorts = cohorts = [
                self._cohort(full[0][0], sorted(r for c in full for r in c[2]))
            ] + cohorts[len(full):]
        failing = []
        for tick, index, rows in cohorts:
            windows = ring.tail(min(ticks - tick, window))
            satisfied = _assess(windows if index is None else windows[index], self.contract)[0]
            if False in satisfied:
                failing += [row for row, ok in zip(rows, satisfied) if not ok]
        return failing

    def _fire(
        self, time: float, rows: list[int], ring: WindowRing
    ) -> list[tuple[int, IdentityFailureEvent]]:
        ticks, window = self._ticks, self.config.window
        events = []
        for row in rows:
            mags = ring.tail(min(ticks - self._reset_at[row], window))[row]
            mean, std = mean_std(mags)
            events.append((row, IdentityFailureEvent(
                time=time,
                figure=self.figures[row],
                previous_class=self.contract,
                max_abs_delta=float(np.maximum.reduce(mags)),
                window_mean=float(mean),
                window_std=float(std),
            )))
            self._high[row] = self._low[row] = 0.0
            self._reset_at[row] = ticks
        fired = set(rows)
        cohorts = []
        for tick, _, members in self._cohorts:
            kept = [row for row in members if row not in fired]
            if kept:
                cohorts.append(self._cohort(tick, kept))
        cohorts.append(self._cohort(ticks, rows))
        self._cohorts = cohorts
        return events


class ContractGroup:
    """Guarded streams that share a contract (class, window, at-risk
    margin) and a detector config, checked together once per tick.

    The rows share one node-major ``WindowRing`` of |delta|, as long as the
    longer of the contract and the detector window. Each tick writes every
    row's |delta| once; ``check_contract`` reduces all rows' trailing
    contract windows in one pass, and the detector reads a tail of the same
    ring. A single stream is a group of one row. What no single check needs
    to repeat is checked here: a constrained class and a non-empty window
    at construction, time moving forward at each step.
    """

    def __init__(
        self,
        contract: IdentityClass,
        window: int,
        at_risk_margin: float = DEFAULT_AT_RISK_MARGIN,
        detector: Optional[DetectorConfig] = None,
        figures: Sequence[int] = (0,),
    ):
        if contract.kind is IdentityKind.NON_RT:
            raise ContractFreeError("NonRT carries no contract to check")
        if window < 1 or not figures or (detector is not None and detector.window < 1):
            raise InsufficientDataError("cannot check an empty window")
        self.contract = contract
        self.at_risk_margin = at_risk_margin
        size = window if detector is None else max(window, detector.window)
        self.ring = WindowRing(size, rows=len(figures))
        self._windows = self.ring.windows(window)
        self.detector = (
            None if detector is None else IdentityFailureDetector(contract, detector, figures)
        )
        self._last_time = -math.inf

    def step(
        self, time: float, mags: Sequence[float]
    ) -> tuple[list[ContractStatus], list[float], Optional[list[tuple[int, IdentityFailureEvent]]]]:
        """Push each row's |delta| at ``time`` and check every row: the
        statuses, the utilizations and the detector's ``(row, event)``
        pairs (None when none fired or there is no detector)."""
        if time <= self._last_time:
            raise SequencingError(f"sample at t={time} after t={self._last_time}")
        self._last_time = time
        ring = self.ring
        ring.push(mags)
        statuses, utilizations = check_contract(
            self._windows[ring.end], self.contract, self.at_risk_margin
        )
        events = None if self.detector is None else self.detector.update(time, mags, ring)
        return statuses, utilizations, events
