"""Adaptive control loop: monitor, assess, switch modes, pick and score strategies.

The loop distinguishes two operating modes. Elastic is the cheap default:
pre-provisioned margins absorb disturbances and no models are built or
consulted (an instrumentation counter proves it). When conditions are
judged unsafe — the smoothed error is trending past the turbulence
threshold, or the identity contract itself is at risk — the node switches
to Resilient and starts spending effort: it picks a corrective strategy
from its catalog, enacts it, and once the episode closes scores the
outcome and updates the per-regime statistics. Leaving Resilient takes a
run of consecutive safe verdicts (hysteresis) to stop mode flapping.

Strategy selection is a bandit per environment regime (calm/turbulent).
UCB1 is the default: unpulled arms first in catalog order, then
argmax(mean + c * sqrt(ln(total) / pulls)) with ties to the lowest
catalog index. An epsilon-greedy variant is available for ablations.
Rewards normalize the episode's integrated error cost against the
worst-case (passive) baseline, clamped to [0, 1]. Statistics are ranked
and persisted so later runs can resume with the acquired ranking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .behavior import Behavior
from .collective import SocialAction
from .errors import CatalogError, ConfigurationError, SequencingError
from .identity import ContractStatus
from .reflection import DeltaSample

LEARNING_STATE_VERSION = 1


class Mode(Enum):
    ELASTIC = "elastic"
    RESILIENT = "resilient"


class Safety(Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"


@dataclass(frozen=True)
class SafetyPredicate:
    """When to call conditions unsafe. Comparisons are strict."""

    turbulence_threshold: float = 0.05  # EWMA rise over the horizon that counts as a trend
    horizon: int = 10  # ticks over which the trend is measured


class MonitorState:
    """O(1) smoothed view of the |delta| stream.

    Exponentially weighted mean plus a short ring of past means so the
    trend over the safety horizon is one subtraction. ``engine.VALUE_RULES``
    states the range rules of both arguments.
    """

    def __init__(self, smoothing: float, horizon: int):
        self.smoothing = smoothing
        self.ewma = 0.0
        self.last_time: Optional[float] = None
        self._past = deque([0.0] * (horizon + 1), maxlen=horizon + 1)

    def trend(self) -> float:
        return self.ewma - self._past[0]


def monitor_step(state: MonitorState, sample: DeltaSample) -> MonitorState:
    """Fold one sample into the monitor. Samples must arrive in time order."""
    if state.last_time is not None and sample.time <= state.last_time:
        raise SequencingError(
            f"monitor got t={sample.time} after t={state.last_time}"
        )
    state.last_time = sample.time
    state.ewma += state.smoothing * (abs(sample.delta) - state.ewma)
    state._past.append(state.ewma)
    return state


def assess_safety(
    state: MonitorState,
    predicate: SafetyPredicate,
    contract_status: Optional[ContractStatus],
) -> Safety:
    """Unsafe iff the smoothed error trend exceeds the turbulence threshold
    or the contract is at risk/violated. A trend exactly at the threshold
    is still safe (strict inequality)."""
    if contract_status in (ContractStatus.AT_RISK, ContractStatus.VIOLATED):
        return Safety.UNSAFE
    if state.trend() > predicate.turbulence_threshold:
        return Safety.UNSAFE
    return Safety.SAFE


class ModeController:
    """Elastic/Resilient switch with exit hysteresis.

    Any unsafe verdict flips to Resilient immediately; returning to Elastic
    requires ``hysteresis`` consecutive safe verdicts, a count that
    ``engine.VALUE_RULES`` keeps at least 1.
    """

    def __init__(self, hysteresis: int):
        self.hysteresis = hysteresis
        self.mode = Mode.ELASTIC
        self._safe_streak = 0

    def step(self, verdict: Safety) -> Mode:
        if verdict is Safety.UNSAFE:
            self._safe_streak = 0
            self.mode = Mode.RESILIENT
        elif self.mode is Mode.RESILIENT:
            self._safe_streak += 1
            if self._safe_streak >= self.hysteresis:
                self._safe_streak = 0
                self.mode = Mode.ELASTIC
        return self.mode


# -- strategies and learning ---------------------------------------------


class StrategyKind(Enum):
    RECONFIGURE = "reconfigure"
    SOCIAL = "social"


@dataclass(frozen=True)
class Strategy:
    """One catalog entry: either reshape the node itself or act socially.

    A reconfiguration restages the node's ``behavior`` (a prototype, which
    the engine copies at each enactment), its ``channel`` (channel key ->
    new value, for the keys in ``engine.RESTAGEABLE``), or both. A social
    strategy hands its ``social`` action to the pool.
    """

    id: str
    kind: StrategyKind
    behavior: Optional[Behavior] = None
    channel: Optional[dict[str, float]] = None
    social: Optional[SocialAction] = None


#: The strategy-selection algorithms a LearningSpec may name.
ALGORITHMS = ("ucb1", "epsilon_greedy")


@dataclass(frozen=True)
class LearningSpec:
    """Whether a controller learns over its catalog, and how it selects:
    UCB1 with its ``exploration`` constant, or epsilon-greedy."""

    enabled: bool = True
    algorithm: str = "ucb1"
    exploration: float = float(np.sqrt(2.0))
    epsilon: float = 0.1


@dataclass
class ArmStats:
    pulls: int = 0
    mean: float = 0.0


class LearningState:
    """Per-regime strategy statistics with persistent history.

    One bandit per regime label; each records pull counts and incremental
    mean rewards per strategy id, a rank permutation (best first), and an
    append-only (episode, strategy, reward) history.
    """

    def __init__(self, catalog: Sequence[Strategy], spec: LearningSpec = LearningSpec()):
        ids = [s.id for s in catalog]
        if len(set(ids)) != len(ids):
            raise CatalogError(f"duplicate strategy ids in catalog: {ids}")
        if spec.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown learning algorithm {spec.algorithm!r}")
        self.catalog = list(catalog)
        self.spec = spec
        self.arms: dict[str, dict[str, ArmStats]] = {}
        self.ranks: dict[str, list[int]] = {}
        self.history: list[dict] = []

    def _regime_arms(self, regime: str) -> dict[str, ArmStats]:
        if regime not in self.arms:
            self.arms[regime] = {s.id: ArmStats() for s in self.catalog}
            self.ranks[regime] = list(range(len(self.catalog)))
        return self.arms[regime]

    # -- selection ---------------------------------------------------------

    def select(self, regime: str, rng: Optional[np.random.Generator] = None) -> Strategy:
        if not self.catalog:
            raise CatalogError("cannot select from an empty catalog")
        arms = self._regime_arms(regime)
        if self.spec.algorithm == "epsilon_greedy":
            return self._select_epsilon(arms, rng)
        return self._select_ucb(arms)

    def _select_ucb(self, arms: dict[str, ArmStats]) -> Strategy:
        for strategy in self.catalog:  # unpulled arms first, catalog order
            if arms[strategy.id].pulls == 0:
                return strategy
        total = sum(a.pulls for a in arms.values())
        best, best_score = None, -np.inf
        for strategy in self.catalog:
            stat = arms[strategy.id]
            score = stat.mean + self.spec.exploration * np.sqrt(np.log(total) / stat.pulls)
            if score > best_score:  # strict: ties keep the lowest catalog index
                best, best_score = strategy, score
        return best

    def _select_epsilon(self, arms, rng) -> Strategy:
        if rng is None:
            raise ConfigurationError("epsilon-greedy selection needs an rng stream")
        if rng.uniform() < self.spec.epsilon:
            return self.catalog[int(rng.integers(len(self.catalog)))]
        best, best_mean = None, -np.inf
        for strategy in self.catalog:
            if arms[strategy.id].mean > best_mean:
                best, best_mean = strategy, arms[strategy.id].mean
        return best

    # -- evaluation ----------------------------------------------------------

    def update(self, regime: str, strategy_id: str, reward: float, episode: int) -> None:
        arms = self._regime_arms(regime)
        if strategy_id not in arms:
            raise CatalogError(f"unknown strategy id {strategy_id!r}")
        stat = arms[strategy_id]
        stat.pulls += 1
        stat.mean += (reward - stat.mean) / stat.pulls
        self._rerank(regime)
        self.history.append(
            {"episode": episode, "regime": regime, "strategy": strategy_id, "reward": reward}
        )

    def _rerank(self, regime: str) -> None:
        arms = self.arms[regime]
        order = sorted(
            range(len(self.catalog)),
            key=lambda i: (-arms[self.catalog[i].id].mean, i),
        )
        self.ranks[regime] = order

    # -- persistence ---------------------------------------------------------

    def to_document(self) -> dict:
        return {
            "version": LEARNING_STATE_VERSION,
            "algorithm": self.spec.algorithm,
            "exploration": self.spec.exploration,
            "epsilon": self.spec.epsilon,
            "catalog": [s.id for s in self.catalog],
            "regimes": {
                regime: [
                    {
                        "strategy_id": s.id,
                        "pulls": arms[s.id].pulls,
                        "mean": arms[s.id].mean,
                    }
                    for s in self.catalog
                ]
                for regime, arms in sorted(self.arms.items())
            },
            "ranks": {regime: list(order) for regime, order in sorted(self.ranks.items())},
            "history": list(self.history),
        }

    def load_document(self, doc: dict) -> None:
        """Restore persisted statistics from a document that
        ``engine.validate_resume`` has matched to this catalog."""
        self.arms = {}
        self.ranks = {}
        for regime, entries in doc.get("regimes", {}).items():
            arms = self._regime_arms(regime)
            for entry in entries:
                arms[entry["strategy_id"]] = ArmStats(
                    pulls=entry["pulls"], mean=entry["mean"]
                )
            self._rerank(regime)
        for regime, order in doc.get("ranks", {}).items():
            self.ranks[regime] = list(order)
        self.history = list(doc.get("history", []))


def compute_reward(cost: float, baseline: float) -> float:
    """Normalized episode reward: 1 is a perfect recovery, 0 is worst-case."""
    if baseline <= 0:
        return 1.0 if cost <= 0 else 0.0
    return 1.0 - min(max(cost / baseline, 0.0), 1.0)

