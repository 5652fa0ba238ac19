"""Deterministic fixed-step simulation loop and episode metrics.

One tick runs the stage methods of the per-run state in a fixed order:
``boundary`` (staged reconfigurations land), ``environment`` (drift,
shocks, regime label), then ``sensing`` and ``delta`` (error measurement)
for every node, one ``identity`` stage (the contract guard) for all nodes,
``controller`` for every node, one ``behavior`` stage for all nodes, and
finally ``collective`` (the social layer) and ``metrics``, which also
closes episodes. Before ``collective`` no node reads another node's
state, and each result list is appended by one stage in node order, so
running the stages in this order gives the same result as running all of
one node's before the next node's. The identity stage checks each
contract group (nodes whose contract and detector config match) in one
pass over one shared |delta| ring; the behavior stage solves the
least-squares fits of all predictive nodes whose designs share a shape in
one LAPACK call. Everything downstream of the seed is deterministic, so a
scenario and a seed fully determine every exported byte.

Episodes are defined by the shock schedule: each shock opens a recovery
window over which the integrated |error| (trapezoid rule) and the time to
contract restoration are measured. Credit for an episode goes only to
nodes on the shocked figure: to the strategy in force when the shock
lands, or else to the first strategy selected while the episode's window
is open; that strategy's bandit arm is scored when the window closes,
with zero reward if the pool rejected its social action. Per-episode
costs feed both the strategy learning (rewards normalized against a
passive worst-case baseline computed in a calibration pre-run) and the
final trend verdict: a robust (Theil-Sen) slope of cost against episode
index, normalized by the first episode's cost. A clearly negative trend
means the system keeps getting better at absorbing shocks while running
its elastic and resilient repertoire — the property this laboratory
exists to measure.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from statistics import median
from typing import Optional, Sequence

import numpy as np

from .behavior import (
    ActiveNonPurposeful,
    Behavior,
    CorrectiveAction,
    Observation,
    Passive,
    Predictive,
    PurposefulNonTeleological,
    Reactive,
    stage_predictions,
)
from .collective import (
    NeedyRanking,
    ResourcePool,
    SocialAction,
    SocialBehavior,
    SocialState,
    apply_social_action,
    decide_social_action,
)
from .controller import (
    ALGORITHMS,
    LEARNING_STATE_VERSION,
    LearningSpec,
    LearningState,
    Mode,
    ModeController,
    MonitorState,
    Safety,
    SafetyPredicate,
    Strategy,
    StrategyKind,
    assess_safety,
    compute_reward,
    monitor_step,
)
from .environment import (
    Constant,
    DriftProcess,
    RandomWalk,
    Regime,
    RegimeSwitching,
    ShockEvent,
    apply_shock,
    label_regime,
    step_environment,
)
from .errors import ConfigurationError, DivergenceError, InsufficientDataError
# check_contract and contract_utilization are not called here (ContractGroup
# calls the first), but stay bound so that perfbench/tracer.py, which
# patches the engine's bindings, finds them.
from .identity import (  # noqa: F401
    CONTRACT_LEVELS,
    ContractGroup,
    ContractStatus,
    DetectorConfig,
    IdentityClass,
    IdentityFailureEvent,
    IdentityKind,
    WindowRing,
    check_contract,
    classify_trace,
    contract_utilization,
)
from .reflection import DeltaSample, ReflectiveMap, ideal_reflection, sense
from .rng import substream

TIME_EPS = 1e-9

#: The most ticks (``duration / dt``) a run may have.
MAX_TICKS = 10**7

#: Consecutive holding ticks required before a contract counts as restored.
RESTORATION_STREAK = 5


# -- scenario description ---------------------------------------------------


@dataclass(frozen=True)
class FigureSpec:
    name: str
    unit: str = ""
    initial: float = 0.0
    process: DriftProcess = field(default_factory=Constant)


@dataclass(frozen=True)
class ChannelSpec:
    """Actual channel parameters plus the contract's nominal ones."""

    gain: float = 1.0
    bias: float = 0.0
    noise_std: float = 0.0
    quantization: float = 0.0
    sampling_period: float = 0.1
    latency: float = 0.0
    nominal_gain: float = 1.0
    nominal_bias: float = 0.0
    bias_drift: Optional[DriftProcess] = None  # disturbance process on the bias


#: The channel keys a catalog strategy may restage (``Strategy.channel``).
RESTAGEABLE = ("gain", "bias", "noise_std", "quantization", "sampling_period", "latency")


@dataclass(frozen=True)
class ContractSpec:
    identity: IdentityClass
    window: int = 100
    at_risk_margin: float = 0.8


@dataclass(frozen=True)
class ControllerSpec:
    smoothing: float = 0.1
    safety: SafetyPredicate = field(default_factory=SafetyPredicate)
    hysteresis: int = 10
    learning: LearningSpec = field(default_factory=LearningSpec)
    catalog: tuple[Strategy, ...] = ()


@dataclass(frozen=True)
class NodeSpec:
    name: str
    figure: int = 0
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    contract: Optional[ContractSpec] = None
    detector: Optional[DetectorConfig] = None
    behavior: Behavior = field(default_factory=Passive)
    social: Optional[SocialBehavior] = None
    member: bool = False
    controller: Optional[ControllerSpec] = None


@dataclass(frozen=True)
class PoolSpec:
    total: float = 1.0
    join_allocation: float = 1.0
    solo_capacity: float = 0.5
    floor: float = 0.0
    assist_quantum: float = 0.25
    reciprocation_weight: float = 2.0
    calm_window: int = 20


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    duration: float = 10.0
    dt: float = 0.1
    seed: int = 0
    figures: tuple[FigureSpec, ...] = ()
    shocks: tuple[ShockEvent, ...] = ()
    nodes: tuple[NodeSpec, ...] = ()
    pool: Optional[PoolSpec] = None
    turbulence_threshold: float = 0.05
    regime_window: int = 20
    antifragility_threshold: float = 0.02
    record_identity: bool = True


# -- run products -----------------------------------------------------------


@dataclass
class NodeTrace:
    """One node's per-tick record, one list per column.

    Every column holds one entry per tick, except ``verdicts`` (controller
    nodes only) and ``identities`` (which ``run_scenario`` fills after the
    run, only when the scenario records the identity timeline). The
    calibration pre-run fills only ``times``, ``raws``, ``quales`` and
    ``deltas``.
    """

    figure: int
    times: list[float] = field(default_factory=list)
    raws: list[float] = field(default_factory=list)
    quales: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    statuses: list[Optional[ContractStatus]] = field(default_factory=list)
    modes: list[Optional[Mode]] = field(default_factory=list)
    verdicts: list[Safety] = field(default_factory=list)
    identities: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class ChangeRecord:
    time: float
    node: str
    strategy_id: str
    kind: str
    ok: bool


@dataclass(frozen=True)
class RecoveryMetrics:
    episode: int
    node: str
    cost: float  # integrated |delta| over the recovery window
    restoration_time: Optional[float]  # seconds after the shock, None if never
    strategy: Optional[str]


class Verdict:
    FRAGILE = "Fragile"
    ROBUST = "Robust"
    ANTIFRAGILE = "Antifragile"


@dataclass(frozen=True)
class AntifragilityReport:
    slope: float
    normalized_slope: float
    verdict: str
    episodes: int


@dataclass
class RunResult:
    scenario_name: str
    seed: int
    traces: dict[str, NodeTrace] = field(default_factory=dict)  # scenario node order
    failure_events: list[tuple[str, IdentityFailureEvent]] = field(default_factory=list)
    changes: list[ChangeRecord] = field(default_factory=list)
    # One row per tick: the time, each node's allocation in scenario node
    # order (0.0 for a non-member) and the reserve.
    pool_log: list[tuple[float, list[float], float]] = field(default_factory=list)
    pool_violations: int = 0
    recovery: list[RecoveryMetrics] = field(default_factory=list)
    learning_docs: dict[str, dict] = field(default_factory=dict)
    overhead_counters: dict[str, int] = field(default_factory=dict)
    baselines: dict[str, float] = field(default_factory=dict)
    antifragility: Optional[AntifragilityReport] = None
    node_antifragility: dict[str, AntifragilityReport] = field(default_factory=dict)
    config_echo: Optional[dict] = None


# -- validation ---------------------------------------------------------------


def _whole_ticks(span: float, dt: float) -> Optional[int]:
    """The number of dt ticks in span, or None when it is not a whole one."""
    ticks = span / dt
    if math.isfinite(ticks) and abs(ticks - round(ticks)) <= 1e-6:
        return round(ticks)
    return None


def _period_ticks(period: float, dt: float) -> int:
    """Ticks between samples of a channel sampled every ``period`` seconds."""
    return max(1, round(period / dt))


#: Each range rule: its message, then the least and the greatest value it
#: admits. A strict bound is given as the nearest float inside it, so each
#: test is one chained comparison, and NaN fails every rule.
_TINY, _FLOAT_MAX = math.ulp(0.0), math.nextafter(math.inf, 0.0)
_POSITIVE = ("must be > 0", _TINY, math.inf)
_NON_NEGATIVE = ("must be >= 0", 0.0, math.inf)
_AT_LEAST_ONE = ("must be >= 1", 1, math.inf)

#: The range rule on each single value of a spec class, by its document key.
#: A key names the field of the same name; a Scenario key, the field its last
#: part names; an IdentityClass key, its field in ``CONTRACT_LEVELS``.
VALUE_RULES = {
    Scenario: {"dt": ("must be finite and > 0", _TINY, _FLOAT_MAX),
               "duration": ("must be finite and >= 0", 0.0, _FLOAT_MAX), "seed": _NON_NEGATIVE,
               "environment.turbulence_threshold": _POSITIVE,
               "environment.regime_window": _AT_LEAST_ONE},
    RandomWalk: {"std": _NON_NEGATIVE},
    RegimeSwitching: {"hazard": ("must be in [0, 1]", 0.0, 1.0)},
    ShockEvent: {"recovery_window": _POSITIVE},
    PoolSpec: {"total": _POSITIVE, "join_allocation": _NON_NEGATIVE,
               "solo_capacity": _NON_NEGATIVE, "floor": _NON_NEGATIVE,
               "assist_quantum": _POSITIVE, "calm_window": _AT_LEAST_ONE},
    IdentityClass: {key: _POSITIVE for levels in CONTRACT_LEVELS.values() for key, _ in levels},
    ContractSpec: {"window": _AT_LEAST_ONE},
    DetectorConfig: {"slack": _NON_NEGATIVE, "threshold": _POSITIVE, "window": _AT_LEAST_ONE},
    CorrectiveAction: {"gain": _POSITIVE, "resample": _POSITIVE},
    Reactive: {"gain": ("must be in (0, 2]", _TINY, 2.0)},
    Predictive: {"k": _AT_LEAST_ONE},
    ControllerSpec: {"smoothing": ("must be in (0, 1]", _TINY, 1.0),
                     "hysteresis": _AT_LEAST_ONE},
    SafetyPredicate: {"turbulence_threshold": _POSITIVE, "horizon": _AT_LEAST_ONE},
}

_LEVEL_FIELDS = dict(pair for levels in CONTRACT_LEVELS.values() for pair in levels)

#: VALUE_RULES as the walk reads it: (key, field, message, least, greatest).
_RULES = {
    cls: tuple(
        (key, _LEVEL_FIELDS[key] if cls is IdentityClass else key.rpartition(".")[2], *rule)
        for key, rule in rules.items()
    )
    for cls, rules in VALUE_RULES.items()
}


def _range_problems(spec, path: str) -> list[str]:
    """The rules of ``VALUE_RULES`` that the values of spec break, each
    under ``path.key`` (under the bare key for an empty path). An unset
    (None) value breaks none."""
    problems = []
    for key, name, message, least, greatest in _RULES.get(type(spec), ()):
        value = getattr(spec, name)
        if value is not None and not least <= value <= greatest:
            problems.append(f"{path}.{key}: {message}" if path else f"{key}: {message}")
    return problems


def _process_problems(process: DriftProcess, path: str) -> list[str]:
    problems = _range_problems(process, path)
    if isinstance(process, RegimeSwitching):
        problems += _process_problems(process.calm, f"{path}.calm")
        problems += _process_problems(process.turbulent, f"{path}.turbulent")
    return problems


def _behavior_problems(behavior: Behavior, path: str, context_variables: int) -> list[str]:
    """A behavior's range problems, its actions' and, for a predictive one,
    its history length and order against the tracked context variables."""
    problems = _range_problems(behavior, path)
    if isinstance(behavior, ActiveNonPurposeful):
        for i, action in enumerate(behavior.schedule):
            problems += _range_problems(action, f"{path}.schedule[{i}]")
    elif isinstance(behavior, PurposefulNonTeleological):
        problems += _range_problems(behavior.policy, f"{path}.policy")
    elif isinstance(behavior, Predictive):
        if behavior.window < behavior.k + 1:
            problems.append(f"{path}.window: must be >= k + 1")
        if behavior.k > context_variables:
            problems.append(
                f"{path}.k: must not exceed the {context_variables} tracked context variables"
            )
    return problems


def _channel_problems(channel: dict, dt: Optional[float], path: str) -> list[str]:
    """The rules on channel values, for a node's channel and a catalog
    strategy's restaged keys alike: a key absent from ``channel`` is not
    checked, nor a sampling period against an invalid (None) dt."""
    problems = [
        f"{path}.{key}: must be >= 0"
        for key in ("noise_std", "quantization", "latency")
        if channel.get(key, 0.0) < 0
    ]
    period = channel.get("sampling_period")
    if period is not None and not period > 0:
        problems.append(f"{path}.sampling_period: must be > 0")
    elif period is not None and dt is not None and not _whole_ticks(period, dt):
        problems.append(f"{path}.sampling_period: must be a positive integer multiple of dt")
    return problems


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect every value and cross-reference problem, not just the first,
    each once under the document path of its key: the range rules of
    ``VALUE_RULES``, then the rules that relate several values."""
    problems = _range_problems(scenario, "")
    dt = scenario.dt if 0 < scenario.dt < math.inf else None
    if dt is not None and 0 <= scenario.duration < math.inf:
        ticks = _whole_ticks(scenario.duration, dt)
        if ticks is None:
            problems.append("duration: must be an integer number of dt ticks")
        elif ticks > MAX_TICKS:
            problems.append(f"duration: must be at most {MAX_TICKS} ticks of dt")
    if not scenario.figures:
        problems.append("environment.figures: at least one figure is required")

    n = len(scenario.figures)
    for i, fig in enumerate(scenario.figures):
        problems += _process_problems(fig.process, f"environment.figures[{i}].process")

    figure_end: dict[int, float] = {}
    last_at = -math.inf
    for i, shock in enumerate(scenario.shocks):
        prefix = f"shocks[{i}]"
        problems += _range_problems(shock, prefix)
        if not 0 <= shock.figure < max(n, 1):
            problems.append(f"{prefix}.figure: index {shock.figure} out of range")
        if shock.at <= last_at:
            problems.append(f"{prefix}.at: shock times must strictly increase")
        # Windows may overlap across figures (partial shocks); never on one figure.
        if shock.at < figure_end.get(shock.figure, -math.inf) - TIME_EPS:
            problems.append(f"{prefix}: recovery windows must not overlap on one figure")
        if shock.at + shock.recovery_window > scenario.duration + TIME_EPS:
            problems.append(f"{prefix}: recovery window extends past the run")
        last_at = shock.at
        figure_end[shock.figure] = shock.at + shock.recovery_window

    if scenario.pool is not None:
        problems += _range_problems(scenario.pool, "pool")

    names = set()
    for i, node in enumerate(scenario.nodes):
        prefix = f"nodes[{i}]"
        if node.name in names:
            problems.append(f"{prefix}.name: duplicate node name {node.name!r}")
        names.add(node.name)
        if not 0 <= node.figure < max(n, 1):
            problems.append(f"{prefix}.figure: index {node.figure} out of range")
        problems += _channel_problems(vars(node.channel), dt, f"{prefix}.channel")
        if node.channel.bias_drift is not None:
            problems += _process_problems(node.channel.bias_drift, f"{prefix}.channel.bias_drift")
        if node.contract is not None:
            problems += _range_problems(node.contract.identity, f"{prefix}.contract")
            problems += _range_problems(node.contract, f"{prefix}.contract")
            if node.contract.identity.kind is IdentityKind.NON_RT:
                problems.append(
                    f"{prefix}.contract: the unconstrained class is spelled "
                    "by omitting the contract"
                )
        if node.detector is not None:
            problems += _range_problems(node.detector, f"{prefix}.detector")
            if node.contract is None:
                problems.append(f"{prefix}.detector: requires a contract")
        problems += _behavior_problems(node.behavior, f"{prefix}.behavior", 1 + n)
        if node.social is not None and scenario.pool is None:
            problems.append(f"{prefix}.social: requires a pool section")
        if node.member and scenario.pool is None:
            problems.append(f"{prefix}.member: requires a pool section")
        if node.controller is not None:
            ctrl = node.controller
            problems += _range_problems(ctrl, f"{prefix}.controller")
            problems += _range_problems(ctrl.safety, f"{prefix}.controller.safety")
            if ctrl.learning.algorithm not in ALGORITHMS:
                problems.append(
                    f"{prefix}.controller.learning.algorithm: "
                    f"expected {' | '.join(ALGORITHMS)}, got {ctrl.learning.algorithm!r}"
                )
            ids = [s.id for s in ctrl.catalog]
            if len(set(ids)) != len(ids):
                problems.append(f"{prefix}.controller.catalog: duplicate strategy ids")
            for j, strategy in enumerate(ctrl.catalog):
                sp = f"{prefix}.controller.catalog[{j}]"
                if strategy.kind is StrategyKind.RECONFIGURE:
                    if strategy.behavior is None and strategy.channel is None:
                        problems.append(f"{sp}: reconfigure needs a behavior or channel")
                    if strategy.behavior is not None:
                        problems += _behavior_problems(
                            strategy.behavior, f"{sp}.behavior", 1 + n
                        )
                    if strategy.channel is not None:
                        problems += _channel_problems(dict(strategy.channel), dt, f"{sp}.channel")
                        problems += [f"{sp}.channel.{key}: not restageable"
                                     for key in dict(strategy.channel) if key not in RESTAGEABLE]
                elif strategy.social is None:
                    problems.append(f"{sp}: social strategy needs an action")
                elif node.social is None:
                    problems.append(f"{sp}: social strategy on an asocial node")
    return problems


def validate_resume(scenario: Scenario, docs: dict[str, dict]) -> list[str]:
    """Check a resume document (node name -> learning state) against the
    scenario: every node it names must exist and learn, from a state of this
    version over the same catalog. Each problem is under its key path."""
    specs = {node.name: node for node in scenario.nodes}
    problems = []
    for name, doc in docs.items():
        spec = specs.get(name)
        if spec is None:
            problems.append(f"{name}: no node of that name in the scenario")
        elif spec.controller is None or not spec.controller.catalog:
            problems.append(f"{name}: the node has no strategy catalog to learn over")
        else:
            if doc.get("version") != LEARNING_STATE_VERSION:
                problems.append(
                    f"{name}.version: expected {LEARNING_STATE_VERSION}, got {doc.get('version')!r}"
                )
            catalog = [s.id for s in spec.controller.catalog]
            if doc.get("catalog") != catalog:
                problems.append(f"{name}.catalog: expected the scenario's {catalog}")
    return problems


# -- per-node runtime state ---------------------------------------------------


def _node_stream(label: str) -> cached_property:
    """A node's random stream, derived the first time the node reads it:
    the same labels, so the same draws, as a stream derived at start-up."""
    return cached_property(lambda node: substream(node.seed, "node", node.name, label))


class SimNode:
    """Mutable runtime state for one simulated node."""

    def __init__(self, spec: NodeSpec, scenario: Scenario):
        self.spec = spec
        self.name = spec.name
        self.figure = spec.figure
        self.dt = scenario.dt
        ch = spec.channel
        self.period_ticks = _period_ticks(ch.sampling_period, scenario.dt)
        self.bias_drift = ch.bias_drift
        self.bias_state = None if ch.bias_drift is None else ch.bias_drift.start()
        self.nominal_gain = ch.nominal_gain
        self.nominal_bias = ch.nominal_bias
        self.seed = scenario.seed

        self.correction_bias = 0.0
        self.correction_gain = 1.0
        # The channel as it now is; a restage or a drift tick replaces it.
        self.channel = ReflectiveMap(ch.gain, ch.bias, ch.noise_std, ch.quantization, ch.latency)
        self.pending_qualia: list = []
        # Boot convention: before the first quale arrives the node reports
        # the nominal reflection of the initial raw value.
        self.current_value: Optional[float] = None

        self.elastic_state = spec.behavior.start()  # the elastic design's run state
        self.behavior, self.state = spec.behavior, self.elastic_state
        self.pending_behavior: Optional[tuple[Behavior, object]] = None
        self.pending_channel: Optional[tuple[tuple[str, float], ...]] = None

        self.monitor: Optional[MonitorState] = None
        self.mode_controller: Optional[ModeController] = None
        self.learning: Optional[LearningState] = None
        ctrl = spec.controller
        if ctrl is not None:
            self.monitor = MonitorState(ctrl.smoothing, ctrl.safety.horizon)
            self.mode_controller = ModeController(ctrl.hysteresis)
            if ctrl.catalog:
                self.learning = LearningState(list(ctrl.catalog), ctrl.learning)
        self.active_strategy: Optional[Strategy] = None
        self.social = spec.social
        self.social_state = SocialState()
        self.overhead = 0  # model-building operations; stays 0 while elastic

        self.trace = NodeTrace(figure=spec.figure)
        self.utilization: Optional[float] = None
        self.status: Optional[ContractStatus] = None
        # Episode index -> (strategy in force, regime label at selection),
        # only for shocks on this node's figure; `failed` holds the episodes
        # whose social strategy the pool rejected.
        self.credit: dict[int, tuple[Strategy, str]] = {}
        self.failed: set[int] = set()

    noise_rng = _node_stream("noise")
    bias_rng = _node_stream("bias-drift")
    select_rng = _node_stream("select")

    # -- channel ------------------------------------------------------------

    def drift_bias(self) -> None:
        bias = self.bias_drift.step(self.channel.bias, self.dt, self.bias_rng, self.bias_state)
        self.channel = replace(self.channel, bias=bias)

    def sense_if_due(self, tick: int, t: float, raw: float) -> None:
        if tick % self.period_ticks == 0:
            # A noiseless channel draws nothing, so its stream is not derived.
            rng = self.noise_rng if self.channel.noise_std > 0 else None
            self.pending_qualia.append(sense(self.channel, raw, t, rng))

    def visible_value(self, t: float, initial_raw: float) -> float:
        arrived = [q for q in self.pending_qualia if q.acquired_at <= t + TIME_EPS]
        if arrived:
            self.current_value = arrived[-1].value
            self.pending_qualia = [
                q for q in self.pending_qualia if q.acquired_at > t + TIME_EPS
            ]
        if self.current_value is None:
            return ideal_reflection(self.nominal_gain, self.nominal_bias, initial_raw)
        return self.current_value

    def apply_pending(self) -> None:
        if self.pending_behavior is not None:
            self.behavior, self.state = self.pending_behavior
            self.pending_behavior = None
        if self.pending_channel is not None:
            changes = dict(self.pending_channel)
            if "sampling_period" in changes:
                self.period_ticks = _period_ticks(changes.pop("sampling_period"), self.dt)
            self.channel = replace(self.channel, **changes)
            self.pending_channel = None

    def apply_action(self, action: CorrectiveAction, capacity: float) -> None:
        self.apply_bias(action.bias, capacity)
        self.correction_gain *= action.gain
        if action.resample is not None:
            self.period_ticks = _period_ticks(action.resample, self.dt)

    def apply_bias(self, bias: float, capacity: float) -> None:
        self.correction_bias += min(max(bias, -capacity), capacity)


def enact_strategy(
    node: SimNode, strategy: Strategy, t: float
) -> tuple[ChangeRecord, Optional[SocialAction]]:
    """Stage a strategy on a node.

    Reconfiguration lands atomically at the next tick boundary; a social
    action is returned for the pool stage of this tick.
    """
    if strategy.kind is StrategyKind.RECONFIGURE:
        if strategy.behavior is not None:
            node.pending_behavior = (strategy.behavior, strategy.behavior.start())
        if strategy.channel is not None:
            node.pending_channel = strategy.channel
        return ChangeRecord(t, node.name, strategy.id, "reconfigure", ok=True), None
    return ChangeRecord(t, node.name, strategy.id, "social", ok=True), strategy.social


# -- episode metrics ----------------------------------------------------------


def episode_cost(
    times: Sequence[float], deltas: Sequence[Sequence[float]], start: float, end: float
) -> list[float]:
    """Trapezoid-rule integral of |delta| over [start, end], for each row
    of ``deltas`` on the shared ascending ``times``.

    The terms are ``0.5 * (d0 + d1) * (t1 - t0)`` elementwise, and
    ``np.add.accumulate`` sums each row in order, so every cost has the bits
    of a sequential ``total +=`` over that row's points.
    """
    lo, hi = _window(times, start, end)
    if hi - lo < 2:
        return [0.0] * len(deltas)
    block = np.array([row[lo:hi] for row in deltas])
    mags = np.abs(block, out=block)
    terms = np.add(mags[:, :-1], mags[:, 1:])
    terms *= 0.5
    terms *= np.diff(times[lo:hi])
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1].tolist()


def restoration_time(
    times: Sequence[float],
    statuses: Sequence[Optional[ContractStatus]],
    shock_at: float,
    window_end: float,
    streak: int = RESTORATION_STREAK,
) -> Optional[float]:
    """First post-shock instant from which the contract holds for `streak`
    consecutive ticks, as seconds after the shock. None when never restored
    (or the node carries no contract). The streak may extend past the
    window end, but its start must fall inside the window."""
    run = 0
    start_idx: Optional[int] = None
    for i, (t, status) in enumerate(zip(times, statuses)):
        if t <= shock_at + TIME_EPS:
            continue
        if status is ContractStatus.HOLDING:
            if run == 0:
                start_idx = i
            run += 1
            if run >= streak:
                start_t = times[start_idx]
                if start_t <= window_end + TIME_EPS:
                    return start_t - shock_at
                return None
        else:
            run = 0
            start_idx = None
        if t > window_end + TIME_EPS and run == 0:
            return None
    return None


def compute_recovery_metrics(
    times: Sequence[float],
    deltas: Sequence[Sequence[float]],
    statuses: Optional[Sequence[Sequence[Optional[ContractStatus]]]],
    shocks: Sequence[ShockEvent],
    nodes: Sequence[str],
    strategies: Optional[Sequence[dict[int, str]]] = None,
) -> list[RecoveryMetrics]:
    """Per-episode cost and restoration of each node, node by node in
    episode order. Row i of ``deltas``, ``statuses`` and ``strategies`` is
    node ``nodes[i]``, and every row shares the ascending ``times``, as the
    nodes of one run do.

    Each episode's costs come from one ``episode_cost`` call over every row,
    and each restoration scan reads only its episode's slice, so the cost
    per episode is O(window), not O(trace). Without ``statuses`` nothing is
    scanned and every restoration time is None.
    """
    episodes = []
    for shock in shocks:
        end = shock.at + shock.recovery_window
        lo, hi = _window(times, shock.at, end)
        # A restoring streak may run on past the window end, by at most
        # RESTORATION_STREAK - 1 samples.
        tail = hi + RESTORATION_STREAK - 1
        episodes.append((shock.at, end, lo, tail, episode_cost(times, deltas, shock.at, end)))
    metrics = []
    for row, node in enumerate(nodes):
        for index, (at, end, lo, tail, costs) in enumerate(episodes):
            restored = None if statuses is None else restoration_time(
                times[lo:tail], statuses[row][lo:tail], at, end)
            strategy = strategies[row].get(index) if strategies else None
            metrics.append(RecoveryMetrics(index, node, costs[row], restored, strategy))
    return metrics


def _window(times: Sequence[float], start: float, end: float) -> tuple[int, int]:
    """Index bounds of the ascending ``times`` inside [start, end], TIME_EPS
    tolerant: the points ``episode_cost`` keeps, in the same order."""
    return (
        bisect.bisect_left(times, start - TIME_EPS),
        bisect.bisect_right(times, end + TIME_EPS),
    )


def theil_sen_slope(values: Sequence[float]) -> float:
    """Median of all pairwise slopes against the index."""
    n = len(values)
    slopes = [
        (values[j] - values[i]) / (j - i)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return float(median(slopes))


def antifragility_score(
    costs: Sequence[float], threshold: float = 0.02
) -> AntifragilityReport:
    """Trend verdict over per-episode costs.

    The Theil-Sen slope (robust to a single bad episode) is normalized by
    the first episode's cost; a normalized slope below -threshold is
    Antifragile, above +threshold is Fragile, Robust otherwise.
    """
    if len(costs) < 4:
        raise InsufficientDataError(
            f"need at least 4 episodes, got {len(costs)}"
        )
    slope = theil_sen_slope(costs)
    first = costs[0]
    if first > 0:
        normalized = slope / first
    else:
        normalized = 0.0 if slope == 0 else math.copysign(math.inf, slope)
    if normalized < -threshold:
        verdict = Verdict.ANTIFRAGILE
    elif normalized > threshold:
        verdict = Verdict.FRAGILE
    else:
        verdict = Verdict.ROBUST
    return AntifragilityReport(
        slope=slope, normalized_slope=normalized,
        verdict=verdict, episodes=len(costs),
    )


# -- the loop -----------------------------------------------------------------


def check_run(
    scenario: Scenario,
    resume_learning: Optional[dict[str, dict]] = None,
    resume_source: str = "resume state",
) -> None:
    """Raise a ConfigurationError with every problem of the scenario and,
    under ``resume_source``, of ``resume_learning``."""
    problems = validate_scenario(scenario)
    if resume_learning:
        problems += [f"{resume_source}: {p}" for p in validate_resume(scenario, resume_learning)]
    if problems:
        raise ConfigurationError(problems)


def run_scenario(
    scenario: Scenario,
    resume_learning: Optional[dict[str, dict]] = None,
    resume_source: str = "resume state",
) -> RunResult:
    """Validate (``check_run``), calibrate, and execute."""
    check_run(scenario, resume_learning, resume_source)
    return _execute(scenario, baselines=_calibrate(scenario), passive_override=False,
                    resume_learning=resume_learning)


def _calibrate(scenario: Scenario) -> dict[str, float]:
    """Each node's reward baseline: its worst episode cost in the calibration
    pre-run, or 1.0 for a node with none; none at all, and no pre-run, unless
    a learning node has a shock to learn from. The pre-run's result dies when
    this returns, so the main run never holds a second tick history."""
    if not scenario.shocks or not any(
        node.controller is not None and node.controller.catalog
        and node.controller.learning.enabled
        for node in scenario.nodes
    ):
        return {}
    costs = _costs_by_node(_execute(scenario, baselines={}, passive_override=True).recovery)
    return {node.name: max(costs.get(node.name, ()), default=1.0) for node in scenario.nodes}


def identity_timeline(deltas: Sequence[float], contract: Optional[ContractSpec]) -> list[str]:
    """Each tick's identity: the strongest class that tick's trailing
    contract window of |delta| supports, or NonRT throughout for a node
    without a contract.

    The thresholds tested are the contract's own, with each level it
    leaves unset at the first one it sets.
    """
    if contract is None:
        return [IdentityKind.NON_RT.value] * len(deltas)
    own, window = contract.identity, contract.window
    base = own.hard_threshold or own.soft_mean or own.acceptability_bound or 1.0
    candidate = IdentityClass(
        own.kind, **{field: getattr(own, field) or base for field in _LEVEL_FIELDS.values()}
    )
    mags = np.abs(deltas)
    return [
        classify_trace(mags[max(0, end - window):end], candidate).value
        for end in range(1, len(mags) + 1)
    ]


def _execute(
    scenario: Scenario,
    baselines: dict[str, float],
    passive_override: bool,
    resume_learning: Optional[dict[str, dict]] = None,
) -> RunResult:
    """Run the tick loop once, start to end; ``passive_override`` makes it
    the calibration pre-run (``_Run``)."""
    run = _Run(scenario, baselines, resume_learning, passive_override)
    run.advance(run.ticks)
    return run.wrap_up()


class _Run:
    """State of one execution, at tick ``tick`` of ``ticks``. Its methods
    are the tick stages, in order; ``advance`` runs them. It holds no view
    or alias of its own state, so a copy (``pickle``, ``copy.deepcopy``)
    taken between ticks and advanced gives the bytes the run gives.

    ``passive`` makes it the calibration pre-run: the loop runs only
    ``boundary``, ``environment``, ``sensing`` and ``delta``. Without the
    behavior stage no node ever corrects, and without the identity,
    controller and collective stages none is guarded, reconfigured or
    social, so every node runs as a passive one would. That result carries
    episode costs only: its traces hold times, raws, quales and deltas, its
    restoration times are None, and it has no learning documents, overhead
    counters, baselines, identity timeline or antifragility verdicts.
    """

    def __init__(
        self,
        scenario: Scenario,
        baselines: dict[str, float],
        resume_learning: Optional[dict[str, dict]],
        passive: bool = False,
    ):
        self.scenario = scenario
        self.baselines = baselines
        self.passive = passive
        self.tick, self.ticks = 0, round(scenario.duration / scenario.dt)
        self.result = RunResult(scenario_name=scenario.name, seed=scenario.seed)
        self.figures = self.initial_figures = tuple(f.initial for f in scenario.figures)
        self.processes = [f.process for f in scenario.figures]
        self.process_states = [process.start() for process in self.processes]
        self.figure_rngs = [
            substream(scenario.seed, "figure", i, "drift")
            for i in range(len(scenario.figures))
        ]
        # |figure increments| of the last regime_window steps, one row each.
        self.increments = WindowRing(scenario.regime_window, len(scenario.figures))
        self.regime = Regime.CALM
        self.shocks = scenario.shocks
        self.next_shock = 0  # shocks before this index have landed
        self.open: list[int] = []  # landed, not yet closed, in index order
        self.pending_social: list[tuple[SimNode, SocialAction, Optional[int]]] = []

        self.nodes = [SimNode(spec, scenario) for spec in scenario.nodes]
        self.names = [node.name for node in self.nodes]
        # run_scenario has matched every resumed state to a learning node.
        for node in self.nodes:
            if resume_learning and node.name in resume_learning:
                node.learning.load_document(resume_learning[node.name])

        self.pool: Optional[ResourcePool] = None
        self.pool_spec = scenario.pool
        if self.pool_spec is not None:
            spec = self.pool_spec
            self.assist_quantum = Fraction(str(spec.assist_quantum))
            actions = [strategy.social.amount for node in scenario.nodes if node.controller
                       for strategy in node.controller.catalog if strategy.social]
            self.pool = ResourcePool(
                total=Fraction(str(spec.total)),
                floor=Fraction(str(spec.floor)),
                join_allocation=Fraction(str(spec.join_allocation)),
                amounts=[self.assist_quantum, *actions],
            )
            for node in self.nodes:
                if node.spec.member:
                    self.pool.join(node.name)
            self.social_states = {node.name: node.social_state for node in self.nodes}

        # One ContractGroup per distinct guard, its rows in node order.
        guards: dict[tuple, list[int]] = {}
        for index, node in enumerate(self.nodes):
            if node.spec.contract is not None:
                guards.setdefault(_guard(node.spec), []).append(index)
        # Each group with its nodes, their indices and their delta columns.
        self.groups: list[tuple[ContractGroup, list[SimNode], list[int], list[list[float]]]] = []
        for (identity, window, margin, detector), indices in guards.items():
            nodes = [self.nodes[i] for i in indices]
            group = ContractGroup(
                identity, window, margin, detector, figures=[node.figure for node in nodes]
            )
            self.groups.append((group, nodes, indices, [node.trace.deltas for node in nodes]))

        # Initial sensing at t=0 so slow channels have a value to hold.
        for node in self.nodes:
            node.sense_if_due(0, 0.0, self.figures[node.figure])

    def advance(self, to: int) -> None:
        """Run every tick after ``tick`` up to ``to``: the stage order."""
        dt = self.scenario.dt
        # A diverging node's window overflows in numpy before its delta turns
        # non-finite; that surfaces as a DivergenceError from `delta`, or
        # from `identity` when a fired detector's window statistic overflows.
        with np.errstate(over="ignore"):
            while self.tick < to:
                self.tick = tick = self.tick + 1
                t = tick * dt
                self.boundary()
                self.environment(t)
                samples = []
                for node in self.nodes:
                    self.sensing(node, tick, t)
                    samples.append(self.delta(node, tick, t))
                if self.passive:
                    continue
                self.identity(t)
                for node, sample in zip(self.nodes, samples):
                    self.controller(node, t, sample)
                self.behavior(samples)
                self.collective(t)
                self.metrics(t)

    def boundary(self) -> None:
        for node in self.nodes:
            node.apply_pending()

    def environment(self, t: float) -> None:
        figures = step_environment(
            self.figures, self.processes, self.process_states, self.scenario.dt, self.figure_rngs
        )
        landed = self.next_shock
        while (
            self.next_shock < len(self.shocks)
            and self.shocks[self.next_shock].at <= t + TIME_EPS
        ):
            figures = apply_shock(figures, self.shocks[self.next_shock])
            self.next_shock += 1
        self.increments.push([abs(b - a) for a, b in zip(self.figures, figures)])
        self.figures = figures
        self.regime = label_regime(self.increments.view(), self.scenario.turbulence_threshold)
        for index in range(landed, self.next_shock):
            self.open.append(index)
            # A strategy already in force when the shock lands owns the episode.
            figure = self.shocks[index].figure
            for node in self.nodes:
                if node.active_strategy is not None and node.figure == figure:
                    node.credit.setdefault(index, (node.active_strategy, self.regime.value))

    def sensing(self, node: SimNode, tick: int, t: float) -> None:
        if node.bias_drift is not None:
            node.drift_bias()
        raw = self.figures[node.figure]
        node.sense_if_due(tick, t, raw)
        node.trace.raws.append(raw)
        node.trace.quales.append(
            node.correction_gain
            * node.visible_value(t, self.initial_figures[node.figure])
            + node.correction_bias
        )

    def delta(self, node: SimNode, tick: int, t: float) -> DeltaSample:
        trace = node.trace
        ideal = ideal_reflection(node.nominal_gain, node.nominal_bias, trace.raws[-1])
        delta = trace.quales[-1] - ideal
        if not math.isfinite(delta):
            raise DivergenceError(
                f"node {node.name!r} diverged: non-finite delta at tick {tick} (t={t})"
            )
        sample = DeltaSample(time=t, delta=delta)
        trace.times.append(t)
        trace.deltas.append(delta)
        return sample

    def identity(self, t: float) -> None:
        fired = []
        for group, nodes, indices, deltas in self.groups:
            statuses, utilizations, events = group.step(t, [abs(d[-1]) for d in deltas])
            for node, status, utilization in zip(nodes, statuses, utilizations):
                node.status = status
                node.utilization = utilization
            if events:
                fired += [(indices[row], nodes[row].name, event) for row, event in events]
        for node in self.nodes:
            node.trace.statuses.append(node.status)
        if fired:
            fired.sort()  # by node index, unique: scenario node order across groups
            for _, name, event in fired:
                if not (math.isfinite(event.window_mean) and math.isfinite(event.window_std)):
                    raise DivergenceError(f"node {name!r} diverged: non-finite detector "
                                          f"window statistic at tick {self.tick} (t={t})")
            self.result.failure_events += [(name, event) for _, name, event in fired]

    def controller(self, node: SimNode, t: float, sample: DeltaSample) -> None:
        mode: Optional[Mode] = None
        if node.monitor is not None:
            ctrl = node.spec.controller
            monitor_step(node.monitor, sample)
            verdict = assess_safety(node.monitor, ctrl.safety, node.status)
            node.trace.verdicts.append(verdict)
            previous = node.mode_controller.mode
            mode = node.mode_controller.step(verdict)
            if mode is Mode.RESILIENT:
                if node.active_strategy is None and ctrl.catalog:
                    self._select(node, t)
            elif previous is Mode.RESILIENT:
                # Back to the cheap path: restore the elastic design, with a copy
                # of its state as first replaced (ROADMAP item 5's decision).
                node.pending_behavior = (node.spec.behavior, copy.deepcopy(node.elastic_state))
                node.active_strategy = None
        node.trace.modes.append(mode)

    def _select(self, node: SimNode, t: float) -> None:
        ctrl = node.spec.controller
        regime = self.regime.value
        node.overhead += 1
        if ctrl.learning.enabled:
            strategy = node.learning.select(regime, node.select_rng)
        else:
            strategy = ctrl.catalog[0]
        node.active_strategy = strategy
        record, social_action = enact_strategy(node, strategy, t)
        self.result.changes.append(record)
        # The first open episode on this node's figure whose window holds t.
        episode = None
        for index in self.open:
            shock = self.shocks[index]
            end = shock.at + shock.recovery_window
            if shock.figure == node.figure and t <= end + TIME_EPS:
                episode = index
                node.credit.setdefault(episode, (strategy, regime))
                break
        if social_action is not None:
            self.pending_social.append((node, social_action, episode))

    def behavior(self, samples: list[DeltaSample]) -> None:
        """Every node acts on its observation, its correction capped by its
        pool allocation (solo capacity for a non-member, none without a
        pool). Predictive nodes act last: ``stage_predictions`` solves their
        fits together and returns their bias increments."""
        figures, pool = self.figures, self.pool
        allocations = {} if pool is None else pool.float_allocations
        solo = math.inf if pool is None else self.pool_spec.solo_capacity
        predictive = []
        for node, sample in zip(self.nodes, samples):
            if isinstance(node.behavior, Predictive):
                predictive.append((node, sample))
            else:
                obs = Observation(latest=sample, context=figures, correction=node.correction_bias)
                node.apply_action(node.behavior.act(obs, node.state),
                                  allocations.get(node.name, solo))
        if predictive:
            biases = stage_predictions([
                (node.behavior, node.state, sample.time, figures, sample.delta,
                 node.correction_bias)
                for node, sample in predictive
            ])
            for (node, _), bias in zip(predictive, biases):
                node.apply_bias(bias, allocations.get(node.name, solo))

    def collective(self, t: float) -> None:
        pool, spec = self.pool, self.pool_spec
        if pool is None:
            self.pending_social.clear()
            return
        for node, social_action, episode in self.pending_social:
            ok = apply_social_action(
                pool, node.name, social_action, states=self.social_states
            )
            if not ok:
                strategy_id = node.active_strategy.id if node.active_strategy else ""
                record = ChangeRecord(t, node.name, strategy_id, "social", ok=False)
                self.result.changes.append(record)
                if episode is not None:
                    node.failed.add(episode)
        self.pending_social.clear()
        needy = NeedyRanking((m.name, m.status, m.utilization) for m in self.nodes)
        for node in self.nodes:
            if node.social is None:
                continue
            if node.status is ContractStatus.HOLDING:
                node.social_state.calm_ticks += 1
            else:
                node.social_state.calm_ticks = 0
            decision = decide_social_action(
                node.name, node.status, node.social, pool, needy, node.social_state,
                node.utilization, spec.calm_window, self.assist_quantum,
                spec.reciprocation_weight,
            )
            if decision is not None:
                apply_social_action(pool, node.name, decision, states=self.social_states)
        if not pool.conserved():
            self.result.pool_violations += 1
        allocations = list(map(pool.float_allocations.get, self.names, repeat(0.0)))
        self.result.pool_log.append((t, allocations, pool.float_reserve))

    def metrics(self, t: float) -> None:
        still_open = []
        for index in self.open:
            shock = self.shocks[index]
            end = shock.at + shock.recovery_window
            if t >= end - TIME_EPS:
                self._close(index, shock.at, end)
            else:
                still_open.append(index)
        self.open = still_open

    def _close(self, index: int, start: float, end: float) -> None:
        credited = [node for node in self.nodes if index in node.credit]
        learning = [node for node in credited
                    if node.learning is not None and node.spec.controller.learning.enabled]
        priced = [node for node in learning if index not in node.failed]
        rewards = {}
        if priced:
            costs = episode_cost(
                priced[0].trace.times, [node.trace.deltas for node in priced], start, end
            )
            for node, cost in zip(priced, costs):
                rewards[node.name] = compute_reward(cost, self.baselines.get(node.name, 1.0))
        for node in learning:
            strategy, regime = node.credit[index]
            node.overhead += 1
            # A node whose social action the pool rejected earns nothing.
            node.learning.update(regime, strategy.id, rewards.get(node.name, 0.0), index)
        # The episode's outcome is measured: while conditions stay unsafe the
        # loop plans again, so a still-resilient node reselects on the next tick.
        for node in credited:
            node.active_strategy = None

    def wrap_up(self) -> RunResult:
        """The run's result, once it has advanced to ``ticks``."""
        result, shocks, nodes = self.result, self.shocks, self.nodes
        result.traces = {node.name: node.trace for node in nodes}
        result.recovery = compute_recovery_metrics(
            nodes[0].trace.times if nodes else [], [node.trace.deltas for node in nodes],
            None if self.passive else [node.trace.statuses for node in nodes], shocks,
            self.names, [{i: s.id for i, (s, _) in node.credit.items()} for node in nodes],
        )
        if self.passive:
            return result
        result.baselines = self.baselines
        for node in nodes:
            result.overhead_counters[node.name] = node.overhead
            if node.learning is not None:
                result.learning_docs[node.name] = node.learning.to_document()
            if self.scenario.record_identity:
                node.trace.identities = identity_timeline(node.trace.deltas, node.spec.contract)

        if len(shocks) >= 4 and nodes:
            threshold = self.scenario.antifragility_threshold
            costs = _costs_by_node(result.recovery)
            # Each episode's mean over the nodes, in node order.
            per_episode = [float(np.mean(column)) for column in zip(*costs.values())]
            result.antifragility = antifragility_score(per_episode, threshold)
            for name, node_costs in costs.items():
                result.node_antifragility[name] = antifragility_score(node_costs, threshold)
        return result


def _costs_by_node(recovery: Sequence[RecoveryMetrics]) -> dict[str, list[float]]:
    """Each node's episode costs in episode order, the nodes in the order of
    their first row: one pass over the recovery rows."""
    costs: dict[str, list[float]] = {}
    for m in recovery:
        costs.setdefault(m.node, []).append(m.cost)
    return costs


def _guard(spec: NodeSpec) -> tuple:
    """What the nodes of one contract group share: the contract's class,
    window and at-risk margin, and the detector config. Best-effort systems
    do not watch their own error: the detector is withheld from them even
    when a detector section is configured."""
    contract = spec.contract
    watched = contract.identity.kind in (IdentityKind.HARD_RT, IdentityKind.SOFT_RT)
    return (
        contract.identity, contract.window, contract.at_risk_margin,
        spec.detector if watched else None,
    )
