"""Scenario configuration: YAML in, validated Scenario out, echo back.

The document format is YAML (JSON documents parse too, YAML being a
superset for this schema). Parsing is strict: unknown keys are rejected
with their full section path, the schema version is checked, and every
problem is collected before failing so one run reports them all.

``scenario_to_config`` serializes a Scenario back into the canonical
document form with every default materialized; the run report embeds that
echo, and feeding the echo back through ``parse_config`` reproduces the
run exactly.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import yaml

from .behavior import behavior_from_spec, behavior_to_spec
from .collective import SocialBehavior
from .controller import SafetyPredicate, Strategy, StrategyKind
from .engine import (
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    PoolSpec,
    Scenario,
    validate_scenario,
)
from .environment import ShockEvent, process_from_spec, process_to_spec
from .errors import ConfigurationError
from .identity import DetectorConfig, IdentityClass, IdentityKind

SCHEMA_VERSION = 1

_UCB_DEFAULT_EXPLORATION = math.sqrt(2.0)


class _Parser:
    """Strict mapping walker that records every problem with its path."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def mapping(self, value: Any, path: str, allowed: set[str]) -> dict:
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(path, "expected a mapping")
            return {}
        for key in value:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")
        return value

    def sequence(self, value: Any, path: str) -> list:
        if value is None:
            return []
        if not isinstance(value, list):
            self.fail(path, "expected a list")
            return []
        return value

    def number(self, value: Any, path: str, default: float) -> float:
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, f"expected a number, got {value!r}")
            return default
        return float(value)

    def integer(self, value: Any, path: str, default: int) -> int:
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(path, f"expected an integer, got {value!r}")
            return default
        return value

    def boolean(self, value: Any, path: str, default: bool) -> bool:
        if value is None:
            return default
        if not isinstance(value, bool):
            self.fail(path, f"expected a boolean, got {value!r}")
            return default
        return value

    def string(self, value: Any, path: str, default: str) -> str:
        if value is None:
            return default
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {value!r}")
            return default
        return value


def _parse_process(p: _Parser, spec: Any, path: str):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        p.fail(path, "expected a process mapping")
        return None
    try:
        return process_from_spec(spec)
    except ConfigurationError as exc:
        p.fail(path, str(exc))
        return None


def _parse_behavior(p: _Parser, spec: Any, path: str):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        p.fail(path, "expected a behavior mapping")
        return None
    try:
        return behavior_from_spec(spec)
    except ConfigurationError as exc:
        p.fail(path, str(exc))
        return None


_CONTRACT_KEYS = {"kind", "threshold", "mean", "std", "bound", "window", "at_risk_margin"}


def _parse_contract(p: _Parser, raw: Any, path: str) -> Optional[ContractSpec]:
    if raw is None:
        return None
    section = p.mapping(raw, path, _CONTRACT_KEYS)
    kind = p.string(section.get("kind"), f"{path}.kind", "")
    window = p.integer(section.get("window"), f"{path}.window", 100)
    margin = p.number(section.get("at_risk_margin"), f"{path}.at_risk_margin", 0.8)
    if kind == "hard":
        identity = IdentityClass.hard(p.number(section.get("threshold"), f"{path}.threshold", 0.1))
    elif kind == "soft":
        identity = IdentityClass.soft(
            p.number(section.get("mean"), f"{path}.mean", 0.1),
            p.number(section.get("std"), f"{path}.std", 0.1),
        )
    elif kind == "best_effort":
        identity = IdentityClass.best_effort(
            p.number(section.get("bound"), f"{path}.bound", 0.1)
        )
    else:
        p.fail(f"{path}.kind", f"expected hard | soft | best_effort, got {kind!r}")
        return None
    return ContractSpec(identity=identity, window=window, at_risk_margin=margin)


def _parse_strategy(p: _Parser, raw: Any, path: str) -> Optional[Strategy]:
    section = p.mapping(raw, path, {"id", "kind", "behavior", "channel", "action"})
    sid = p.string(section.get("id"), f"{path}.id", "")
    if not sid:
        p.fail(f"{path}.id", "strategy id is required")
    kind = p.string(section.get("kind"), f"{path}.kind", "")
    if kind == "reconfigure":
        behavior_spec = section.get("behavior")
        if behavior_spec is not None:
            _parse_behavior(p, behavior_spec, f"{path}.behavior")
        channel_spec = section.get("channel")
        if channel_spec is not None:
            p.mapping(channel_spec, f"{path}.channel",
                      {"gain", "bias", "noise_std", "quantization",
                       "sampling_period", "latency"})
        return Strategy(
            id=sid, kind=StrategyKind.RECONFIGURE,
            behavior_spec=behavior_spec, channel_spec=channel_spec,
        )
    if kind == "social":
        action = p.mapping(section.get("action"), f"{path}.action",
                           {"kind", "amount", "target"})
        if "kind" not in action:
            p.fail(f"{path}.action.kind", "social action kind is required")
        return Strategy(id=sid, kind=StrategyKind.SOCIAL, social_spec=dict(action))
    p.fail(f"{path}.kind", f"expected reconfigure | social, got {kind!r}")
    return None


def _parse_node(p: _Parser, raw: Any, path: str, index: int) -> NodeSpec:
    section = p.mapping(
        raw, path,
        {"name", "figure", "channel", "contract", "detector", "behavior",
         "social", "member", "controller"},
    )
    name = p.string(section.get("name"), f"{path}.name", f"node{index}")
    figure = p.integer(section.get("figure"), f"{path}.figure", 0)

    ch = p.mapping(
        section.get("channel"), f"{path}.channel",
        {"gain", "bias", "noise_std", "quantization", "sampling_period",
         "latency", "nominal_gain", "nominal_bias", "bias_drift"},
    )
    channel = ChannelSpec(
        gain=p.number(ch.get("gain"), f"{path}.channel.gain", 1.0),
        bias=p.number(ch.get("bias"), f"{path}.channel.bias", 0.0),
        noise_std=p.number(ch.get("noise_std"), f"{path}.channel.noise_std", 0.0),
        quantization=p.number(ch.get("quantization"), f"{path}.channel.quantization", 0.0),
        sampling_period=p.number(
            ch.get("sampling_period"), f"{path}.channel.sampling_period", 0.1
        ),
        latency=p.number(ch.get("latency"), f"{path}.channel.latency", 0.0),
        nominal_gain=p.number(ch.get("nominal_gain"), f"{path}.channel.nominal_gain", 1.0),
        nominal_bias=p.number(ch.get("nominal_bias"), f"{path}.channel.nominal_bias", 0.0),
        bias_drift=_parse_process(p, ch.get("bias_drift"), f"{path}.channel.bias_drift"),
    )

    contract = _parse_contract(p, section.get("contract"), f"{path}.contract")

    detector = None
    if section.get("detector") is not None:
        det = p.mapping(section.get("detector"), f"{path}.detector",
                        {"slack", "threshold", "reference", "window"})
        detector = DetectorConfig(
            slack=p.number(det.get("slack"), f"{path}.detector.slack", 0.02),
            threshold=p.number(det.get("threshold"), f"{path}.detector.threshold", 0.2),
            reference=p.number(det.get("reference"), f"{path}.detector.reference", 0.0),
            window=p.integer(det.get("window"), f"{path}.detector.window", 100),
        )

    behavior = _parse_behavior(p, section.get("behavior"), f"{path}.behavior")
    if behavior is None:
        behavior = behavior_from_spec({"kind": "passive"})

    social = None
    social_raw = section.get("social")
    if social_raw is not None:
        try:
            social = SocialBehavior(p.string(social_raw, f"{path}.social", ""))
        except ValueError:
            p.fail(
                f"{path}.social",
                f"expected neutral | individualistic | cooperative, got {social_raw!r}",
            )

    controller = None
    if section.get("controller") is not None:
        ctrl = p.mapping(
            section.get("controller"), f"{path}.controller",
            {"smoothing", "safety", "hysteresis", "learning", "catalog"},
        )
        safety_raw = p.mapping(
            ctrl.get("safety"), f"{path}.controller.safety",
            {"turbulence_threshold", "horizon"},
        )
        safety = SafetyPredicate(
            turbulence_threshold=p.number(
                safety_raw.get("turbulence_threshold"),
                f"{path}.controller.safety.turbulence_threshold", 0.05,
            ),
            horizon=p.integer(
                safety_raw.get("horizon"), f"{path}.controller.safety.horizon", 10
            ),
        )
        learning = p.mapping(
            ctrl.get("learning"), f"{path}.controller.learning",
            {"enabled", "algorithm", "exploration", "epsilon"},
        )
        catalog = []
        for j, entry in enumerate(p.sequence(ctrl.get("catalog"), f"{path}.controller.catalog")):
            strategy = _parse_strategy(p, entry, f"{path}.controller.catalog[{j}]")
            if strategy is not None:
                catalog.append(strategy)
        controller = ControllerSpec(
            smoothing=p.number(ctrl.get("smoothing"), f"{path}.controller.smoothing", 0.1),
            safety=safety,
            hysteresis=p.integer(ctrl.get("hysteresis"), f"{path}.controller.hysteresis", 10),
            learning_enabled=p.boolean(
                learning.get("enabled"), f"{path}.controller.learning.enabled", True
            ),
            algorithm=p.string(
                learning.get("algorithm"), f"{path}.controller.learning.algorithm", "ucb1"
            ),
            exploration=p.number(
                learning.get("exploration"),
                f"{path}.controller.learning.exploration", _UCB_DEFAULT_EXPLORATION,
            ),
            epsilon=p.number(
                learning.get("epsilon"), f"{path}.controller.learning.epsilon", 0.1
            ),
            catalog=tuple(catalog),
        )

    return NodeSpec(
        name=name, figure=figure, channel=channel, contract=contract,
        detector=detector, behavior=behavior, social=social,
        member=p.boolean(section.get("member"), f"{path}.member", False),
        controller=controller,
    )


def parse_config(doc: Any, seed_override: Optional[int] = None) -> Scenario:
    """Build a Scenario from a parsed document; raise with every problem."""
    p = _Parser()
    top = p.mapping(
        doc, "config",
        {"schema_version", "name", "duration", "dt", "seed", "environment",
         "shocks", "pool", "nodes", "report"},
    )
    version = top.get("schema_version")
    if version != SCHEMA_VERSION:
        p.fail("config.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    env = p.mapping(
        top.get("environment"), "environment",
        {"figures", "turbulence_threshold", "regime_window"},
    )
    figures = []
    for i, raw in enumerate(p.sequence(env.get("figures"), "environment.figures")):
        section = p.mapping(raw, f"environment.figures[{i}]",
                            {"name", "unit", "initial", "process"})
        process = _parse_process(p, section.get("process"), f"environment.figures[{i}].process")
        figures.append(
            FigureSpec(
                name=p.string(section.get("name"), f"environment.figures[{i}].name", f"figure{i}"),
                unit=p.string(section.get("unit"), f"environment.figures[{i}].unit", ""),
                initial=p.number(section.get("initial"), f"environment.figures[{i}].initial", 0.0),
                process=process if process is not None else process_from_spec({"kind": "constant"}),
            )
        )

    shocks = []
    for i, raw in enumerate(p.sequence(top.get("shocks"), "shocks")):
        section = p.mapping(raw, f"shocks[{i}]",
                            {"at", "figure", "magnitude", "recovery_window"})
        shocks.append(
            ShockEvent(
                at=p.number(section.get("at"), f"shocks[{i}].at", 0.0),
                figure=p.integer(section.get("figure"), f"shocks[{i}].figure", 0),
                magnitude=p.number(section.get("magnitude"), f"shocks[{i}].magnitude", 0.0),
                recovery_window=p.number(
                    section.get("recovery_window"), f"shocks[{i}].recovery_window", 1.0
                ),
            )
        )

    pool = None
    if top.get("pool") is not None:
        section = p.mapping(
            top.get("pool"), "pool",
            {"total", "join_allocation", "solo_capacity", "floor",
             "assist_quantum", "reciprocation_weight", "calm_window"},
        )
        pool = PoolSpec(
            total=p.number(section.get("total"), "pool.total", 1.0),
            join_allocation=p.number(section.get("join_allocation"), "pool.join_allocation", 1.0),
            solo_capacity=p.number(section.get("solo_capacity"), "pool.solo_capacity", 0.5),
            floor=p.number(section.get("floor"), "pool.floor", 0.0),
            assist_quantum=p.number(section.get("assist_quantum"), "pool.assist_quantum", 0.25),
            reciprocation_weight=p.number(
                section.get("reciprocation_weight"), "pool.reciprocation_weight", 2.0
            ),
            calm_window=p.integer(section.get("calm_window"), "pool.calm_window", 20),
        )

    nodes = [
        _parse_node(p, raw, f"nodes[{i}]", i)
        for i, raw in enumerate(p.sequence(top.get("nodes"), "nodes"))
    ]

    report = p.mapping(top.get("report"), "report",
                       {"antifragility_threshold", "record_identity"})

    scenario = Scenario(
        name=p.string(top.get("name"), "name", "scenario"),
        duration=p.number(top.get("duration"), "duration", 10.0),
        dt=p.number(top.get("dt"), "dt", 0.1),
        seed=p.integer(top.get("seed"), "seed", 0),
        figures=figures,
        shocks=shocks,
        nodes=nodes,
        pool=pool,
        turbulence_threshold=p.number(
            env.get("turbulence_threshold"), "environment.turbulence_threshold", 0.05
        ),
        regime_window=p.integer(env.get("regime_window"), "environment.regime_window", 20),
        antifragility_threshold=p.number(
            report.get("antifragility_threshold"), "report.antifragility_threshold", 0.02
        ),
        record_identity=p.boolean(report.get("record_identity"), "report.record_identity", True),
    )
    if seed_override is not None:
        scenario.seed = seed_override
    problems = p.errors + validate_scenario(scenario)
    if problems:
        raise ConfigurationError(problems)
    return scenario


def load_config(path, seed_override: Optional[int] = None) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError([f"config: not parseable YAML/JSON ({exc})"])
    return parse_config(doc, seed_override=seed_override)


# -- echo ---------------------------------------------------------------------


def _contract_to_config(contract: ContractSpec) -> dict:
    identity = contract.identity
    out: dict = {"window": contract.window, "at_risk_margin": contract.at_risk_margin}
    if identity.kind is IdentityKind.HARD_RT:
        out |= {"kind": "hard", "threshold": identity.hard_threshold}
    elif identity.kind is IdentityKind.SOFT_RT:
        out |= {"kind": "soft", "mean": identity.soft_mean, "std": identity.soft_std}
    else:
        out |= {"kind": "best_effort", "bound": identity.acceptability_bound}
    return out


def _strategy_to_config(strategy: Strategy) -> dict:
    if strategy.kind is StrategyKind.RECONFIGURE:
        out: dict = {"id": strategy.id, "kind": "reconfigure"}
        if strategy.behavior_spec is not None:
            out["behavior"] = dict(strategy.behavior_spec)
        if strategy.channel_spec is not None:
            out["channel"] = dict(strategy.channel_spec)
        return out
    return {"id": strategy.id, "kind": "social", "action": dict(strategy.social_spec or {})}


def scenario_to_config(scenario: Scenario) -> dict:
    """Canonical, fully-defaulted document for this scenario."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": scenario.name,
        "duration": scenario.duration,
        "dt": scenario.dt,
        "seed": scenario.seed,
        "environment": {
            "turbulence_threshold": scenario.turbulence_threshold,
            "regime_window": scenario.regime_window,
            "figures": [
                {
                    "name": f.name,
                    "unit": f.unit,
                    "initial": f.initial,
                    "process": process_to_spec(f.process),
                }
                for f in scenario.figures
            ],
        },
        "shocks": [
            {
                "at": s.at,
                "figure": s.figure,
                "magnitude": s.magnitude,
                "recovery_window": s.recovery_window,
            }
            for s in scenario.shocks
        ],
        "report": {
            "antifragility_threshold": scenario.antifragility_threshold,
            "record_identity": scenario.record_identity,
        },
        "nodes": [],
    }
    if scenario.pool is not None:
        pool = scenario.pool
        doc["pool"] = {
            "total": pool.total,
            "join_allocation": pool.join_allocation,
            "solo_capacity": pool.solo_capacity,
            "floor": pool.floor,
            "assist_quantum": pool.assist_quantum,
            "reciprocation_weight": pool.reciprocation_weight,
            "calm_window": pool.calm_window,
        }
    for node in scenario.nodes:
        ch = node.channel
        channel: dict = {
            "gain": ch.gain,
            "bias": ch.bias,
            "noise_std": ch.noise_std,
            "quantization": ch.quantization,
            "sampling_period": ch.sampling_period,
            "latency": ch.latency,
            "nominal_gain": ch.nominal_gain,
            "nominal_bias": ch.nominal_bias,
        }
        if ch.bias_drift is not None:
            channel["bias_drift"] = process_to_spec(ch.bias_drift)
        entry: dict = {
            "name": node.name,
            "figure": node.figure,
            "channel": channel,
            "behavior": behavior_to_spec(node.behavior),
            "member": node.member,
        }
        if node.contract is not None:
            entry["contract"] = _contract_to_config(node.contract)
        if node.detector is not None:
            det = node.detector
            entry["detector"] = {
                "slack": det.slack,
                "threshold": det.threshold,
                "reference": det.reference,
                "window": det.window,
            }
        if node.social is not None:
            entry["social"] = node.social.value
        if node.controller is not None:
            ctrl = node.controller
            entry["controller"] = {
                "smoothing": ctrl.smoothing,
                "safety": {
                    "turbulence_threshold": ctrl.safety.turbulence_threshold,
                    "horizon": ctrl.safety.horizon,
                },
                "hysteresis": ctrl.hysteresis,
                "learning": {
                    "enabled": ctrl.learning_enabled,
                    "algorithm": ctrl.algorithm,
                    "exploration": ctrl.exploration,
                    "epsilon": ctrl.epsilon,
                },
                "catalog": [_strategy_to_config(s) for s in ctrl.catalog],
            }
        doc["nodes"].append(entry)
    return doc
