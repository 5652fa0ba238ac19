"""Scenario configuration: a document in, validated Scenario out, echo back.

A file whose name ends in ``.json`` is read as strict JSON (RFC 8259) by
the standard library; any other file as YAML 1.1 by PyYAML, which is
imported only then. Parsing is strict: unknown keys are rejected
with their full section path, the schema version is checked, and every
problem is collected before failing so one run reports them all, each
once, under the path of its key.

Each spec dataclass is the one place its keys, types and defaults are
written: a section whose keys are a dataclass's own fields is read from
``dataclasses.fields`` through the reader of each field's annotated type
(``float``, ``int``, ``bool``, ``str``) and written back the same way.
Behaviors, drift processes and catalog strategies are parsed here too, into
the objects the engine runs, so the engine reads no document.

``scenario_to_config`` serializes a Scenario back into the canonical
document form with every default materialized; the run report embeds that
echo, and feeding the echo back through ``parse_config`` reproduces the
run exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Collection, Optional

from .behavior import (
    ActiveNonPurposeful,
    Behavior,
    CorrectiveAction,
    Passive,
    Predictive,
    PurposefulNonTeleological,
    Reactive,
)
from .collective import SocialAction, SocialActionKind, SocialBehavior
from .controller import LearningSpec, SafetyPredicate, Strategy, StrategyKind
from .engine import (
    RESTAGEABLE,
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    PoolSpec,
    Scenario,
    validate_scenario,
)
from .environment import (
    Constant,
    DriftProcess,
    LinearDrift,
    RandomWalk,
    RegimeSwitching,
    ShockEvent,
)
from .errors import ConfigurationError
from .identity import CONTRACT_LEVELS, DetectorConfig, IdentityClass, IdentityKind

SCHEMA_VERSION = 1

#: The parser's reader of each scalar field annotation.
_READERS = {"float": "number", "int": "integer", "bool": "boolean", "str": "string"}

_FLOAT_MAX = sys.float_info.max


@cache
def _keys(cls) -> frozenset:
    """The document keys of a spec dataclass: its constructor's fields."""
    return frozenset(f.name for f in dataclasses.fields(cls) if f.init)


@cache
def _scalars(cls) -> tuple[tuple[str, Callable, Any], ...]:
    """(name, _Parser reader, default) of each scalar constructor field of cls."""
    return tuple(
        (f.name, getattr(_Parser, _READERS[f.type]), f.default)
        for f in dataclasses.fields(cls)
        if f.init and f.type in _READERS
    )


def _echo(spec) -> dict:
    """The scalar fields of a spec dataclass, as its document section."""
    return {name: getattr(spec, name) for name, _, _ in _scalars(type(spec))}


class _Parser:
    """Strict document walker that records every problem with its path.

    Each reader returns its default for an absent (None) value. A value it
    rejects is recorded once, and reads as one that no validation check
    flags under another key: a number as NaN, anything else as its default.
    """

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def mapping(self, value: Any, path: str, allowed: Optional[Collection] = None) -> dict:
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(path, "expected a mapping")
            return {}
        if allowed is not None:
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

    def number(self, value: Any, path: str, default: Optional[float]) -> Optional[float]:
        if value is None:
            return default
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not -_FLOAT_MAX <= value <= _FLOAT_MAX
        ):
            self.fail(path, f"expected a finite number, got {value!r}")
            return math.nan
        return float(value)

    def integer(self, value: Any, path: str, default: Optional[int]) -> Optional[int]:
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

    def string(self, value: Any, path: str, default: Optional[str]) -> Optional[str]:
        if value is None:
            return default
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {value!r}")
            return default
        return value

    def choice(self, value: Any, path: str, options: Collection[str]) -> Optional[str]:
        if isinstance(value, str) and value in options:
            return value
        self.fail(path, f"expected {' | '.join(options)}, got {value!r}")
        return None

    def kinded(self, value: Any, path: str, kinds: dict) -> tuple[Optional[str], dict]:
        """A mapping whose ``kind`` names the other keys it may hold
        (``kinds``: kind -> keys); the kind is None once a problem is
        recorded."""
        if not isinstance(value, dict):
            self.fail(path, "expected a mapping")
            return None, {}
        kind = self.choice(value.get("kind"), f"{path}.kind", kinds)
        if kind is not None:
            self.mapping(value, path, {"kind", *kinds[kind]})
        return kind, value

    def scalars(self, cls, section: dict, path: str, names=None, **defaults) -> dict:
        """The scalar fields of the dataclass cls (only ``names``, if given)
        read from ``section`` by their annotated types; a missing one takes
        its dataclass default, or the one given in ``defaults``."""
        prefix = f"{path}." if path else ""
        return {
            name: read(self, section.get(name), prefix + name, defaults.get(name, default))
            for name, read, default in _scalars(cls)
            if names is None or name in names
        }

    def spec(self, cls, value: Any, path: str):
        """The spec dataclass cls read from a mapping of its scalar fields."""
        return cls(**self.scalars(cls, self.mapping(value, path, _keys(cls)), path))


# -- behaviors and processes --------------------------------------------------

#: The behaviors whose document keys are their own scalar fields.
_SCALAR_BEHAVIORS = {"reactive": Reactive, "predictive": Predictive}
_BEHAVIOR_KEYS = {
    "passive": (),
    "active_non_purposeful": ("schedule",),
    "purposeful_non_teleological": ("policy",),
    **{kind: _keys(cls) for kind, cls in _SCALAR_BEHAVIORS.items()},
}
_BEHAVIOR_KINDS = {cls: kind for kind, cls in _SCALAR_BEHAVIORS.items()}

_PROCESSES = {
    "constant": Constant,
    "linear": LinearDrift,
    "random_walk": RandomWalk,
    "regime_switching": RegimeSwitching,
}
_PROCESS_KEYS = {kind: _keys(cls) for kind, cls in _PROCESSES.items()}
_PROCESS_KINDS = {cls: kind for kind, cls in _PROCESSES.items()}


def _action_from_spec(p: _Parser, spec: Any, path: str) -> CorrectiveAction:
    section = p.mapping(spec, path, ("bias", "gain", "resample"))
    return CorrectiveAction(
        **p.scalars(CorrectiveAction, section, path, names=("bias", "gain")),
        resample=p.number(section.get("resample"), f"{path}.resample", None),
    )


def behavior_from_spec(p: _Parser, spec: Any, path: str) -> Optional[Behavior]:
    """A fresh behavior from its document mapping: None when absent, and a
    passive one once a problem is recorded."""
    if spec is None:
        return None
    kind, section = p.kinded(spec, path, _BEHAVIOR_KEYS)
    if kind == "active_non_purposeful":
        schedule = p.sequence(section.get("schedule"), f"{path}.schedule")
        return ActiveNonPurposeful(schedule=tuple(
            _action_from_spec(p, action, f"{path}.schedule[{i}]")
            for i, action in enumerate(schedule)
        ))
    if kind == "purposeful_non_teleological":
        return PurposefulNonTeleological(
            policy=_action_from_spec(p, section.get("policy"), f"{path}.policy")
        )
    if kind in _SCALAR_BEHAVIORS:
        cls = _SCALAR_BEHAVIORS[kind]
        return cls(**p.scalars(cls, section, path))
    return Passive()


def _action_to_spec(action: CorrectiveAction) -> dict:
    spec: dict = {"bias": action.bias, "gain": action.gain}
    if action.resample is not None:
        spec["resample"] = action.resample
    return spec


def behavior_to_spec(behavior: Behavior) -> dict:
    """Inverse of behavior_from_spec, for the effective-config echo."""
    if isinstance(behavior, Passive):
        return {"kind": "passive"}
    if isinstance(behavior, ActiveNonPurposeful):
        return {
            "kind": "active_non_purposeful",
            "schedule": [_action_to_spec(a) for a in behavior.schedule],
        }
    if isinstance(behavior, PurposefulNonTeleological):
        return {
            "kind": "purposeful_non_teleological",
            "policy": _action_to_spec(behavior.policy),
        }
    if type(behavior) in _BEHAVIOR_KINDS:
        return {"kind": _BEHAVIOR_KINDS[type(behavior)], **_echo(behavior)}
    raise ConfigurationError(f"cannot serialize behavior {type(behavior).__name__}")


def process_from_spec(p: _Parser, spec: Any, path: str) -> Optional[DriftProcess]:
    """A drift process from its document mapping: None when absent, and a
    constant one once a problem is recorded."""
    if spec is None:
        return None
    kind, section = p.kinded(spec, path, _PROCESS_KEYS)
    if kind == "regime_switching":
        return RegimeSwitching(
            calm=process_from_spec(p, section.get("calm"), f"{path}.calm") or Constant(),
            turbulent=(
                process_from_spec(p, section.get("turbulent"), f"{path}.turbulent")
                or Constant()
            ),
            **p.scalars(RegimeSwitching, section, path),
        )
    cls = _PROCESSES.get(kind, Constant)
    return cls(**p.scalars(cls, section, path))


def process_to_spec(process: DriftProcess) -> dict:
    """Inverse of process_from_spec, for the effective-config echo."""
    kind = _PROCESS_KINDS.get(type(process))
    if kind is None:
        raise ConfigurationError(f"cannot serialize process {type(process).__name__}")
    spec = {"kind": kind, **_echo(process)}
    if isinstance(process, RegimeSwitching):
        spec["calm"] = process_to_spec(process.calm)
        spec["turbulent"] = process_to_spec(process.turbulent)
    return spec


# -- scenario sections ----------------------------------------------------------

#: The class each contract kind names. A kind takes its own levels
#: (``CONTRACT_LEVELS``), and every kind the guard keys.
_CONTRACT_KINDS = {
    "hard": IdentityKind.HARD_RT,
    "soft": IdentityKind.SOFT_RT,
    "best_effort": IdentityKind.BEST_EFFORT,
}
_CONTRACT_KIND_NAMES = {kind: name for name, kind in _CONTRACT_KINDS.items()}
_CONTRACT_KEYS = {
    name: (*(key for key, _ in CONTRACT_LEVELS[kind]), *_keys(ContractSpec) - {"identity"})
    for name, kind in _CONTRACT_KINDS.items()
}
_STRATEGY_KINDS = dict.fromkeys(("reconfigure", "social"), ("id", "behavior", "channel", "action"))
_ACTION_KINDS = dict.fromkeys((k.value for k in SocialActionKind), ("amount", "target"))
_DISPOSITIONS = tuple(s.value for s in SocialBehavior)

#: Where the document keeps each scalar field of Scenario ("" is the top level).
_SCENARIO_SECTIONS = {
    "": ("name", "duration", "dt", "seed"),
    "environment": ("turbulence_threshold", "regime_window"),
    "report": ("antifragility_threshold", "record_identity"),
}


def _contract(p: _Parser, raw: Any, path: str) -> Optional[ContractSpec]:
    if raw is None:
        return None
    name, section = p.kinded(raw, path, _CONTRACT_KEYS)
    # A rejected kind reads as the unconstrained class: validation flags
    # that at this same path, and finds a contract for the detector.
    kind = _CONTRACT_KINDS.get(name, IdentityKind.NON_RT)
    identity = IdentityClass(kind, **{
        field: p.number(section.get(key), f"{path}.{key}", 0.1)
        for key, field in CONTRACT_LEVELS.get(kind, ())
    })
    return ContractSpec(identity=identity, **p.scalars(ContractSpec, section, path))


def _social_action(p: _Parser, raw: Any, path: str) -> Optional[SocialAction]:
    kind, section = p.kinded(raw, path, _ACTION_KINDS)
    amount = p.number(section.get("amount"), f"{path}.amount", None)
    target = p.string(section.get("target"), f"{path}.target", SocialAction.target)
    if kind is None or amount is not None and math.isnan(amount):
        return None
    return SocialAction(
        SocialActionKind(kind),
        amount=SocialAction.amount if amount is None else Fraction(str(amount)),
        target=target,
    )


def _strategy(p: _Parser, raw: Any, path: str) -> Optional[Strategy]:
    kind, section = p.kinded(raw, path, _STRATEGY_KINDS)
    if kind is None:
        return None
    if not section.get("id"):
        p.fail(f"{path}.id", "strategy id is required")
        return None
    sid = p.string(section["id"], f"{path}.id", "")
    if kind == "social":
        action = _social_action(p, section.get("action"), f"{path}.action")
        return None if action is None else Strategy(sid, StrategyKind.SOCIAL, social=action)
    channel = None
    if section.get("channel") is not None:
        cpath = f"{path}.channel"
        given = p.mapping(section["channel"], cpath, RESTAGEABLE)
        restaged = [key for key in RESTAGEABLE if given.get(key) is not None]
        channel = p.scalars(ChannelSpec, given, cpath, names=restaged)
    return Strategy(
        sid, StrategyKind.RECONFIGURE,
        behavior=behavior_from_spec(p, section.get("behavior"), f"{path}.behavior"),
        channel=channel,
    )


def _controller(p: _Parser, raw: Any, path: str) -> ControllerSpec:
    section = p.mapping(raw, path, _keys(ControllerSpec))
    catalog = [
        _strategy(p, entry, f"{path}.catalog[{j}]")
        for j, entry in enumerate(p.sequence(section.get("catalog"), f"{path}.catalog"))
    ]
    return ControllerSpec(
        **p.scalars(ControllerSpec, section, path),
        safety=p.spec(SafetyPredicate, section.get("safety"), f"{path}.safety"),
        learning=p.spec(LearningSpec, section.get("learning"), f"{path}.learning"),
        # A catalog holding a rejected entry is left out whole, so that no
        # check on the rest reports under a shifted index.
        catalog=() if None in catalog else tuple(catalog),
    )


def _node(p: _Parser, raw: Any, path: str, index: int) -> NodeSpec:
    section = p.mapping(raw, path, _keys(NodeSpec))
    cpath = f"{path}.channel"
    ch = p.mapping(section.get("channel"), cpath, _keys(ChannelSpec))
    social = section.get("social")
    if social is not None:
        # A rejected disposition reads as neutral, which no other check flags.
        social = SocialBehavior(p.choice(social, f"{path}.social", _DISPOSITIONS) or "neutral")
    detector = section.get("detector")
    controller = section.get("controller")
    return NodeSpec(
        **p.scalars(NodeSpec, section, path, name=f"node{index}"),
        channel=ChannelSpec(
            **p.scalars(ChannelSpec, ch, cpath),
            bias_drift=process_from_spec(p, ch.get("bias_drift"), f"{cpath}.bias_drift"),
        ),
        contract=_contract(p, section.get("contract"), f"{path}.contract"),
        detector=None if detector is None else p.spec(DetectorConfig, detector, f"{path}.detector"),
        behavior=behavior_from_spec(p, section.get("behavior"), f"{path}.behavior") or Passive(),
        social=social,
        controller=None if controller is None else _controller(p, controller, f"{path}.controller"),
    )


def _unreported(problems: list[str], reported: list[str]) -> list[str]:
    """The problems under whose key nothing is reported yet: a value the
    parser rejected is not checked again."""
    rejected = [problem.split(": ", 1)[0] for problem in reported]
    kept = []
    for problem in problems:
        key = problem.split(": ", 1)[0]
        if not any(r == key or r.startswith((f"{key}.", f"{key}[")) for r in rejected):
            kept.append(problem)
    return kept


def parse_config(doc: Any, seed_override: Optional[int] = None) -> Scenario:
    """Build a Scenario from a parsed document; raise with every problem."""
    if not isinstance(doc, dict):
        raise ConfigurationError(["config: expected a mapping"])
    p = _Parser()
    p.mapping(doc, "config", {"schema_version", *_SCENARIO_SECTIONS[""], "environment",
                              "shocks", "pool", "nodes", "report"})
    if doc.get("schema_version") != SCHEMA_VERSION:
        p.fail("config.schema_version",
               f"expected {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    sections = {
        "": doc,
        "environment": p.mapping(doc.get("environment"), "environment",
                                 {"figures", *_SCENARIO_SECTIONS["environment"]}),
        "report": p.mapping(doc.get("report"), "report", _SCENARIO_SECTIONS["report"]),
    }
    values: dict = {}
    for name, keys in _SCENARIO_SECTIONS.items():
        values |= p.scalars(Scenario, sections[name], name, names=keys)

    figures = []
    figure_list = p.sequence(sections["environment"].get("figures"), "environment.figures")
    for i, raw in enumerate(figure_list):
        path = f"environment.figures[{i}]"
        section = p.mapping(raw, path, _keys(FigureSpec))
        process = process_from_spec(p, section.get("process"), f"{path}.process")
        figures.append(FigureSpec(
            **p.scalars(FigureSpec, section, path, name=f"figure{i}"),
            process=process or Constant(),
        ))
    pool = doc.get("pool")
    scenario = Scenario(
        **values,
        figures=figures,
        shocks=[
            p.spec(ShockEvent, raw, f"shocks[{i}]")
            for i, raw in enumerate(p.sequence(doc.get("shocks"), "shocks"))
        ],
        nodes=[
            _node(p, raw, f"nodes[{i}]", i)
            for i, raw in enumerate(p.sequence(doc.get("nodes"), "nodes"))
        ],
        pool=None if pool is None else p.spec(PoolSpec, pool, "pool"),
    )
    if seed_override is not None:
        scenario.seed = seed_override
    problems = p.errors + _unreported(validate_scenario(scenario), p.errors)
    if problems:
        raise ConfigurationError(problems)
    return scenario


def read_text(path) -> str:
    """A text file's contents, decoded as UTF-8 with universal newlines;
    raise a problem naming the file when it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigurationError([f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"])


def load_config(path, seed_override: Optional[int] = None) -> Scenario:
    """Read and parse a scenario file: JSON if its name ends in ``.json``,
    YAML otherwise. Non-finite JSON literals (``NaN``, ``Infinity``) decode
    to floats that ``parse_config`` rejects under their key."""
    text = read_text(path)
    if os.fspath(path).endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError([
                f"config: not parseable JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})"
            ])
    else:
        import yaml  # only here: a process that reads JSON alone never loads it

        # libyaml's safe loader where PyYAML was built with it (several
        # times faster); both decode a document to equal objects.
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        try:
            doc = yaml.load(text, Loader=loader)
        except yaml.YAMLError as exc:
            # One line: the problem and its place, not PyYAML's multi-line report.
            mark = getattr(exc, "problem_mark", None)
            detail = (f"line {mark.line + 1}, column {mark.column + 1}: {exc.problem}"
                      if mark is not None else str(exc).splitlines()[0])
            raise ConfigurationError([f"config: not parseable YAML ({detail})"])
    return parse_config(doc, seed_override=seed_override)


def check_learning_state(doc: Any, source: str) -> dict:
    """A ``--resume`` document (node name -> learning state), checked for
    the shape ``LearningState.load_document`` reads; raise with every
    problem, each named by ``source`` and its path."""
    if not isinstance(doc, dict):
        raise ConfigurationError([f"{source}: expected a node -> state mapping"])
    p = _Parser()
    for node, state in doc.items():
        state = p.mapping(state, node)
        for regime, arms in p.mapping(state.get("regimes"), f"{node}.regimes").items():
            for i, arm in enumerate(p.sequence(arms, f"{node}.regimes.{regime}")):
                path = f"{node}.regimes.{regime}[{i}]"
                if not isinstance(arm, dict):
                    p.fail(path, "expected a mapping")
                    continue
                for key, read in (("strategy_id", p.string), ("pulls", p.integer),
                                  ("mean", p.number)):
                    if arm.get(key) is None:
                        p.fail(f"{path}.{key}", "required")
                    else:
                        read(arm[key], f"{path}.{key}", None)
        for regime, order in p.mapping(state.get("ranks"), f"{node}.ranks").items():
            for j, index in enumerate(p.sequence(order, f"{node}.ranks.{regime}")):
                p.integer(index, f"{node}.ranks.{regime}[{j}]", None)
        p.sequence(state.get("history"), f"{node}.history")
    if p.errors:
        raise ConfigurationError([f"{source}: {problem}" for problem in p.errors])
    return doc


# -- echo ---------------------------------------------------------------------


def _contract_to_config(contract: ContractSpec) -> dict:
    identity = contract.identity
    return _echo(contract) | {"kind": _CONTRACT_KIND_NAMES[identity.kind]} | {
        key: getattr(identity, field) for key, field in CONTRACT_LEVELS[identity.kind]
    }


def _strategy_to_config(strategy: Strategy) -> dict:
    out: dict = {"id": strategy.id, "kind": strategy.kind.value}
    if strategy.behavior is not None:
        out["behavior"] = behavior_to_spec(strategy.behavior)
    if strategy.channel is not None:
        out["channel"] = dict(strategy.channel)
    action = strategy.social
    if action is not None:
        out["action"] = {"kind": action.kind.value, "amount": float(action.amount)}
        if action.target is not None:
            out["action"]["target"] = action.target
    return out


def _node_to_config(node: NodeSpec) -> dict:
    channel = _echo(node.channel)
    if node.channel.bias_drift is not None:
        channel["bias_drift"] = process_to_spec(node.channel.bias_drift)
    entry = _echo(node) | {"channel": channel, "behavior": behavior_to_spec(node.behavior)}
    if node.contract is not None:
        entry["contract"] = _contract_to_config(node.contract)
    if node.detector is not None:
        entry["detector"] = _echo(node.detector)
    if node.social is not None:
        entry["social"] = node.social.value
    if node.controller is not None:
        ctrl = node.controller
        entry["controller"] = _echo(ctrl) | {
            "safety": _echo(ctrl.safety),
            "learning": _echo(ctrl.learning),
            "catalog": [_strategy_to_config(s) for s in ctrl.catalog],
        }
    return entry


def scenario_to_config(scenario: Scenario) -> dict:
    """Canonical, fully-defaulted document for this scenario."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "environment": {
            "figures": [
                _echo(f) | {"process": process_to_spec(f.process)} for f in scenario.figures
            ],
        },
        "shocks": [_echo(s) for s in scenario.shocks],
        "report": {},
        "nodes": [_node_to_config(node) for node in scenario.nodes],
    }
    for section, keys in _SCENARIO_SECTIONS.items():
        (doc[section] if section else doc).update({k: getattr(scenario, k) for k in keys})
    if scenario.pool is not None:
        doc["pool"] = _echo(scenario.pool)
    return doc
