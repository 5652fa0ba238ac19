"""Outside-in tracer: spans around the calls into each fidelitylab layer.

The tracer patches callables by name where they are called from. Modules
that bind names with ``from … import`` (``fidelitylab.engine``,
``fidelitylab.cli``) are patched at those bindings; calls a module makes to
its own functions (``identity.check_contract`` from the detector) are
patched in that module; class attributes (pool operations, the ``reserve``
property, bandit select/update, the mode switch, the detector and each
behavior's ``act``) are patched on the class.

Each call becomes a span: name, start, end, parent span and run id, kept in
flat arrays in memory and written out when the pass ends. A target that is
not found is reported as absent, so a refactor of the program loses one
span, not the benchmark. Uninstalling restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional, Sequence

import numpy as np

#: Contract kinds as the per-kind span names spell them.
_KIND_NAMES = {"HARD_RT": "hard", "SOFT_RT": "soft", "BEST_EFFORT": "best_effort"}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    span: str
    namer: Optional[Callable] = None   # (tracer, args, kwargs) -> span name or None
    before: Optional[Callable] = None  # (args, kwargs) -> token handed to after
    after: Optional[Callable] = None   # (tracer, args, kwargs, result, token) -> None


# -- hooks: counts taken at the same boundaries as the spans ------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _contract_kind_span(base):
    def namer(tracer, args, kwargs):
        kind = _arg(args, kwargs, 1, "contract").kind
        return f"{base}.{_KIND_NAMES.get(kind.name, kind.name.lower())}"
    return namer


def _count_samples(tracer, args, kwargs, result, token):
    window = args[0] if args else next(iter(kwargs.values()))
    tracer.counters["identity.samples_scanned"] += len(window)


def _count_states(tracer, args, kwargs, result, token):
    history = _arg(args, kwargs, 0, "history")
    tracer.counters["environment.label_regime.states_scanned"] += len(history)


def _count_fired(tracer, args, kwargs, result, token):
    tracer.counters["identity.detector_update.fired"] += result is not None


def _count_fallback(tracer, args, kwargs, result, token):
    tracer.counters["behavior.predictive.fallbacks"] += bool(getattr(result, "fallback", False))


def _count_accepted(tracer, args, kwargs, result, token):
    tracer.counters["collective.apply_social_action.accepted"] += bool(result)


def _mode_before(args, kwargs):
    return args[0].mode


def _count_mode(tracer, args, kwargs, result, token):
    tracer.counters["controller.mode_switches"] += result is not token
    tracer.counters["controller.resilient_steps"] += result.name == "RESILIENT"


def _count_bytes(tracer, args, kwargs, result, token):
    tracer.counters["reporting.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _execute_span(tracer, args, kwargs):
    # Only the calibration pre-run gets a span of its own: the main run's
    # tick loop is then the self time of engine.run_scenario.
    return "engine.calibration" if kwargs.get("passive_override") else None


def _count_node_ticks(tracer, args, kwargs, result, token):
    scenario = args[0]
    node_ticks = round(scenario.duration / scenario.dt) * len(scenario.nodes)
    key = "engine.calibration_node_ticks" if kwargs.get("passive_override") else "engine.node_ticks"
    tracer.counters[key] += node_ticks


def default_targets() -> list[Target]:
    """Every layer boundary the benchmark traces."""
    engine = "fidelitylab.engine"
    targets = [
        Target(engine, "step_environment", "environment.step_environment"),
        Target(engine, "label_regime", "environment.label_regime", after=_count_states),
        Target(engine, "sense", "reflection.sense"),
        Target(engine, "classify_trace", "identity.classify_trace"),
        Target(engine, "monitor_step", "controller.monitor_step"),
        Target(engine, "assess_safety", "controller.assess_safety"),
        Target(engine, "decide_social_action", "collective.decide_social_action"),
        Target(engine, "apply_social_action", "collective.apply_social_action",
               after=_count_accepted),
        Target(engine, "episode_cost", "engine.episode_cost"),
        Target(engine, "compute_recovery_metrics", "engine.compute_recovery_metrics"),
        Target(engine, "antifragility_score", "engine.antifragility_score"),
        Target(engine, "_execute", "engine.calibration", namer=_execute_span,
               after=_count_node_ticks),
        Target("fidelitylab.cli", "load_config", "config.load_config"),
        Target("fidelitylab.cli", "scenario_to_config", "config.scenario_to_config"),
        Target("fidelitylab.cli", "run_scenario", "engine.run_scenario"),
        Target("fidelitylab.cli", "export_run", "reporting.export_run"),
        Target("fidelitylab.identity:IdentityFailureDetector", "update",
               "identity.detector_update", after=_count_fired),
        Target("fidelitylab.controller:LearningState", "select", "controller.select"),
        Target("fidelitylab.controller:LearningState", "update", "controller.update"),
        Target("fidelitylab.controller:ModeController", "step", "controller.mode_step",
               before=_mode_before, after=_count_mode),
    ]
    # The engine's own bindings and the identity module's internal calls
    # (the detector's check, check_contract's utilization pass).
    for owner in (engine, "fidelitylab.identity"):
        targets.append(Target(owner, "check_contract", "identity.check_contract",
                              namer=_contract_kind_span("identity.check_contract"),
                              after=_count_samples))
        targets.append(Target(owner, "contract_utilization", "identity.contract_utilization",
                              after=_count_samples))
    for op in ("free_capacity", "reserve", "grab", "assist", "join", "leave", "conserved"):
        targets.append(Target("fidelitylab.collective:ResourcePool", op, f"collective.pool.{op}"))
    for name in ("write_ticks_csv", "write_episodes_csv", "write_pool_csv",
                 "write_report_json", "write_learning_state"):
        targets.append(Target("fidelitylab.reporting", name, f"reporting.{name}",
                              after=_count_bytes))
    targets.extend(_behavior_targets())
    return targets


def _snake(name: str) -> str:
    return "".join(f"_{c.lower()}" if c.isupper() and i else c.lower()
                   for i, c in enumerate(name))


def _behavior_targets() -> list[Target]:
    try:
        behavior = importlib.import_module("fidelitylab.behavior")
        base = behavior.Behavior
    except (ImportError, AttributeError):
        return [Target("fidelitylab.behavior:Behavior", "act", "behavior.act")]
    targets = []
    for cls in sorted(base.__subclasses__(), key=lambda c: c.__name__):
        kind = _snake(cls.__name__)
        targets.append(Target(
            f"{cls.__module__}:{cls.__qualname__}", "act", f"behavior.{kind}.act",
            after=_count_fallback if kind == "predictive" else None,
        ))
    return targets


# -- the tracer ---------------------------------------------------------------


class Tracer:
    """Span recorder; ``with Tracer(targets):`` installs and uninstalls."""

    def __init__(self, targets: Optional[Sequence[Target]] = None):
        self.targets = list(default_targets() if targets is None else targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def begin(self, name: str) -> int:
        """Open a span by hand (the benchmark's per-run root span)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        fixed = self.name_id(target.span)
        namer, before, after = target.namer, target.before, target.after
        ids, stack = self._ids, self._stack
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if namer is None:
                nid = fixed
            else:
                span = namer(tracer, args, kwargs)
                if span is None:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(tracer, args, kwargs, result, None)
                    return result
                nid = ids.get(span)
                if nid is None:
                    nid = tracer.name_id(span)
            token = before(args, kwargs) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result, token)
            return result

        return traced

    # -- install / uninstall --------------------------------------------------

    def _resolve(self, owner: str):
        module_name, _, class_name = owner.partition(":")
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            return None
        for part in filter(None, class_name.split(".")):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def install(self) -> None:
        for target in self.targets:
            owner = self._resolve(target.owner)
            if owner is None or not hasattr(owner, target.attr):
                self.absent.append(f"{target.owner}.{target.attr}")
                continue
            own = isinstance(owner, type) and target.attr in owner.__dict__
            original = owner.__dict__[target.attr] if own else getattr(owner, target.attr)
            if isinstance(original, property):
                patched = property(self.wrap(original.fget, target), original.fset,
                                   original.fdel, original.__doc__)
            elif callable(original):
                patched = self.wrap(original, target)
            else:
                self.absent.append(f"{target.owner}.{target.attr}")
                continue
            self._patches.append((owner, target.attr, original,
                                  own or not isinstance(owner, type)))
            setattr(owner, target.attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s."""
        return span_summary(self.names, self.name, self.parent, self.start, self.end)

    def write(self, path: str) -> None:
        """Write every span (name, start, end, parent, run) as a .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def span_summary(names, name, parent, start, end) -> dict[str, dict[str, float]]:
    """Calls, inclusive time and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    children = np.zeros(len(duration), dtype=np.int64)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    own = duration - children
    size = len(names)
    calls = np.bincount(name, minlength=size)
    total = np.bincount(name, weights=duration, minlength=size)
    self_ns = np.bincount(name, weights=own, minlength=size)
    return {
        label: {
            "calls": int(calls[i]),
            "total_s": float(total[i]) / 1e9,
            "self_s": float(self_ns[i]) / 1e9,
        }
        for i, label in enumerate(names)
    }
