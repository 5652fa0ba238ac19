"""Golden export digests: the same scenario and seed give the same bytes
across versions of the code, not only across reruns (criterion 9).

Two corpora, each a SHA-256 digest of every file ``export_run`` writes:

* ``pool_population.json``: the criterion-8 diverse design mix at 32 nodes
  over an exact-rational pool, at two seeds; the individualistic nodes
  drain the reserve and then the other members' slack, so the pool's
  pro-rata path is exercised.
* ``scenarios.json``: ``configs/demo.yaml``, the criterion-6 two-arm
  scenario at seed 0, the criterion-7 ladder cut to its first 8 shocks
  with learning on and off at seeds 0 and 1, the criterion-9
  determinism scenario, the benchmark's population mix at 24 nodes (hard,
  soft and best-effort contracts, detectors that fire and reset), once
  with the identity timeline, a drifting-bias channel beside a node
  that reconfigures its channel and one that resamples, and guarded nodes
  in contract groups that differ in one field each (window, threshold,
  at-risk margin, detector window). These are
  exported as ``fidelity-lab run`` writes them, with the config echo in
  ``report.json``.

Runs that record the identity timeline also pin it, under ``identities``.
A change that moves a digest must say why in CHANGES.md.

``PYTHONPATH=src python tests/test_golden.py`` recomputes both files and
prints each digest that would move (``file: entry: export``); it exits 1
if any would, and writes nothing. Add ``--write`` to record the new
digests in both files.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import _determinism_scenario, _ladder_scenario, _two_arm_scenario

from fidelitylab.behavior import ActiveNonPurposeful, CorrectiveAction, Predictive, Reactive
from fidelitylab.collective import SocialBehavior
from fidelitylab.config import load_config, scenario_to_config
from fidelitylab.controller import Strategy, StrategyKind
from fidelitylab.engine import (
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    PoolSpec,
    Scenario,
    run_scenario,
)
from fidelitylab.environment import RandomWalk, ShockEvent
from fidelitylab.identity import DetectorConfig, IdentityClass
from fidelitylab.reporting import export_run

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "pool_population.json")
SCENARIO_GOLDEN = os.path.join(HERE, "golden", "scenarios.json")
DEMO = os.path.join(HERE, os.pardir, "configs", "demo.yaml")
SEEDS = (202, 505)
NODES = 32


def _design(group):
    """The criterion-8 diverse mix: two of each disposition-behavior pair."""
    behavior = Predictive(k=1, window=8) if group in (2, 3) else Reactive(feedback_gain=1.0)
    social = (
        SocialBehavior.COOPERATIVE if group < 4
        else SocialBehavior.NEUTRAL if group < 6
        else SocialBehavior.INDIVIDUALISTIC
    )
    return behavior, social


def pool_population(seed):
    hit = np.random.default_rng(seed).choice(8, size=4, replace=False)
    nodes = []
    for i in range(NODES):
        behavior, social = _design(i % 8)
        nodes.append(NodeSpec(
            name=f"n{i}", figure=i % 8,
            channel=ChannelSpec(gain=1.1, nominal_gain=1.0, sampling_period=0.1),
            contract=ContractSpec(identity=IdentityClass.hard(0.1), window=20),
            behavior=behavior, social=social, member=True,
        ))
    return Scenario(
        name="pool_population", duration=20.0, dt=0.1, seed=seed, record_identity=False,
        figures=[FigureSpec(name=f"f{i}", initial=0.0) for i in range(8)],
        shocks=[
            ShockEvent(at=5.0 + 0.1 * i, figure=int(figure), magnitude=10.0,
                       recovery_window=10.0)
            for i, figure in enumerate(sorted(hit))
        ],
        # The criterion-8 share per node, with the pool grown to the population.
        pool=PoolSpec(total=NODES / 8, join_allocation=0.1, solo_capacity=0.0,
                      floor=0.1, assist_quantum=0.02, calm_window=600),
        nodes=nodes,
    )


#: The benchmark's population contracts, cycled over the design groups.
MIX_CONTRACTS = (
    IdentityClass.hard(0.1),
    IdentityClass.soft(0.05, 0.05),
    IdentityClass.best_effort(0.1),
)


def population_mix(record_identity):
    """The benchmark's population mix at 24 nodes over 20 s: both the
    contract windows (20) and the detector windows (100) wrap, and the
    detectors on the hard and soft nodes fire and reset."""
    nodes = []
    for i in range(24):
        group = i % 8
        behavior, social = _design(group)
        identity = MIX_CONTRACTS[group % 3]
        nodes.append(NodeSpec(
            name=f"n{i}", figure=i % 8,
            channel=ChannelSpec(gain=1.1, nominal_gain=1.0, sampling_period=0.1),
            contract=ContractSpec(identity=identity, window=20),
            detector=None if identity.acceptability_bound else DetectorConfig(),
            behavior=behavior, social=social, member=True,
        ))
    return Scenario(
        name="population_mix", duration=20.0, dt=0.1, seed=7,
        record_identity=record_identity,
        figures=[FigureSpec(name=f"f{i}", initial=0.0) for i in range(8)],
        shocks=[
            ShockEvent(at=at + 0.1 * i, figure=figure, magnitude=10.0, recovery_window=6.0)
            for at, hit in ((2.0, (1, 2, 5, 6)), (11.0, (0, 3, 4, 7)))
            for i, figure in enumerate(hit)
        ],
        pool=PoolSpec(total=3.0, join_allocation=0.1, solo_capacity=0.0,
                      floor=0.1, assist_quantum=0.02, calm_window=600),
        nodes=nodes,
    )


def channel_changes():
    """A channel whose bias drifts every tick, a learning node whose catalog
    restages its channel's gain and sampling period, and a node whose
    behavior resamples its channel."""
    catalog = (
        Strategy(id="retune", kind=StrategyKind.RECONFIGURE,
                 channel={"gain": 1.3, "sampling_period": 0.2}),
        Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(feedback_gain=1.0),
                 channel={"gain": 1.05, "sampling_period": 0.1}),
    )
    return Scenario(
        name="channel_changes", duration=60.0, dt=0.1, seed=3,
        figures=[FigureSpec(name="load", initial=1.0, process=RandomWalk(std=0.02)),
                 FigureSpec(name="heat", initial=0.0)],
        shocks=[ShockEvent(at=5.0 + 7.0 * i, figure=int(i % 3 == 2), magnitude=5.0,
                           recovery_window=6.0) for i in range(8)],
        nodes=[
            NodeSpec(
                name="drifting",
                channel=ChannelSpec(noise_std=0.01, sampling_period=0.1,
                                    bias_drift=RandomWalk(std=0.05)),
                contract=ContractSpec(identity=IdentityClass.soft(0.03, 0.03), window=30),
                detector=DetectorConfig(window=40),
                behavior=Reactive(feedback_gain=0.5),
            ),
            NodeSpec(
                name="retuning", figure=0,
                channel=ChannelSpec(gain=1.2, nominal_gain=1.0, noise_std=0.01,
                                    sampling_period=0.1),
                contract=ContractSpec(identity=IdentityClass.hard(0.1), window=20),
                behavior=Reactive(feedback_gain=0.2),
                controller=ControllerSpec(hysteresis=5, catalog=catalog),
            ),
            NodeSpec(
                name="resampling", figure=1,
                channel=ChannelSpec(gain=1.1, nominal_gain=1.0, sampling_period=0.1),
                contract=ContractSpec(identity=IdentityClass.best_effort(0.2), window=25),
                behavior=ActiveNonPurposeful(schedule=(
                    CorrectiveAction(bias=0.01, resample=0.3),
                    CorrectiveAction(bias=-0.01),
                    CorrectiveAction(resample=0.1),
                )),
            ),
        ],
    )


def contract_groups():
    """Guarded nodes in contract groups that differ in one field each:
    window, threshold or at-risk margin, and detector windows shorter than,
    equal to and longer than the contract window. Rows of one group sit on
    different figures, so their detectors reset on different ticks, while
    nodes of different groups share a figure and fire on the same tick.
    Also a best-effort node whose detector is withheld, a node without a
    contract, and a learning node inside a group."""
    def guarded(name, figure, identity, window=20, margin=0.8, detector=None, **kwargs):
        return NodeSpec(
            name=name, figure=figure,
            channel=ChannelSpec(gain=1.1, nominal_gain=1.0, noise_std=0.01,
                                sampling_period=0.1),
            contract=ContractSpec(identity=identity, window=window, at_risk_margin=margin),
            detector=None if detector is None else DetectorConfig(window=detector),
            behavior=kwargs.pop("behavior", Reactive(feedback_gain=0.5)), **kwargs,
        )

    hard, soft = IdentityClass.hard(0.1), IdentityClass.soft(0.04, 0.05)
    catalog = (
        Strategy(id="firm", kind=StrategyKind.RECONFIGURE, behavior=Reactive(feedback_gain=1.0)),
        Strategy(id="gentle", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(feedback_gain=0.05)),
    )
    return Scenario(
        name="contract_groups", duration=40.0, dt=0.1, seed=11,
        figures=[FigureSpec(name="a", initial=0.0),
                 FigureSpec(name="b", initial=0.0, process=RandomWalk(std=0.01)),
                 FigureSpec(name="c", initial=1.0)],
        shocks=[ShockEvent(at=3.0 + 4.3 * i, figure=i % 3, magnitude=4.0 - 7.0 * (i % 2),
                           recovery_window=4.0) for i in range(8)],
        nodes=[
            guarded("short0", 0, hard, detector=10),
            guarded("equal0", 0, hard, detector=20),
            guarded("long0", 0, hard, detector=40),
            guarded("long1", 1, hard, detector=40, behavior=Reactive(feedback_gain=0.3)),
            guarded("long2", 2, hard, detector=40),
            guarded("tight0", 0, IdentityClass.hard(0.08), detector=40),
            guarded("wide1", 1, hard, window=30, detector=40),
            guarded("margin2", 2, hard, margin=0.5, detector=40),
            guarded("soft0", 0, soft, detector=15),
            guarded("soft1", 1, soft, detector=15, behavior=Predictive(k=1, window=8)),
            guarded("soft2", 2, soft, window=12, detector=100),
            guarded("best1", 1, IdentityClass.best_effort(0.1), detector=20),
            NodeSpec(name="free2", figure=2, behavior=Reactive(feedback_gain=0.5)),
            guarded("learner2", 2, hard, detector=40,
                    controller=ControllerSpec(hysteresis=5, catalog=catalog)),
        ],
    )


def _ladder_cut(seed, learning_enabled):
    scenario = _ladder_scenario(seed, learning_enabled)
    return replace(scenario, duration=225.0, shocks=scenario.shocks[:8])


SCENARIOS = {
    "demo": lambda: load_config(DEMO),
    "two_arm_seed0": lambda: _two_arm_scenario(0),
    "ladder_learn_seed0": lambda: _ladder_cut(0, True),
    "ladder_fixed_seed0": lambda: _ladder_cut(0, False),
    "ladder_learn_seed1": lambda: _ladder_cut(1, True),
    "ladder_fixed_seed1": lambda: _ladder_cut(1, False),
    "det": _determinism_scenario,
    "population_mix": lambda: population_mix(False),
    "population_mix_identity": lambda: population_mix(True),
    "channel_changes": channel_changes,
    "contract_groups": contract_groups,
}


def digests(scenario, echo=False):
    """SHA-256 of every exported file, plus ``identities`` for a run that
    records the identity timeline, which no export carries."""
    with tempfile.TemporaryDirectory() as outdir:
        result = run_scenario(scenario)
        if echo:
            result.config_echo = scenario_to_config(scenario)
        found = {
            os.path.basename(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in export_run(result, outdir)
        }
    if scenario.record_identity and scenario.nodes:
        timeline = "".join(
            f"{name},{label}\n"
            for name, trace in result.traces.items()
            for label in trace.identities
        )
        found["identities"] = hashlib.sha256(timeline.encode()).hexdigest()
    return found


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_pool_population_exports_match_golden_digests():
    golden = _load(GOLDEN)
    for seed in SEEDS:
        assert digests(pool_population(seed)) == golden[str(seed)], f"seed {seed}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_exports_match_golden_digests(name):
    assert digests(SCENARIOS[name](), echo=True) == _load(SCENARIO_GOLDEN)[name]


def _write(path, document):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def corpora():
    """Both digest files as this code computes them: path -> document."""
    return {
        GOLDEN: {str(seed): digests(pool_population(seed)) for seed in SEEDS},
        SCENARIO_GOLDEN: {
            name: digests(build(), echo=True) for name, build in SCENARIOS.items()
        },
    }


def moved(old, new):
    """``entry: export`` for every digest that differs, appears or goes."""
    return [
        f"{entry}: {name}"
        for entry in sorted(old.keys() | new.keys())
        for name in sorted(old.get(entry, {}).keys() | new.get(entry, {}).keys())
        if old.get(entry, {}).get(name) != new.get(entry, {}).get(name)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Check or rewrite the golden digests.")
    parser.add_argument("--write", action="store_true", help="record the new digests")
    args = parser.parse_args(argv)
    count = 0
    for path, document in corpora().items():
        old = _load(path) if os.path.exists(path) else {}
        for line in moved(old, document):
            print(f"{os.path.basename(path)}: {line}")
            count += 1
        if args.write:
            _write(path, document)
    if count and not args.write:
        print(f"error: {count} golden digests would move; rerun with --write "
              "to record them", file=sys.stderr)
        return 1
    return 0


def test_regeneration_reports_moves_and_writes_only_when_asked(tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden.json"
    _write(str(path), {"kept": {"a.csv": "1"}, "gone": {"a.csv": "2"}})
    before = path.read_text()
    document = {"kept": {"a.csv": "1", "b.csv": "3"}, "new": {"a.csv": "4"}}
    monkeypatch.setattr(sys.modules[__name__], "corpora", lambda: {str(path): document})
    assert main([]) == 1
    assert capsys.readouterr().out == (
        "golden.json: gone: a.csv\ngolden.json: kept: b.csv\ngolden.json: new: a.csv\n"
    )
    assert path.read_text() == before
    assert main(["--write"]) == 0
    assert _load(str(path)) == document
    capsys.readouterr()
    assert main([]) == 0
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(main())
