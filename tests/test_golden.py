"""Golden export digests: the same scenario and seed give the same bytes
across versions of the code, not only across reruns (criterion 9).

Two corpora, each a SHA-256 digest of every file ``export_run`` writes:

* ``pool_population.json``: the criterion-8 diverse design mix at 32 nodes
  over an exact-rational pool, at two seeds; the individualistic nodes
  drain the reserve and then the other members' slack, so the pool's
  pro-rata path is exercised.
* ``scenarios.json``: ``configs/demo.yaml``, the criterion-6 two-arm
  scenario at seed 0, the criterion-7 ladder cut to its first 8 shocks
  with learning on and off at seeds 0 and 1, and the criterion-9
  determinism scenario. These are exported as ``fidelity-lab run`` writes
  them, with the config echo in ``report.json``.

A change that moves a digest must say why in CHANGES.md. Regenerate both
files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import _determinism_scenario, _ladder_scenario, _two_arm_scenario

from fidelitylab.behavior import Predictive, Reactive
from fidelitylab.collective import SocialBehavior
from fidelitylab.config import load_config, scenario_to_config
from fidelitylab.engine import (
    ChannelSpec,
    ContractSpec,
    FigureSpec,
    NodeSpec,
    PoolSpec,
    Scenario,
    run_scenario,
)
from fidelitylab.environment import ShockEvent
from fidelitylab.identity import IdentityClass
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
}


def digests(scenario, echo=False):
    with tempfile.TemporaryDirectory() as outdir:
        result = run_scenario(scenario)
        if echo:
            result.config_echo = scenario_to_config(scenario)
        return {
            os.path.basename(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in export_run(result, outdir)
        }


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


if __name__ == "__main__":
    _write(GOLDEN, {str(seed): digests(pool_population(seed)) for seed in SEEDS})
    _write(SCENARIO_GOLDEN, {
        name: digests(build(), echo=True) for name, build in SCENARIOS.items()
    })
