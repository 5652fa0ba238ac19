"""Golden export digests: the same scenario and seed give the same bytes
across versions of the code, not only across reruns (criterion 9).

The corpus is the criterion-8 diverse design mix at 32 nodes over an
exact-rational pool, at two seeds; the individualistic nodes drain the
reserve and then the other members' slack, so the pool's pro-rata path is
exercised. A change that moves a digest must say why in CHANGES.md.
Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from fidelitylab.behavior import Predictive, Reactive
from fidelitylab.collective import SocialBehavior
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

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pool_population.json")
SEEDS = (202, 505)
NODES = 32
EXPORTS = ("ticks.csv", "episodes.csv", "report.json", "pool.csv")


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


def digests(seed):
    with tempfile.TemporaryDirectory() as outdir:
        export_run(run_scenario(pool_population(seed)), outdir)
        return {
            name: hashlib.sha256(Path(outdir, name).read_bytes()).hexdigest()
            for name in EXPORTS
        }


def test_pool_population_exports_match_golden_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for seed in SEEDS:
        assert digests(seed) == golden[str(seed)], f"seed {seed}"


if __name__ == "__main__":
    document = {str(seed): digests(seed) for seed in SEEDS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
