"""Scenario files for the benchmark's workloads, generated from a seed.

Each workload is one round of runs that a pass repeats. A round holds the
workload proper (the large runs) and a scaled-down companion of each (the
small runs), so that the cost per node-tick can be compared across scale
(``node_tick_growth``).

* ``ladder``: the criterion-7 ladder with learning on (1 node, 9,050
  ticks, 30 alternating shocks, 20-arm reactive catalog, hard contract, no
  pool, no identity timeline). Its companion is the same design over a
  quarter of the horizon (2,250 ticks, 8 shocks).
* ``population``: the criterion-8 diverse design mix at 128 nodes, with an
  8-node companion. Contract kinds cycle hard / soft / best_effort by
  design group; detectors guard the hard and soft nodes. Four partial
  shocks hit figures drawn from the seed; the round also runs the
  complementary four, so every round shocks every design group once and
  the work per round does not hinge on which groups the draw hit.
* ``demo``: ``configs/demo.yaml`` as shipped, with a companion over its
  first quarter (one shock).

The program only ever sees the files written here; run seeds are passed on
its command line.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import yaml

WORKLOADS = ("ladder", "population", "demo")

LADDER_GAINS = [0.01, 0.0116, 0.0133, 0.0151, 0.0171, 0.0194, 0.0218, 0.0246,
                0.0277, 0.0314, 0.0356, 0.0407, 0.047, 0.055, 0.0657, 0.081,
                0.1053, 0.1501, 0.261, 1.0]

#: The criterion-8 diverse mix: (behavior, social disposition) per group.
POPULATION_DESIGNS = [
    ({"kind": "reactive", "gain": 1.0}, "cooperative"),
    ({"kind": "reactive", "gain": 1.0}, "cooperative"),
    ({"kind": "predictive", "k": 1, "window": 8}, "cooperative"),
    ({"kind": "predictive", "k": 1, "window": 8}, "cooperative"),
    ({"kind": "reactive", "gain": 1.0}, "neutral"),
    ({"kind": "reactive", "gain": 1.0}, "neutral"),
    ({"kind": "reactive", "gain": 1.0}, "individualistic"),
    ({"kind": "reactive", "gain": 1.0}, "individualistic"),
]

#: Contract kinds cycle over the design groups; detectors go on the first two.
POPULATION_CONTRACTS = [
    {"kind": "hard", "threshold": 0.1, "window": 20},
    {"kind": "soft", "mean": 0.05, "std": 0.05, "window": 20},
    {"kind": "best_effort", "bound": 0.1, "window": 20},
]

POPULATION_SIZES = (8, 128)
POPULATION_DURATION = 10.0
#: 8-node runs per 128-node run, so both sides of node_tick_growth get samples.
POPULATION_SMALL_REPEATS = 8
LADDER_DURATION = 905.0
SMALL_LADDER_DURATION = 225.0
SMALL_DEMO_DURATION = 50.0


@dataclass(frozen=True)
class RunSpec:
    """One closed-loop `fidelity-lab run` of a scenario file."""

    config: str
    nodes: int
    ticks: int
    shocks: int
    large: bool  # the workload proper, as opposed to its scaled-down companion


def run_seed(seed: int, index: int) -> int:
    """Seed of the index-th round of a pass: consecutive within a pass."""
    return seed * 1000 + index


def ladder_doc(seed: int, duration: float = LADDER_DURATION) -> dict:
    shocks = []
    magnitude = 10.0
    for i in range(30):
        shocks.append({"at": 5.0 + i * 30.0, "figure": 0,
                       "magnitude": magnitude, "recovery_window": 8.0})
        magnitude = -magnitude
    doc = {
        "schema_version": 1,
        "name": "ladder",
        "duration": LADDER_DURATION,
        "dt": 0.1,
        "seed": seed,
        "environment": {"figures": [{"name": "load", "initial": 0.0}]},
        "shocks": shocks,
        "nodes": [{
            "name": "n0",
            "channel": {"gain": 1.1, "nominal_gain": 1.0, "noise_std": 0.01,
                        "sampling_period": 0.1},
            "contract": {"kind": "hard", "threshold": 0.1, "window": 20},
            "behavior": {"kind": "reactive", "gain": 0.2},
            "controller": {
                "hysteresis": 10,
                "learning": {"enabled": True, "algorithm": "ucb1"},
                "catalog": [
                    {"id": f"effort{i:02d}", "kind": "reconfigure",
                     "behavior": {"kind": "reactive", "gain": gain}}
                    for i, gain in enumerate(LADDER_GAINS)
                ],
            },
        }],
        "report": {"record_identity": False},
    }
    return truncate(doc, duration)


def population_hits(seed: int) -> tuple[list[int], list[int]]:
    """Four figures drawn from the seed, and the other four."""
    hit = sorted(random.Random(seed).sample(range(8), 4))
    return hit, [f for f in range(8) if f not in hit]


def population_doc(seed: int, hit: list[int], nodes: int) -> dict:
    node_docs = []
    for i in range(nodes):
        group = i % len(POPULATION_DESIGNS)
        behavior, social = POPULATION_DESIGNS[group]
        contract = POPULATION_CONTRACTS[group % len(POPULATION_CONTRACTS)]
        node = {
            "name": f"n{i}",
            "figure": i % 8,
            "channel": {"gain": 1.1, "nominal_gain": 1.0, "sampling_period": 0.1},
            "contract": dict(contract),
            "behavior": dict(behavior),
            "social": social,
            "member": True,
        }
        if contract["kind"] != "best_effort":
            node["detector"] = {"slack": 0.02, "threshold": 0.2}
        node_docs.append(node)
    return {
        "schema_version": 1,
        "name": f"population{nodes}",
        "duration": POPULATION_DURATION,
        "dt": 0.1,
        "seed": seed,
        "environment": {"figures": [{"name": f"f{i}", "initial": 0.0} for i in range(8)]},
        "shocks": [
            {"at": 2.0 + 0.1 * i, "figure": figure, "magnitude": 10.0,
             "recovery_window": 6.0}
            for i, figure in enumerate(hit)
        ],
        # The pool grows with the population, so each node's share is the
        # criterion-8 share at every size.
        "pool": {"total": nodes / 8, "join_allocation": 0.1, "solo_capacity": 0.0,
                 "floor": 0.1, "assist_quantum": 0.02, "calm_window": 600},
        "nodes": node_docs,
        "report": {"record_identity": False},
    }


def truncate(doc: dict, duration: float) -> dict:
    """The same scenario over a shorter horizon, keeping whole episodes only."""
    short = dict(doc)
    short["duration"] = duration
    short["shocks"] = [
        s for s in doc.get("shocks", [])
        if s["at"] + s["recovery_window"] <= duration
    ]
    return short


def _spec(path: str, doc: dict, large: bool) -> RunSpec:
    ticks = round(doc["duration"] / doc.get("dt", 0.1))
    return RunSpec(path, len(doc["nodes"]), ticks, len(doc.get("shocks", [])), large)


def _write(workdir: str, name: str, doc: dict, large: bool) -> RunSpec:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return _spec(path, doc, large)


def generate(workload: str, seed: int, root: str, workdir: str) -> list[RunSpec]:
    """Write the workload's scenario files; return the runs of one round."""
    if workload == "ladder":
        small = ladder_doc(seed, SMALL_LADDER_DURATION)
        large = ladder_doc(seed)
        return [
            _write(workdir, "ladder-quarter.json", small, large=False),
            _write(workdir, "ladder.json", large, large=True),
        ]
    if workload == "population":
        runs = []
        for half, hit in zip(("drawn", "rest"), population_hits(seed)):
            small_nodes, large_nodes = POPULATION_SIZES
            small = _write(workdir, f"population{small_nodes}-{half}.json",
                           population_doc(seed, hit, small_nodes), large=False)
            large = _write(workdir, f"population{large_nodes}-{half}.json",
                           population_doc(seed, hit, large_nodes), large=True)
            runs.extend([small] * POPULATION_SMALL_REPEATS + [large])
        return runs
    if workload == "demo":
        shipped = os.path.join(root, "configs", "demo.yaml")
        with open(shipped, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        return [
            _write(workdir, "demo-quarter.json", truncate(doc, SMALL_DEMO_DURATION), large=False),
            _spec(shipped, doc, large=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")
