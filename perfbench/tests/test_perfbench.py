"""Tests of the benchmark itself: span arithmetic, generators, tracer hygiene.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import signal
from collections import defaultdict

import pytest

import run
import tracer as tracer_mod
import workloads
import yardstick
from fidelitylab import cli
from fidelitylab.config import load_config
from tracer import Target, Tracer, span_summary

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- self time ------------------------------------------------------------------


def test_self_time_of_a_nested_call_tree():
    # run [0, 100] > a [10, 40] > a.inner [15, 25]; run > b [50, 90];
    # b > a [60, 70]  (the same name at two depths)
    names = ["run", "a", "a.inner", "b"]
    name = [0, 1, 2, 3, 1]
    parent = [-1, 0, 1, 0, 3]
    start = [0, 10, 15, 50, 60]
    end = [100, 40, 25, 90, 70]
    summary = span_summary(names, name, parent, start, end)
    ns = 1e-9
    assert summary["run"]["self_s"] == pytest.approx((100 - 30 - 40) * ns)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["total_s"] == pytest.approx(40 * ns)
    assert summary["a"]["self_s"] == pytest.approx((30 - 10 + 10) * ns)
    assert summary["a.inner"]["self_s"] == pytest.approx(10 * ns)
    assert summary["b"]["self_s"] == pytest.approx((40 - 10) * ns)
    total_self = sum(s["self_s"] for s in summary.values())
    assert total_self == pytest.approx(summary["run"]["total_s"])


def test_recorded_spans_nest_and_sum_to_the_root():
    tr = Tracer(targets=[])
    root = tr.begin("run")
    inner = tr.begin("inner")
    tr.finish(inner)
    tr.finish(root)
    assert list(tr.parent) == [-1, 0]
    summary = tr.summary()
    assert summary["run"]["self_s"] + summary["inner"]["self_s"] == pytest.approx(
        summary["run"]["total_s"])


# -- workload generators -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_and_valid(workload, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    runs = workloads.generate(workload, 3, ROOT, str(first))
    again = workloads.generate(workload, 3, ROOT, str(second))
    workloads.generate(workload, 4, ROOT, str(other))
    assert [r.large for r in runs] == [r.large for r in again]
    assert any(r.large for r in runs) and not all(r.large for r in runs)
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    if workload == "population":
        assert any((first / n).read_bytes() != (other / n).read_bytes()
                   for n in os.listdir(first))
    for spec in runs:
        scenario = load_config(spec.config)  # raises on any problem
        assert len(scenario.nodes) == spec.nodes
        assert len(scenario.shocks) == spec.shocks
        assert round(scenario.duration / scenario.dt) == spec.ticks


def test_population_rounds_shock_every_figure_once():
    drawn, rest = workloads.population_hits(11)
    assert sorted(drawn + rest) == list(range(8))
    assert len(drawn) == 4


# -- tracer hygiene ------------------------------------------------------------------


def _snapshot(targets):
    state = {}
    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        owner = __import__(module_name, fromlist=["_"])
        for part in filter(None, class_name.split(".")):
            owner = getattr(owner, part)
        where = owner.__dict__ if isinstance(owner, type) else vars(owner)
        state[(target.owner, target.attr)] = (target.attr in where, where.get(target.attr))
    return state


def test_install_then_uninstall_restores_every_attribute():
    targets = tracer_mod.default_targets()
    before = _snapshot(targets)
    tr = Tracer(targets)
    with tr:
        assert not tr.absent
        during = _snapshot(targets)
        assert all(during[key][1] is not before[key][1] for key in before)
    after = _snapshot(targets)
    for key, (present, value) in before.items():
        assert after[key][0] == present, key
        assert after[key][1] is value, key


def test_missing_target_is_reported_absent():
    targets = [
        Target("fidelitylab.engine", "no_such_stage", "engine.no_such_stage"),
        Target("fidelitylab.no_such_module", "f", "x.f"),
        Target("fidelitylab.collective:NoSuchClass", "f", "x.g"),
    ]
    with Tracer(targets) as tr:
        pass
    assert tr.absent == [
        "fidelitylab.engine.no_such_stage",
        "fidelitylab.no_such_module.f",
        "fidelitylab.collective:NoSuchClass.f",
    ]


def test_traced_run_exports_equal_untraced(tmp_path):
    spec = workloads.generate("demo", 1, ROOT, str(tmp_path))[0]
    out = str(tmp_path / "out")
    plain = run.run_one(cli, spec, 5, out)
    with Tracer() as tr:
        traced = run.run_one(cli, spec, 5, out, tr)
    assert plain.problems == [] and traced.problems == []
    assert plain.files == traced.files
    summary = tr.summary()
    assert summary["environment.label_regime"]["calls"] == 2 * spec.ticks  # with calibration
    assert tr.counters["engine.node_ticks"] == spec.ticks


# -- host sampling ---------------------------------------------------------------------


def test_host_sampler_leaves_exports_and_the_alarm_as_they_were(tmp_path):
    spec = workloads.generate("demo", 1, ROOT, str(tmp_path))[0]
    out = str(tmp_path / "out")
    plain = run.run_one(cli, spec, 5, out)
    handler = signal.getsignal(signal.SIGALRM)
    with yardstick.HostSampler(period=0.005) as host:
        sampled = run.run_one(cli, spec, 5, out)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert plain.problems == [] and sampled.problems == []
    assert plain.files == sampled.files
    total, mean = host.over(sampled.started, sampled.started + sampled.wall)
    assert 0 < total < sampled.wall
    assert min(host.durations) <= mean <= max(host.durations)


# -- the metrics the command prints are the ones BENCHMARK.json declares ---------------


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _outcome(nodes, ticks, large, wall):
    spec = workloads.RunSpec("f.json", nodes, ticks, 0, large)
    return run.Outcome(spec, 0, wall)


def test_times_are_rescaled_by_the_probes_taken_during_them():
    quiet, slow = _outcome(1, 100, True, 0.5), _outcome(1, 100, True, 0.75)
    quiet.host, slow.host = run.REFERENCE_S, 1.5 * run.REFERENCE_S
    assert slow.scaled == pytest.approx(quiet.scaled) == pytest.approx(0.5)
    assert _outcome(1, 100, True, 0.5).scaled == 0.5  # unmeasured: left as is
    lines = []
    small = _outcome(1, 25, False, 0.25)
    small.host = 2 * run.REFERENCE_S
    e2e = run.end_to_end([small, quiet, small, slow],
                         [(0.3, run.REFERENCE_S), (0.6, 2 * run.REFERENCE_S)], lines)
    assert e2e["scenario_s.p50"][0] == pytest.approx(0.5)
    assert e2e["setup_s"][0] == pytest.approx(0.3)
    assert e2e["node_tick_growth"][0] == pytest.approx(1.0)  # 5 ms/tick on both sides


def test_printed_metrics_match_benchmark_json():
    outcomes = [_outcome(1, 100, False, 0.1), _outcome(1, 400, True, 0.5)]
    e2e = run.end_to_end(outcomes, [(0.3, 0.02), (0.2, 0.02), (0.4, 0.02)], [])
    assert {k: unit for k, (_, unit) in e2e.items()} == _declared("end_to_end")
    layers = run.per_layer({}, defaultdict(int), 0.1, 1.0, 0, 1, [], [])
    assert {k: unit for k, (_, unit) in layers.items()} == _declared("per_layer")
