import copy
import itertools
import math
import pickle
import weakref
from dataclasses import is_dataclass, replace
from fractions import Fraction
from statistics import median
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_behavior import ReferencePredictive
from test_golden import (
    DEMO,
    SCENARIO_GOLDEN,
    _ladder_cut,
    _load,
    channel_changes,
    digests,
    predictive_groups,
    result_digests,
    social_edges,
    stateful_specs,
)
from test_golden import SCENARIOS as GOLDEN_SCENARIOS

from fidelitylab import engine
from fidelitylab.behavior import (
    Behavior,
    CorrectiveAction,
    Observation,
    Passive,
    Predictive,
    Reactive,
)
from fidelitylab.collective import ResourcePool, SocialAction, SocialBehavior
from fidelitylab.config import load_config, parse_config, scenario_to_config
from fidelitylab.controller import (
    LearningSpec,
    ModeController,
    Safety,
    SafetyPredicate,
    Strategy,
    StrategyKind,
)
from fidelitylab.engine import (
    TIME_EPS,
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    NodeTrace,
    PoolSpec,
    RecoveryMetrics,
    Scenario,
    Verdict,
    antifragility_score,
    compute_recovery_metrics,
    episode_cost,
    restoration_time,
    run_scenario,
    theil_sen_slope,
    validate_scenario,
)
from fidelitylab.environment import Constant, DriftProcess, LinearDrift, RandomWalk, ShockEvent
from fidelitylab.errors import ConfigurationError, InsufficientDataError
from fidelitylab.identity import ContractStatus, DetectorConfig, IdentityClass, WindowRing
from fidelitylab.reflection import DeltaSample
from fidelitylab.reporting import TICKS_HEADER, export_run
from fidelitylab.rng import substream


def hard_contract(threshold=0.1, window=20):
    return ContractSpec(identity=IdentityClass.hard(threshold), window=window)


def perfect_node(name="n0", behavior=None, controller=None):
    return NodeSpec(
        name=name,
        channel=ChannelSpec(sampling_period=0.1),
        contract=hard_contract(),
        detector=DetectorConfig(),
        behavior=behavior or Passive(),
        controller=controller,
    )


STAGES = ("boundary", "environment", "sensing", "delta", "identity",
          "controller", "behavior", "collective", "metrics")


def _log_stages(monkeypatch):
    """Wrap every _Run stage method; the returned list logs their calls by name."""
    stage_log = []

    def logged(name, stage):
        def wrapper(*args, **kwargs):
            stage_log.append(name)
            return stage(*args, **kwargs)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(engine._Run, name, logged(name, getattr(engine._Run, name)))
    return stage_log


class TestRunBasics:
    def test_zero_duration_run_is_empty(self):
        scenario = Scenario(
            duration=0.0, dt=0.1,
            figures=[FigureSpec(name="f")],
            nodes=[perfect_node()],
        )
        result = run_scenario(scenario)
        assert result.traces == {"n0": NodeTrace(figure=0)}
        assert result.recovery == []

    def test_isomorphism_limit(self):
        scenario = Scenario(
            duration=20.0, dt=0.1, seed=5,
            figures=[FigureSpec(name="f", initial=5.0)],
            nodes=[perfect_node(controller=ControllerSpec(
                catalog=(Strategy(id="s", kind=StrategyKind.RECONFIGURE,
                                  behavior=Reactive(gain=1.0)),),
            ))],
        )
        result = run_scenario(scenario)
        trace = result.traces["n0"]
        assert all(d == 0.0 for d in trace.deltas)
        assert all(label == "HardRT" for label in trace.identities)
        assert all(m.value == "elastic" for m in trace.modes)
        assert result.overhead_counters["n0"] == 0
        assert result.failure_events == []

    def test_determinism_byte_identical_exports(self, tmp_path):
        def scenario():
            return Scenario(
                name="det", duration=30.0, dt=0.1, seed=99,
                figures=[FigureSpec(name="f", initial=0.0,
                                    process=LinearDrift(rate=0.01))],
                shocks=[ShockEvent(at=5.0, figure=0, magnitude=5.0, recovery_window=3.0),
                        ShockEvent(at=12.0, figure=0, magnitude=-5.0, recovery_window=3.0)],
                pool=PoolSpec(total=4.0, join_allocation=1.0),
                nodes=[
                    NodeSpec(
                        name="n0",
                        channel=ChannelSpec(gain=1.05, noise_std=0.01, sampling_period=0.1),
                        contract=hard_contract(),
                        detector=DetectorConfig(),
                        behavior=Reactive(gain=0.5),
                        social=None,
                        member=True,
                        controller=ControllerSpec(catalog=(
                            Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                                     behavior=Reactive(gain=1.0)),
                            Strategy(id="weak", kind=StrategyKind.RECONFIGURE,
                                     behavior=Reactive(gain=0.1)),
                        )),
                    ),
                ],
            )

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        export_run(run_scenario(scenario()), str(out_a))
        export_run(run_scenario(scenario()), str(out_b))
        for filename in ("ticks.csv", "episodes.csv", "report.json", "pool.csv"):
            assert (out_a / filename).read_bytes() == (out_b / filename).read_bytes()

    def test_seed_changes_noisy_runs_only(self):
        def scenario(seed, noise):
            return Scenario(
                duration=5.0, dt=0.1, seed=seed,
                figures=[FigureSpec(name="f", initial=1.0)],
                nodes=[NodeSpec(name="n0",
                                channel=ChannelSpec(noise_std=noise, sampling_period=0.1),
                                behavior=Passive())],
            )

        clean_a = run_scenario(scenario(1, 0.0)).traces["n0"].deltas
        clean_b = run_scenario(scenario(2, 0.0)).traces["n0"].deltas
        assert clean_a == clean_b
        noisy_a = run_scenario(scenario(1, 0.1)).traces["n0"].deltas
        noisy_b = run_scenario(scenario(2, 0.1)).traces["n0"].deltas
        assert noisy_a != noisy_b

    def test_tick_stage_order_contract(self, monkeypatch):
        # Sensing and delta for every node, one identity stage for all of
        # them, the controller for every node, then one behavior stage.
        expected_tick = (
            ["boundary", "environment"] + ["sensing", "delta"] * 2 + ["identity"]
            + ["controller"] * 2 + ["behavior", "collective", "metrics"]
        )
        stage_log = _log_stages(monkeypatch)
        scenario = Scenario(
            duration=0.2, dt=0.1,
            figures=[FigureSpec(name="f")],
            pool=PoolSpec(total=1.0),
            nodes=[perfect_node("a"), perfect_node("b")],
        )
        run_scenario(scenario)
        assert stage_log == expected_tick * 2  # two ticks

    def test_predictive_nodes_are_staged_once_a_tick_as_a_per_node_loop_would(
        self, monkeypatch
    ):
        # Each behavior stage makes one stage_predictions call with a row for
        # every node whose behavior is predictive, in node order, and each
        # bias equals a per-node reference loop's over the same observations.
        # The reference rides on the run's history ring, so a copy of a ring
        # (the elastic design restored) carries the reference's history
        # exactly as it carries the ring's.
        class ReferenceRing(WindowRing):
            def __init__(self, size, width):
                super().__init__(size, width)
                self.reference = ReferencePredictive(width - 2, size)

        expected, staged_rows, joined = [], [], []
        stage, stage_predictions = engine._Run.behavior, engine.stage_predictions

        def behavior(run, samples):
            expected.extend(id(n.state) for n in run.nodes
                            if isinstance(n.behavior, Predictive))
            stage(run, samples)

        def staged(rows):
            biases = stage_predictions(rows)
            for (_, history, time, context, delta, correction), bias in zip(rows, biases):
                observation = Observation(DeltaSample(time, delta), tuple(context), correction)
                action = history.reference.act(observation)
                assert bias == action.bias
                staged_rows.append(id(history))
                if action.fallback and time > 1.0:
                    joined.append(time)
            return biases

        monkeypatch.setattr(Predictive, "start", lambda p: ReferenceRing(p.window, p.k + 2))
        monkeypatch.setattr(engine._Run, "behavior", behavior)
        monkeypatch.setattr(engine, "stage_predictions", staged)
        run_scenario(predictive_groups())
        assert staged_rows == expected
        assert len(staged_rows) > 600 * 6  # six nodes predictive throughout 600 ticks
        assert joined  # arms enacted mid-run start from an empty history

    def test_same_tick_failures_of_different_groups_in_node_order(self):
        # Three contract groups whose rows interleave in the node list; one
        # shock makes every detector fire on the same tick.
        guards = [(0.1, 20), (0.2, 20), (0.1, 20), (0.1, 30), (0.2, 20)]
        nodes = [
            NodeSpec(name=f"n{i}", channel=ChannelSpec(gain=1.1, sampling_period=0.1),
                     contract=hard_contract(threshold, window), detector=DetectorConfig())
            for i, (threshold, window) in enumerate(guards)
        ]
        result = run_scenario(Scenario(
            duration=3.0, dt=0.1, figures=[FigureSpec(name="f")],
            shocks=[ShockEvent(at=1.0, figure=0, magnitude=5.0, recovery_window=1.0)],
            nodes=nodes,
        ))
        first = min(event.time for _, event in result.failure_events)
        same_tick = [name for name, event in result.failure_events if event.time == first]
        assert same_tick == [node.name for node in nodes]

    def test_validation_enumerates_every_problem(self):
        scenario = Scenario(
            duration=10.0, dt=0.1,
            figures=[FigureSpec(name="f")],
            shocks=[ShockEvent(at=2.0, figure=5, magnitude=1.0, recovery_window=4.0),
                    ShockEvent(at=3.0, figure=0, magnitude=1.0, recovery_window=4.0),
                    ShockEvent(at=4.0, figure=0, magnitude=1.0, recovery_window=-1.0)],
            nodes=[
                NodeSpec(name="x", figure=9,
                         channel=ChannelSpec(sampling_period=-0.1, noise_std=-1.0)),
                NodeSpec(name="x", behavior=Reactive(gain=5.0)),
            ],
        )
        assert validate_scenario(scenario) == [
            "shocks[0].figure: index 5 out of range",
            "shocks[2].recovery_window: must be > 0",
            "shocks[2]: recovery windows must not overlap on one figure",
            "nodes[0].figure: index 9 out of range",
            "nodes[0].channel.noise_std: must be >= 0",
            "nodes[0].channel.sampling_period: must be > 0",
            "nodes[1].name: duplicate node name 'x'",
            "nodes[1].behavior.gain: must be in (0, 2]",
        ]

    @pytest.mark.parametrize("key, value, problem", [
        ("sampling_period", -1.0, "must be > 0"),
        ("sampling_period", 0.15, "must be a positive integer multiple of dt"),
        ("noise_std", -0.1, "must be >= 0"),
        ("quantization", -0.1, "must be >= 0"),
        ("latency", -0.1, "must be >= 0"),
    ], ids=["period_negative", "period_off_grid", "noise_std", "quantization", "latency"])
    def test_channel_rules_hold_for_nodes_and_catalog_channels(self, key, value, problem):
        def scenario(channel):
            catalog = (Strategy(id="s", kind=StrategyKind.RECONFIGURE, channel=channel),)
            return Scenario(duration=1.0, dt=0.1, figures=[FigureSpec(name="f")], nodes=[
                NodeSpec(name="n", channel=ChannelSpec(**channel),
                         controller=ControllerSpec(catalog=catalog)),
            ])

        assert validate_scenario(scenario({key: value})) == [
            f"nodes[0].channel.{key}: {problem}",
            f"nodes[0].controller.catalog[0].channel.{key}: {problem}",
        ]
        assert validate_scenario(scenario({"sampling_period": 0.2})) == []

    def test_a_catalog_channel_restages_only_channel_keys(self):
        catalog = (Strategy(id="s", kind=StrategyKind.RECONFIGURE,
                            channel={"nominal_gain": 2.0}),)
        scenario = Scenario(duration=1.0, dt=0.1, figures=[FigureSpec(name="f")], nodes=[
            NodeSpec(name="n", controller=ControllerSpec(catalog=catalog)),
        ])
        assert validate_scenario(scenario) == [
            "nodes[0].controller.catalog[0].channel.nominal_gain: not restageable"
        ]

    @pytest.mark.parametrize("dt, duration, problem", [
        (math.nan, 1.0, "dt: must be finite and > 0"),
        (math.inf, 1.0, "dt: must be finite and > 0"),
        (0.1, math.inf, "duration: must be finite and >= 0"),
        (0.1, math.nan, "duration: must be finite and >= 0"),
    ])
    def test_non_finite_dt_and_duration_rejected(self, dt, duration, problem):
        scenario = Scenario(duration=duration, dt=dt, figures=[FigureSpec(name="f")],
                            shocks=[ShockEvent(at=0.5, recovery_window=0.2)],
                            nodes=[perfect_node()])
        assert validate_scenario(scenario) == [problem]

    def test_run_scenario_raises_on_invalid(self):
        scenario = Scenario(duration=1.0, dt=0.1, figures=[], nodes=[])
        with pytest.raises(ConfigurationError) as exc:
            run_scenario(scenario)
        assert any("figures" in p for p in exc.value.problems)

    def test_overlapping_recovery_windows_rejected(self):
        scenario = Scenario(
            duration=20.0, dt=0.1,
            figures=[FigureSpec(name="f")],
            shocks=[ShockEvent(at=2.0, figure=0, magnitude=1.0, recovery_window=5.0),
                    ShockEvent(at=4.0, figure=0, magnitude=1.0, recovery_window=5.0)],
            nodes=[perfect_node()],
        )
        assert any("overlap" in p for p in validate_scenario(scenario))


class TestEpisodeMetrics:
    def test_zero_delta_costs_nothing_restores_first_tick(self):
        times = [0.1 * i for i in range(1, 101)]
        deltas = [0.0] * 100
        statuses = [ContractStatus.HOLDING] * 100
        shock = ShockEvent(at=2.0, figure=0, magnitude=0.0, recovery_window=3.0)
        metrics = compute_recovery_metrics(times, [deltas], [statuses], [shock], ["n"])
        assert metrics[0].cost == 0.0
        assert metrics[0].restoration_time == pytest.approx(0.1)

    def test_constant_delta_integrates_to_rectangle(self):
        times = [0.1 * i for i in range(1, 101)]
        deltas = [0.5] * 100
        shock = ShockEvent(at=2.0, figure=0, magnitude=0.0, recovery_window=4.0)
        [cost] = episode_cost(times, [deltas], shock.at, shock.at + shock.recovery_window)
        assert cost == pytest.approx(0.5 * 4.0)

    def test_triangular_decay_integrates_to_half_rectangle(self):
        # piecewise-linear decay: the trapezoid rule is exact on it
        shock_at, window, peak = 2.0, 4.0, 0.8
        times = [0.1 * i for i in range(1, 101)]
        deltas = [
            peak * max(0.0, 1.0 - (t - shock_at) / window) if t >= shock_at else 0.0
            for t in times
        ]
        [cost] = episode_cost(times, [deltas], shock_at, shock_at + window)
        assert cost == pytest.approx(peak * window / 2, abs=peak * 0.1 / 2)

    def test_restoration_needs_five_consecutive_holding(self):
        times = [float(i) for i in range(20)]
        h, v = ContractStatus.HOLDING, ContractStatus.VIOLATED
        statuses = [v, v, h, h, v, h, h, h, h, h, h, h, h, h, h, h, h, h, h, h]
        restored = restoration_time(times, statuses, shock_at=0.0, window_end=19.0)
        assert restored == 5.0  # the streak starting at index 5

    def test_unrestored_returns_none(self):
        times = [float(i) for i in range(10)]
        statuses = [ContractStatus.VIOLATED] * 10
        assert restoration_time(times, statuses, 0.0, 9.0) is None

    def test_restoration_must_start_inside_window(self):
        times = [float(i) for i in range(20)]
        statuses = [ContractStatus.VIOLATED] * 10 + [ContractStatus.HOLDING] * 10
        assert restoration_time(times, statuses, 0.0, window_end=5.0) is None

    def test_windowed_metrics_keep_a_streak_running_past_the_window(self):
        # The streak starts two samples before the window end and completes
        # three samples after it, outside the slice episode_cost reads.
        times = [float(i) for i in range(30)]
        h, v = ContractStatus.HOLDING, ContractStatus.VIOLATED
        statuses = [v] * 8 + [h] * 22
        shock = ShockEvent(at=0.0, figure=0, magnitude=1.0, recovery_window=9.0)
        metrics = compute_recovery_metrics(times, [[0.0] * 30], [statuses], [shock], ["n"])
        assert metrics[0].restoration_time == 8.0


def scalar_episode_cost(times, deltas, start, end):
    """The trapezoid integral of one row's |delta| as a sequential loop over
    its points: ``episode_cost`` must give each row these bits."""
    pts = [
        (t, abs(d))
        for t, d in zip(times, deltas)
        if start - TIME_EPS <= t <= end + TIME_EPS
    ]
    total = 0.0
    for (t0, d0), (t1, d1) in zip(pts[:-1], pts[1:]):
        total += 0.5 * (d0 + d1) * (t1 - t0)
    return total


def _bits(values):
    return np.array(values, dtype=float).tobytes()


_STATUSES = st.sampled_from([*ContractStatus, None])
_DELTAS = st.floats(-1e6, 1e6)


@st.composite
def _grid(draw, max_tick=120, max_size=80):
    """Ascending times on a 0.1 s grid, repeats allowed."""
    return [0.1 * k for k in sorted(draw(st.lists(st.integers(0, max_tick), max_size=max_size)))]


@st.composite
def _traces(draw):
    """A sorted trace, one to three rows of deltas and statuses on it, and
    some shocks.

    Statuses come in runs, so restoring streaks start, break and straddle
    window ends."""
    times = draw(_grid())
    deltas, statuses = [], []
    for _ in range(draw(st.integers(1, 3))):
        deltas.append(draw(st.lists(_DELTAS, min_size=len(times), max_size=len(times))))
        row = []
        while len(row) < len(times):
            row += [draw(_STATUSES)] * draw(st.integers(1, 12))
        statuses.append(row[:len(times)])
    shocks = [
        ShockEvent(at=0.1 * at, figure=0, magnitude=1.0, recovery_window=0.1 * width)
        for at, width in draw(st.lists(
            st.tuples(st.integers(-5, 125), st.integers(1, 40)), max_size=6))
    ]
    return times, deltas, statuses, shocks


@settings(max_examples=300, deadline=None)
@given(_traces())
def test_windowed_recovery_metrics_equal_a_full_scan(trace):
    times, deltas, statuses, shocks = trace
    nodes = [f"n{row}" for row in range(len(deltas))]
    full_scan = [
        RecoveryMetrics(
            episode=index, node=node,
            cost=scalar_episode_cost(times, row_deltas, s.at, s.at + s.recovery_window),
            restoration_time=restoration_time(
                times, row_statuses, s.at, s.at + s.recovery_window),
            strategy=None,
        )
        for node, row_deltas, row_statuses in zip(nodes, deltas, statuses)
        for index, s in enumerate(shocks)
    ]
    assert compute_recovery_metrics(times, deltas, statuses, shocks, nodes) == full_scan
    # Without statuses, the same costs and no restoration scan.
    assert compute_recovery_metrics(times, deltas, None, shocks, nodes) == [
        replace(m, restoration_time=None) for m in full_scan
    ]


# A window edge on a tick of the grid, nudged to either side of TIME_EPS.
_EDGES = st.builds(lambda tick, nudge: 0.1 * tick + nudge * TIME_EPS,
                   st.integers(-2, 42), st.sampled_from([-2, -1, 0, 1, 2]))


@settings(max_examples=400, deadline=None)
@given(_grid(max_tick=40, max_size=30), st.integers(1, 4), _EDGES, _EDGES, st.data())
def test_batched_episode_cost_has_the_bits_of_the_scalar_loop(times, rows, start, end, data):
    """Random rows on one grid, windows of any number of points (none, one,
    or all) with edges on either side of the tolerance."""
    deltas = [data.draw(st.lists(_DELTAS, min_size=len(times), max_size=len(times)))
              for _ in range(rows)]
    costs = episode_cost(times, deltas, start, end)
    assert all(type(cost) is float for cost in costs)
    assert _bits(costs) == _bits([scalar_episode_cost(times, row, start, end) for row in deltas])


class TestAntifragilityScore:
    def test_flat_series_is_robust(self):
        report = antifragility_score([3.0, 3.0, 3.0, 3.0, 3.0])
        assert report.slope == 0.0
        assert report.verdict == Verdict.ROBUST

    def test_strictly_decreasing_is_antifragile(self):
        report = antifragility_score([8.0, 4.0, 2.0, 1.0])
        slopes = [
            (c2 - c1) / (j - i)
            for (i, c1), (j, c2) in itertools.combinations(enumerate([8.0, 4.0, 2.0, 1.0]), 2)
        ]
        assert all(s < 0 for s in slopes)
        assert report.verdict == Verdict.ANTIFRAGILE

    def test_alternating_series_is_robust_by_pairwise_median(self):
        costs = [2.0, 3.0, 2.0, 3.0, 2.0, 3.0]
        slopes = [
            (costs[j] - costs[i]) / (j - i)
            for i, j in itertools.combinations(range(6), 2)
        ]
        assert len(slopes) == 15
        assert median(slopes) == 0.0
        report = antifragility_score(costs)
        assert report.slope == 0.0
        assert report.verdict == Verdict.ROBUST

    def test_growing_costs_are_fragile(self):
        report = antifragility_score([1.0, 2.0, 4.0, 8.0])
        assert report.verdict == Verdict.FRAGILE

    def test_fewer_than_four_episodes_rejected(self):
        with pytest.raises(InsufficientDataError):
            antifragility_score([1.0, 2.0, 3.0])

    def test_theil_sen_matches_enumeration(self):
        values = [5.0, 1.0, 4.0, 2.0, 8.0, 0.5, 3.0]
        slopes = [
            (values[j] - values[i]) / (j - i)
            for i, j in itertools.combinations(range(len(values)), 2)
        ]
        assert theil_sen_slope(values) == median(slopes)


class TestScaleEquivariance:
    def build(self, scale):
        # every quale- and raw-unit quantity scales; gains and times do not
        return Scenario(
            name="scale", duration=20.0, dt=0.1, seed=11,
            turbulence_threshold=0.05 * scale,
            figures=[FigureSpec(name="f", initial=1.0 * scale,
                                process=LinearDrift(rate=0.02 * scale))],
            shocks=[ShockEvent(at=6.0, figure=0, magnitude=4.0 * scale,
                               recovery_window=4.0)],
            nodes=[NodeSpec(
                name="n0",
                channel=ChannelSpec(
                    gain=1.1, bias=0.05 * scale, noise_std=0.01 * scale,
                    nominal_gain=1.0, nominal_bias=0.0,
                    sampling_period=0.1,
                ),
                contract=ContractSpec(identity=IdentityClass.hard(0.1 * scale), window=20),
                detector=DetectorConfig(slack=0.02 * scale, threshold=0.2 * scale),
                behavior=Reactive(gain=0.8),
                controller=ControllerSpec(
                    safety=SafetyPredicate(turbulence_threshold=0.05 * scale),
                    catalog=(Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                                      behavior=Reactive(gain=1.0)),),
                ),
            )],
        )

    def test_doubling_units_preserves_timelines(self):
        base = run_scenario(self.build(1.0)).traces["n0"]
        doubled = run_scenario(self.build(2.0)).traces["n0"]
        assert base.identities == doubled.identities
        assert base.modes == doubled.modes
        assert base.statuses == doubled.statuses
        # deltas scale exactly by the unit factor (power of two)
        assert all(2.0 * a == b for a, b in zip(base.deltas, doubled.deltas))


class TestModeReplay:
    def test_recorded_modes_match_pure_replay(self):
        scenario = Scenario(
            duration=30.0, dt=0.1, seed=3,
            figures=[FigureSpec(name="f", initial=0.0)],
            shocks=[ShockEvent(at=5.0, figure=0, magnitude=10.0, recovery_window=4.0),
                    ShockEvent(at=15.0, figure=0, magnitude=-10.0, recovery_window=4.0)],
            nodes=[NodeSpec(
                name="n0",
                channel=ChannelSpec(gain=1.1, sampling_period=0.1),
                contract=hard_contract(),
                behavior=Reactive(gain=1.0),
                controller=ControllerSpec(hysteresis=7),
            )],
        )
        result = run_scenario(scenario)
        verdicts = result.traces["n0"].verdicts
        assert Safety.UNSAFE in verdicts
        controller = ModeController(hysteresis=7)
        assert [controller.step(v) for v in verdicts] == result.traces["n0"].modes


class TestChannelCache:
    """The node's one channel record follows every change."""

    def node(self, **channel):
        spec = NodeSpec(name="n0", channel=ChannelSpec(sampling_period=0.1, **channel))
        return engine.SimNode(spec, Scenario(dt=0.1, figures=[FigureSpec(name="f")]))

    def test_restaged_channel(self):
        node = self.node(gain=1.1)
        node.pending_channel = {"gain": 1.3, "bias": 0.2, "sampling_period": 0.3}
        node.apply_pending()
        assert (node.channel.gain, node.channel.bias) == (1.3, 0.2)
        assert node.period_ticks == 3

    def test_resampling_action(self):
        node = self.node()
        node.apply_action(CorrectiveAction(resample=0.5), capacity=1.0)
        assert node.period_ticks == 5

    def test_drifting_bias(self):
        node = self.node(bias_drift=LinearDrift(rate=1.0))
        for _ in range(3):
            node.drift_bias()
        assert node.channel.bias == pytest.approx(0.3)


class TestStrategyEnactment:
    def scenario(self, catalog):
        return Scenario(
            duration=30.0, dt=0.1, seed=6,
            figures=[FigureSpec(name="f", initial=0.0)],
            shocks=[ShockEvent(at=5.0, figure=0, magnitude=10.0, recovery_window=5.0)],
            pool=PoolSpec(total=2.0, join_allocation=0.5, solo_capacity=10.0,
                          calm_window=600),
            nodes=[NodeSpec(
                name="n0",
                channel=ChannelSpec(gain=1.1, sampling_period=0.1),
                contract=hard_contract(),
                behavior=Reactive(gain=1.0),
                social=SocialBehavior.NEUTRAL,
                member=True,
                controller=ControllerSpec(catalog=catalog),
            )],
        )

    def test_infeasible_social_strategy_scores_zero(self):
        # Join submitted by a node that is already a member: rejected, and the
        # episode it was meant to serve is credited zero reward.
        catalog = (Strategy(id="rally", kind=StrategyKind.SOCIAL,
                            social=SocialAction.join()),)
        result = run_scenario(self.scenario(catalog))
        failed = [c for c in result.changes if c.kind == "social" and not c.ok]
        assert failed
        history = result.learning_docs["n0"]["history"]
        assert history and history[0]["reward"] == 0.0

    def test_credit_goes_only_to_nodes_on_the_shocked_figure(self, tmp_path):
        # Overlapping shocks on two figures: each node owns only the episode
        # of the shock that hit its own figure.
        catalog = (
            Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                     behavior=Reactive(gain=1.0)),
            Strategy(id="weak", kind=StrategyKind.RECONFIGURE,
                     behavior=Reactive(gain=0.005)),
        )
        scenario = Scenario(
            duration=30.0, dt=0.1, seed=0,
            figures=[FigureSpec(name="f0"), FigureSpec(name="f1")],
            shocks=[ShockEvent(at=10.0, figure=0, magnitude=10.0, recovery_window=8.0),
                    ShockEvent(at=12.0, figure=1, magnitude=10.0, recovery_window=8.0)],
            nodes=[
                NodeSpec(name=f"n{i}", figure=i,
                         channel=ChannelSpec(gain=1.1, sampling_period=0.1),
                         contract=hard_contract(),
                         behavior=Reactive(gain=0.2),
                         controller=ControllerSpec(catalog=catalog))
                for i in range(2)
            ],
        )
        result = run_scenario(scenario)
        export_run(result, str(tmp_path))
        rows = (tmp_path / "episodes.csv").read_text().splitlines()[1:]
        credited = {
            (node, int(episode))
            for episode, node, _, _, strategy in (row.split(",") for row in rows)
            if strategy
        }
        assert credited == {("n0", 0), ("n1", 1)}
        for node, episode in credited:
            history = result.learning_docs[node]["history"]
            assert [h["episode"] for h in history] == [episode]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestSpecsAreValues:
    """A spec holds no run state: the run builds the cursors, history rings
    and regime flags it needs from the specs and keeps them itself, so a
    scenario is the same value before and after any number of runs."""

    SCENARIOS = {"stateful_specs": stateful_specs, "predictive_groups": predictive_groups,
                 "demo": lambda: load_config(DEMO)}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_scenario_pickles_without_an_array(self, name):
        assert b"numpy" not in pickle.dumps(self.SCENARIOS[name]())

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_run_leaves_its_scenario_unchanged(self, name):
        scenario = self.SCENARIOS[name]()
        before = pickle.dumps(scenario)
        run_scenario(scenario)
        assert pickle.dumps(scenario) == before

    def test_one_scenario_object_runs_twice_to_the_same_exports(self):
        scenario = stateful_specs()
        assert digests(scenario) == digests(scenario)

    def test_every_spec_class_is_a_frozen_dataclass(self):
        classes = {*_subclasses(Behavior), *_subclasses(DriftProcess), *engine.VALUE_RULES}
        assert len(classes) > 15
        assert sorted(cls.__name__ for cls in classes
                      if not (is_dataclass(cls) and cls.__dataclass_params__.frozen)) == []

    def test_two_loads_of_a_scenario_are_one_hashable_value(self):
        first, second = load_config(DEMO), load_config(DEMO)
        assert first == second and hash(first) == hash(second)

    def test_a_restaged_channel_parses_to_pairs_in_restageable_order(self):
        scenario = parse_config(scenario_to_config(channel_changes()))
        hash(scenario)
        assert [strategy.channel for strategy in scenario.nodes[1].controller.catalog] == [
            (("gain", 1.3), ("sampling_period", 0.2)),
            (("gain", 1.05), ("sampling_period", 0.1)),
        ]

    def test_a_parsed_scenario_cannot_be_changed_in_place(self):
        scenario = load_config(DEMO)
        for column in (scenario.figures, scenario.shocks, scenario.nodes):
            with pytest.raises(AttributeError):
                column.append(column[0])


class TestForkedRuns:
    """A run is one value: a copy of it (``pickle``, ``copy.deepcopy``)
    taken between two ticks and continued exports the bytes the run
    exports, and so does the run itself."""

    DEEPCOPIED = ("demo", "social_edges", "stateful_specs")

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_a_copy_taken_mid_run_continues_to_the_golden_bytes(self, name):
        scenario = GOLDEN_SCENARIOS[name]()
        run = engine._Run(scenario, engine._calibrate(scenario), None)
        run.advance(int(substream(0, "fork", name).integers(1, run.ticks)))
        runs = {"run": run, "pickle": pickle.loads(pickle.dumps(run))}
        if name in self.DEEPCOPIED:
            runs["deepcopy"] = copy.deepcopy(run)
        golden = _load(SCENARIO_GOLDEN)[name]
        for kind, each in runs.items():
            each.advance(each.ticks)
            assert result_digests(scenario, each.wrap_up(), echo=True) == golden, kind


def _pool_social_scenario():
    """Three nodes on two figures over a pool: a cooperative and an
    individualistic member with learning controllers (one of them able to
    grab), and a plain non-member."""
    catalog = (
        Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(gain=1.0)),
        Strategy(id="weak", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(gain=0.05)),
    )
    grab = Strategy(id="grab", kind=StrategyKind.SOCIAL,
                    social=SocialAction.grab(Fraction("0.25")))

    def node(name, figure, social, member, node_catalog):
        return NodeSpec(
            name=name, figure=figure,
            channel=ChannelSpec(gain=1.1, noise_std=0.01, sampling_period=0.1),
            contract=hard_contract(),
            detector=DetectorConfig(),
            behavior=Reactive(gain=0.5),
            social=social, member=member,
            controller=ControllerSpec(catalog=node_catalog) if node_catalog else None,
        )

    return Scenario(
        name="pool-social", duration=60.0, dt=0.1, seed=4,
        figures=[FigureSpec(name="f0"), FigureSpec(name="f1")],
        shocks=[ShockEvent(at=5.0 + 12.0 * i, figure=i % 2,
                           magnitude=10.0 if i % 3 else -10.0, recovery_window=8.0)
                for i in range(4)],
        pool=PoolSpec(total=2.0, join_allocation=0.5, solo_capacity=0.3),
        nodes=[
            node("coop", 0, SocialBehavior.COOPERATIVE, True, (grab,) + catalog),
            node("solo", 1, SocialBehavior.INDIVIDUALISTIC, True, catalog),
            node("plain", 0, None, False, None),
        ],
    )


def _passive_twin(scenario):
    """The scenario as the calibration pre-run sees it: every node passive,
    with no detector, controller or social layer, and no pool."""
    nodes = [
        replace(node, behavior=Passive(), detector=None, controller=None,
                social=None, member=False)
        for node in scenario.nodes
    ]
    return replace(scenario, pool=None, nodes=nodes)


class TestCalibration:
    @pytest.mark.parametrize("build", [
        lambda: load_config(DEMO),
        lambda: _ladder_cut(0, True),
        _pool_social_scenario,
    ], ids=["demo", "ladder_cut", "pool_social"])
    def test_baselines_are_the_passive_twins_worst_episode_costs(self, build):
        scenario = build()
        baselines = run_scenario(scenario).baselines
        twin = run_scenario(_passive_twin(scenario))
        assert baselines == {
            node.name: max(m.cost for m in twin.recovery if m.node == node.name)
            for node in scenario.nodes
        }

    def test_calibration_runs_only_the_cost_stages(self, monkeypatch):
        stage_log = _log_stages(monkeypatch)
        scenario = _pool_social_scenario()
        result = engine._execute(scenario, baselines={}, passive_override=True)
        ticks = round(scenario.duration / scenario.dt)
        per_tick = ["boundary", "environment"] + ["sensing", "delta"] * len(scenario.nodes)
        assert stage_log == per_tick * ticks
        for trace in result.traces.values():
            for column in ("times", "raws", "quales", "deltas"):
                assert len(getattr(trace, column)) == ticks, column
            assert trace.statuses == trace.modes == trace.verdicts == trace.identities == []
        assert len(result.recovery) == len(scenario.nodes) * len(scenario.shocks)

    def test_calibration_keeps_only_episode_costs(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("called by the calibration pre-run")

        for name in ("restoration_time", "antifragility_score"):
            monkeypatch.setattr(engine, name, unexpected)
        monkeypatch.setattr(engine.LearningState, "to_document", unexpected)
        scenario = _pool_social_scenario()
        assert len(scenario.shocks) >= 4  # enough for a verdict in a main run
        result = engine._execute(scenario, baselines={}, passive_override=True)
        assert [m.restoration_time for m in result.recovery] == [None] * len(result.recovery)
        assert result.learning_docs == result.overhead_counters == {}
        assert result.antifragility is None and result.node_antifragility == {}

    def test_the_pre_run_is_released_before_the_main_run(self, monkeypatch):
        """A run holds one tick history at a time: by the time the main run
        starts, no trace, recovery row or result of the pre-run is alive."""
        execute, pre_run, alive = engine._execute, [], []

        def watched(scenario, baselines, passive_override, **kwargs):
            if not passive_override:
                alive.append(sum(ref() is not None for ref in pre_run))
            result = execute(scenario, baselines, passive_override=passive_override, **kwargs)
            if passive_override:
                pre_run.extend(weakref.ref(product) for product in (
                    result, *result.traces.values(), *result.recovery))
            return result

        monkeypatch.setattr(engine, "_execute", watched)
        run_scenario(load_config(DEMO))
        # The result, the demo's one trace and its six recovery rows.
        assert len(pre_run) == 8 and alive == [0]


class TestPoolWiring:
    def test_capacity_limits_correction_and_conserves(self):
        scenario = Scenario(
            duration=20.0, dt=0.1, seed=2,
            figures=[FigureSpec(name="f", initial=0.0)],
            shocks=[ShockEvent(at=5.0, figure=0, magnitude=10.0, recovery_window=10.0)],
            pool=PoolSpec(total=0.2, join_allocation=0.02, solo_capacity=0.0),
            nodes=[NodeSpec(
                name="n0",
                channel=ChannelSpec(gain=1.1, sampling_period=0.1),
                contract=hard_contract(),
                behavior=Reactive(gain=1.0),
                social=None,
                member=True,
            )],
        )
        result = run_scenario(scenario)
        assert result.pool_violations == 0
        deltas = result.traces["n0"].deltas
        shock_idx = 49  # tick 50 is t=5.0
        assert result.traces["n0"].times[shock_idx] == pytest.approx(5.0)
        # capacity 0.02/tick: one tick after the shock the error shrank by
        # exactly the allocation, not the full reactive correction
        assert deltas[shock_idx] == pytest.approx(1.0)
        assert deltas[shock_idx + 1] == pytest.approx(1.0 - 0.02)


@st.composite
def _pool_populations(draw):
    """Up to twelve nodes of every social disposition, members or not, some
    with controllers whose catalog grabs or assists, sharing a pool of random
    size, floor, join allocation and assist quantum."""
    count = draw(st.integers(1, 12))
    names = [f"n{i}" for i in range(count)]
    nodes = []
    for name in names:
        catalog = (
            Strategy(id="grab", kind=StrategyKind.SOCIAL,
                     social=SocialAction.grab(Fraction(draw(st.sampled_from(["0.05", "0.5"]))))),
            Strategy(id="assist", kind=StrategyKind.SOCIAL,
                     social=SocialAction.assist(draw(st.sampled_from(names)), Fraction("0.1"))),
        )
        social = draw(st.sampled_from([None, *SocialBehavior]))
        nodes.append(NodeSpec(
            name=name,
            figure=draw(st.integers(0, 1)),
            channel=ChannelSpec(gain=draw(st.sampled_from([0.9, 1.1, 1.5])),
                                noise_std=draw(st.sampled_from([0.0, 0.05]))),
            contract=hard_contract(draw(st.sampled_from([0.05, 0.3, 2.0]))),
            behavior=draw(st.sampled_from([Passive(), Reactive(gain=0.5),
                                           Reactive(gain=1.0)])),
            social=social,
            member=draw(st.booleans()),
            controller=ControllerSpec(catalog=catalog) if social and draw(st.booleans())
            else None,
        ))
    pool = PoolSpec(
        total=draw(st.sampled_from([0.1, 0.7, 1.0, 3.3])),
        join_allocation=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])),
        solo_capacity=0.2,
        floor=draw(st.sampled_from([0.0, 0.05, 0.1])),
        assist_quantum=draw(st.sampled_from([0.02, 0.1, 0.3])),
        calm_window=draw(st.sampled_from([1, 5, 20])),
    )
    shocks = [ShockEvent(at=float(at), figure=at % 2, magnitude=draw(st.sampled_from([-4.0, 6.0])),
                         recovery_window=2.0)
              for at in range(1, 9, 3)]
    return Scenario(duration=10.0, dt=0.1, seed=draw(st.integers(0, 9)),
                    figures=[FigureSpec(name="f0"), FigureSpec(name="f1")],
                    shocks=shocks, nodes=nodes, pool=pool)


@settings(max_examples=25, deadline=None)
@given(_pool_populations())
def test_the_pool_is_conserved_exactly_in_any_population(scenario):
    """Whatever the population and the pool do, every tick's conservation
    check passes, and the last allocations and reserve add up to the total
    exactly, with float shadows equal to float() of the exact values."""
    pools = []

    class Recorded(ResourcePool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    with mock.patch.object(engine, "ResourcePool", Recorded):
        result = run_scenario(scenario)
    assert result.pool_violations == 0
    pool = pools[-1]
    allocations = dict(pool.allocations)
    assert sum(allocations.values(), Fraction(0)) + pool.reserve == pool.total
    assert pool.total == Fraction(str(scenario.pool.total))
    assert all(a >= 0 for a in allocations.values()) and pool.reserve >= 0
    assert dict(pool.float_allocations) == {n: float(a) for n, a in allocations.items()}
    assert pool.float_reserve == float(pool.reserve)
    assert len(result.pool_log) == round(scenario.duration / scenario.dt)
    _, last, reserve = result.pool_log[-1]
    assert last == [float(allocations.get(node.name, 0)) for node in scenario.nodes]
    assert reserve == float(pool.reserve)


def test_node_streams_are_derived_on_first_draw():
    """A node's noise, bias-drift and select streams are derived when it
    first draws from them: noiseless channels derive none, and a catalog
    that restages a channel to a noisy one derives its stream mid-run, with
    the same label (so the same draws) as at start-up."""
    derived = []

    def recorded(seed, *labels):
        derived.append(labels)
        return substream(seed, *labels)

    with mock.patch.object(engine, "substream", recorded):
        run_scenario(social_edges())
    # The learner selects its first arm, and only then senses through the
    # noisy channel that arm restages.
    assert [labels for labels in derived if labels[0] == "node"] == [
        ("node", "learner2", "select"), ("node", "learner2", "noise"),
    ]


# -- the per-node trace ---------------------------------------------------------


def _contract_controller_scenario(record_identity=True):
    """One node for each combination of contract and controller, two shocks."""
    catalog = (Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                        behavior=Reactive(gain=1.0)),)
    nodes = [
        NodeSpec(
            name=f"n{i}",
            channel=ChannelSpec(gain=1.1, noise_std=0.01, sampling_period=0.1),
            contract=hard_contract() if contract else None,
            behavior=Reactive(gain=0.5),
            controller=ControllerSpec(catalog=catalog) if controller else None,
        )
        for i, (contract, controller) in enumerate(itertools.product((False, True), repeat=2))
    ]
    return Scenario(
        duration=20.0, dt=0.1, seed=8,
        figures=[FigureSpec(name="f")],
        shocks=[ShockEvent(at=5.0, figure=0, magnitude=5.0, recovery_window=4.0),
                ShockEvent(at=12.0, figure=0, magnitude=-5.0, recovery_window=4.0)],
        nodes=nodes,
        record_identity=record_identity,
    )


class TestNodeTrace:
    PER_TICK = ("times", "raws", "quales", "deltas", "statuses", "modes")

    @pytest.mark.parametrize("record_identity", [True, False])
    def test_every_column_but_verdicts_and_identities_has_one_entry_per_tick(
        self, record_identity
    ):
        scenario = _contract_controller_scenario(record_identity)
        result = run_scenario(scenario)
        ticks = round(scenario.duration / scenario.dt)
        assert list(result.traces) == [node.name for node in scenario.nodes]
        for node in scenario.nodes:
            trace = result.traces[node.name]
            assert trace.figure == node.figure
            for column in self.PER_TICK:
                assert len(getattr(trace, column)) == ticks, column
            assert len(trace.verdicts) == (ticks if node.controller else 0)
            assert len(trace.identities) == (ticks if record_identity else 0)

    @pytest.mark.parametrize("scenario", [
        Scenario(duration=10.0, figures=[FigureSpec(name="f")]),
        Scenario(duration=0.0, figures=[FigureSpec(name="f")], nodes=[perfect_node()]),
    ], ids=["no_nodes", "zero_duration"])
    def test_empty_runs_export_only_the_ticks_header(self, scenario, tmp_path):
        export_run(run_scenario(scenario), str(tmp_path))
        assert (tmp_path / "ticks.csv").read_text() == TICKS_HEADER + "\n"


# -- stream independence ----------------------------------------------------------

_PROCESSES = st.sampled_from([Constant(), LinearDrift(rate=0.02), RandomWalk(std=0.05)])


@st.composite
def _small_nodes(draw, name, figures, pool):
    """A node on one of ``figures`` figures; social or a member only if ``pool``."""
    contract = draw(st.booleans())
    social = draw(st.sampled_from([None, *SocialBehavior])) if pool else None
    catalog = (
        Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(gain=1.0)),
        Strategy(id="slow", kind=StrategyKind.RECONFIGURE,
                 channel={"sampling_period": 0.3}),
    )
    if social is not None:
        catalog += (Strategy(id="grab", kind=StrategyKind.SOCIAL,
                             social=SocialAction.grab(Fraction("0.25"))),)
    controller = None
    if draw(st.booleans()):
        controller = ControllerSpec(catalog=catalog,
                                    learning=LearningSpec(enabled=draw(st.booleans())))
    return NodeSpec(
        name=name,
        figure=draw(st.integers(0, figures - 1)),
        channel=ChannelSpec(gain=draw(st.sampled_from([0.9, 1.1])),
                            noise_std=draw(st.sampled_from([0.0, 0.02])),
                            sampling_period=draw(st.sampled_from([0.1, 0.3]))),
        contract=hard_contract() if contract else None,
        detector=DetectorConfig() if contract and draw(st.booleans()) else None,
        behavior=draw(st.sampled_from([Passive(), Reactive(gain=0.5),
                                       Predictive(k=1), Predictive(k=2)])),
        social=social,
        member=pool and draw(st.booleans()),
        controller=controller,
    )


@st.composite
def _small_scenarios(draw):
    """One or two nodes on one or two figures, at most 30 s, with shocks and
    maybe a pool."""
    duration = draw(st.integers(5, 30))
    figures = [FigureSpec(name=f"f{i}", initial=draw(st.sampled_from([0.0, 1.0])),
                          process=draw(_PROCESSES))
               for i in range(draw(st.integers(1, 2)))]
    shocks, at = [], float(draw(st.integers(1, 3)))
    window = float(draw(st.integers(1, 3)))
    while at + window <= duration and len(shocks) < 4:
        shocks.append(ShockEvent(at=at, figure=draw(st.integers(0, len(figures) - 1)),
                                 magnitude=draw(st.sampled_from([-3.0, 2.0])),
                                 recovery_window=window))
        at += window + draw(st.integers(0, 3))
    pool = PoolSpec(total=2.0, join_allocation=0.5, solo_capacity=0.3) if draw(
        st.booleans()) else None
    nodes = [draw(_small_nodes(f"n{i}", len(figures), pool is not None))
             for i in range(draw(st.integers(1, 2)))]
    return Scenario(duration=float(duration), dt=0.1, seed=draw(st.integers(0, 9)),
                    figures=figures, shocks=shocks, nodes=nodes, pool=pool)


def _rows(result, names):
    return [m for m in result.recovery if m.node in names]


@settings(max_examples=40, deadline=None)
@given(_small_scenarios(), st.data())
def test_an_unpooled_node_leaves_every_other_node_as_it_was(scenario, data):
    """A node outside the pool, with no social behavior, draws from its own
    streams and touches no shared state."""
    extra = data.draw(_small_nodes("extra", len(scenario.figures), pool=False))
    base = run_scenario(scenario)
    more = run_scenario(replace(scenario, nodes=scenario.nodes + [extra]))
    names = {node.name for node in scenario.nodes}
    for name in names:
        assert more.traces[name] == base.traces[name]
    assert _rows(more, names) == base.recovery


@settings(max_examples=30, deadline=None)
@given(_small_scenarios(), st.lists(st.sampled_from([0.0, 0.1, 0.25]), min_size=2, max_size=2))
def test_every_node_of_a_run_records_the_same_times(scenario, latencies):
    """Episode costs are integrated over one time grid for all nodes: every
    node of the main run and of the calibration pre-run records each tick's
    time, whatever its sampling period, restaged period or latency."""
    nodes = [replace(node, channel=replace(node.channel, latency=latency))
             for node, latency in zip(scenario.nodes, latencies)]
    scenario = replace(scenario, nodes=nodes)
    ticks = [tick * scenario.dt for tick in range(1, round(scenario.duration / scenario.dt) + 1)]
    for passive in (False, True):
        result = engine._execute(scenario, baselines={}, passive_override=passive)
        assert [trace.times for trace in result.traces.values()] == [ticks] * len(nodes)


@settings(max_examples=40, deadline=None)
@given(_small_scenarios(), _PROCESSES)
def test_an_appended_figure_leaves_controller_free_nodes_as_they_were(scenario, process):
    """Each figure drifts on its own stream, so a new last figure changes no
    other figure. Controller nodes are excluded: the regime label their
    strategies are chosen and credited under averages over all figures. Their
    choices reach the nodes that share a pool with them, so when a controller
    node takes part in the pool, only nodes outside it are compared."""
    figures = scenario.figures + [FigureSpec(name="new", process=process)]
    wider = replace(scenario, figures=figures)
    base, more = run_scenario(scenario), run_scenario(wider)

    def pooled(node):
        return node.member or node.social is not None

    shared = any(node.controller is not None and pooled(node) for node in scenario.nodes)
    names = {
        node.name for node in scenario.nodes
        if node.controller is None and not (shared and pooled(node))
    }
    for name in names:
        assert more.traces[name] == base.traces[name]
    assert _rows(more, names) == _rows(base, names)
