import itertools
from statistics import median

import pytest

from fidelitylab import engine
from fidelitylab.behavior import Passive, Reactive
from fidelitylab.collective import SocialBehavior
from fidelitylab.controller import (
    Safety,
    SafetyPredicate,
    Strategy,
    StrategyKind,
    replay_modes,
)
from fidelitylab.engine import (
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    PoolSpec,
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
from fidelitylab.environment import LinearDrift, ShockEvent
from fidelitylab.errors import ConfigurationError, InsufficientDataError
from fidelitylab.identity import ContractStatus, DetectorConfig, IdentityClass
from fidelitylab.reporting import export_run


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


class TestRunBasics:
    def test_zero_duration_run_is_empty(self):
        scenario = Scenario(
            duration=0.0, dt=0.1,
            figures=[FigureSpec(name="f")],
            nodes=[perfect_node()],
        )
        result = run_scenario(scenario)
        assert result.ticks == []
        assert result.recovery == []
        assert result.identity_rows == []

    def test_isomorphism_limit(self):
        scenario = Scenario(
            duration=20.0, dt=0.1, seed=5,
            figures=[FigureSpec(name="f", initial=5.0)],
            nodes=[perfect_node(controller=ControllerSpec(
                catalog=(Strategy(id="s", kind=StrategyKind.RECONFIGURE,
                                  behavior_spec={"kind": "reactive", "gain": 1.0}),),
            ))],
        )
        result = run_scenario(scenario)
        assert all(d == 0.0 for d in result.node_deltas["n0"])
        assert all(label == "HardRT" for _, _, label in result.identity_rows)
        assert all(m.value == "elastic" for m in result.node_modes["n0"])
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
                        behavior=Reactive(feedback_gain=0.5),
                        social=None,
                        member=True,
                        controller=ControllerSpec(catalog=(
                            Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                                     behavior_spec={"kind": "reactive", "gain": 1.0}),
                            Strategy(id="weak", kind=StrategyKind.RECONFIGURE,
                                     behavior_spec={"kind": "reactive", "gain": 0.1}),
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

        clean_a = run_scenario(scenario(1, 0.0)).node_deltas["n0"]
        clean_b = run_scenario(scenario(2, 0.0)).node_deltas["n0"]
        assert clean_a == clean_b
        noisy_a = run_scenario(scenario(1, 0.1)).node_deltas["n0"]
        noisy_b = run_scenario(scenario(2, 0.1)).node_deltas["n0"]
        assert noisy_a != noisy_b

    def test_tick_stage_order_contract(self, monkeypatch):
        per_node = ["sensing", "delta", "identity", "controller", "behavior"]
        expected_tick = (
            ["boundary", "environment"] + per_node * 2 + ["collective", "metrics"]
        )
        stage_log = []

        def logged(name, stage):
            def wrapper(*args, **kwargs):
                stage_log.append(name)
                return stage(*args, **kwargs)
            return wrapper

        for name in set(expected_tick):
            monkeypatch.setattr(engine._Run, name, logged(name, getattr(engine._Run, name)))
        scenario = Scenario(
            duration=0.2, dt=0.1,
            figures=[FigureSpec(name="f")],
            pool=PoolSpec(total=1.0),
            nodes=[perfect_node("a"), perfect_node("b")],
        )
        run_scenario(scenario)
        assert stage_log == expected_tick * 2  # two ticks

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
                NodeSpec(name="x", behavior=Reactive(feedback_gain=5.0)),
            ],
        )
        problems = validate_scenario(scenario)
        text = "\n".join(problems)
        assert len(problems) >= 6
        assert "shocks[0].figure" in text
        assert "recovery window" in text
        assert "overlap" in text
        assert "nodes[0].figure" in text
        assert "sampling_period" in text
        assert "duplicate node name" in text
        assert "feedback gain" in text

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
        metrics = compute_recovery_metrics(times, deltas, statuses, [shock], node="n")
        assert metrics[0].cost == 0.0
        assert metrics[0].restoration_time == pytest.approx(0.1)

    def test_constant_delta_integrates_to_rectangle(self):
        times = [0.1 * i for i in range(1, 101)]
        deltas = [0.5] * 100
        shock = ShockEvent(at=2.0, figure=0, magnitude=0.0, recovery_window=4.0)
        cost = episode_cost(times, deltas, shock.at, shock.at + shock.recovery_window)
        assert cost == pytest.approx(0.5 * 4.0)

    def test_triangular_decay_integrates_to_half_rectangle(self):
        # piecewise-linear decay: the trapezoid rule is exact on it
        shock_at, window, peak = 2.0, 4.0, 0.8
        times = [0.1 * i for i in range(1, 101)]
        deltas = [
            peak * max(0.0, 1.0 - (t - shock_at) / window) if t >= shock_at else 0.0
            for t in times
        ]
        cost = episode_cost(times, deltas, shock_at, shock_at + window)
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
                behavior=Reactive(feedback_gain=0.8),
                controller=ControllerSpec(
                    safety=SafetyPredicate(turbulence_threshold=0.05 * scale),
                    catalog=(Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                                      behavior_spec={"kind": "reactive", "gain": 1.0}),),
                ),
            )],
        )

    def test_doubling_units_preserves_timelines(self):
        base = run_scenario(self.build(1.0))
        doubled = run_scenario(self.build(2.0))
        assert base.identity_rows == doubled.identity_rows
        assert base.node_modes["n0"] == doubled.node_modes["n0"]
        assert [s for s in base.node_status["n0"]] == [s for s in doubled.node_status["n0"]]
        # deltas scale exactly by the unit factor (power of two)
        assert all(
            2.0 * a == b
            for a, b in zip(base.node_deltas["n0"], doubled.node_deltas["n0"])
        )


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
                behavior=Reactive(feedback_gain=1.0),
                controller=ControllerSpec(hysteresis=7),
            )],
        )
        result = run_scenario(scenario)
        verdicts = result.node_verdicts["n0"]
        assert Safety.UNSAFE in verdicts
        assert replay_modes(verdicts, hysteresis=7) == result.node_modes["n0"]


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
                behavior=Reactive(feedback_gain=1.0),
                social=SocialBehavior.NEUTRAL,
                member=True,
                controller=ControllerSpec(catalog=catalog),
            )],
        )

    def test_identical_reconfigure_records_pre_equals_post(self):
        catalog = (Strategy(id="same", kind=StrategyKind.RECONFIGURE,
                            behavior_spec={"kind": "reactive", "gain": 1.0}),)
        result = run_scenario(self.scenario(catalog))
        records = [c for c in result.changes if c.strategy_id == "same"]
        assert records
        assert records[0].pre == records[0].post

    def test_infeasible_social_strategy_scores_zero(self):
        # Join submitted by a node that is already a member: rejected, and the
        # episode it was meant to serve is credited zero reward.
        catalog = (Strategy(id="rally", kind=StrategyKind.SOCIAL,
                            social_spec={"kind": "join"}),)
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
                     behavior_spec={"kind": "reactive", "gain": 1.0}),
            Strategy(id="weak", kind=StrategyKind.RECONFIGURE,
                     behavior_spec={"kind": "reactive", "gain": 0.005}),
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
                         behavior=Reactive(feedback_gain=0.2),
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
                behavior=Reactive(feedback_gain=1.0),
                social=None,
                member=True,
            )],
        )
        result = run_scenario(scenario)
        assert result.pool_violations == 0
        deltas = result.node_deltas["n0"]
        shock_idx = 49  # tick 50 is t=5.0
        assert result.node_times["n0"][shock_idx] == pytest.approx(5.0)
        # capacity 0.02/tick: one tick after the shock the error shrank by
        # exactly the allocation, not the full reactive correction
        assert deltas[shock_idx] == pytest.approx(1.0)
        assert deltas[shock_idx + 1] == pytest.approx(1.0 - 0.02)
