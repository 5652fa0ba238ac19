import json
import math
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelitylab.behavior import Passive, Reactive
from fidelitylab.cli import _load_resume
from fidelitylab.controller import (
    LearningSpec,
    LearningState,
    Mode,
    ModeController,
    MonitorState,
    Safety,
    SafetyPredicate,
    Strategy,
    StrategyKind,
    assess_safety,
    compute_reward,
    monitor_step,
)
from fidelitylab.engine import (
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    RunResult,
    Scenario,
    run_scenario,
    validate_resume,
)
from fidelitylab.environment import ShockEvent
from fidelitylab.errors import CatalogError, SequencingError
from fidelitylab.identity import ContractStatus, IdentityClass
from fidelitylab.reflection import DeltaSample
from fidelitylab.reporting import write_learning_state
from fidelitylab.rng import substream


def feed(monitor, values, start=0.0, dt=1.0):
    for i, v in enumerate(values):
        monitor_step(monitor, DeltaSample(time=start + i * dt, delta=v))
    return monitor


class TestMonitor:
    def test_zero_stream_is_fixed_point(self):
        monitor = feed(MonitorState(0.1, 10), [0.0] * 100)
        assert monitor.ewma == 0.0

    def test_constant_stream_converges_monotonically(self):
        monitor = MonitorState(0.2, 10)
        previous = 0.0
        for i in range(50):
            monitor_step(monitor, DeltaSample(time=float(i), delta=3.0))
            assert monitor.ewma > previous
            previous = monitor.ewma
        assert monitor.ewma == pytest.approx(3.0, abs=1e-4)

    def test_three_step_recursion_by_hand(self):
        # {1, 0, 0} at alpha 0.5: 0.5, 0.25, 0.125
        monitor = feed(MonitorState(0.5, 10), [1.0, 0.0, 0.0])
        assert monitor.ewma == pytest.approx(0.125)

    def test_out_of_order_sample_rejected(self):
        monitor = feed(MonitorState(0.1, 10), [0.0, 0.0])
        with pytest.raises(SequencingError):
            monitor_step(monitor, DeltaSample(time=0.5, delta=0.0))

    def test_magnitude_not_sign_is_tracked(self):
        monitor = feed(MonitorState(0.5, 10), [-1.0])
        assert monitor.ewma == 0.5


class TestAssessSafety:
    def predicate(self, threshold=0.05, horizon=10):
        return SafetyPredicate(turbulence_threshold=threshold, horizon=horizon)

    def test_calm_holding_is_safe(self):
        monitor = feed(MonitorState(0.1, 10), [0.001] * 50)
        verdict = assess_safety(monitor, self.predicate(), ContractStatus.HOLDING)
        assert verdict is Safety.SAFE

    def test_contract_trigger_dominates(self):
        monitor = MonitorState(0.1, 10)
        assert assess_safety(monitor, self.predicate(), ContractStatus.VIOLATED) is Safety.UNSAFE
        assert assess_safety(monitor, self.predicate(), ContractStatus.AT_RISK) is Safety.UNSAFE

    def test_rising_trend_is_unsafe(self):
        monitor = feed(MonitorState(0.5, 5), [0, 0, 0, 1, 2, 4, 8])
        assert assess_safety(monitor, self.predicate(horizon=5), None) is Safety.UNSAFE

    def test_trend_exactly_at_threshold_is_safe(self):
        monitor = MonitorState(1.0, 1)
        monitor_step(monitor, DeltaSample(time=0.0, delta=0.0))
        monitor_step(monitor, DeltaSample(time=1.0, delta=0.05))
        assert monitor.trend() == pytest.approx(0.05)
        verdict = assess_safety(monitor, self.predicate(threshold=0.05, horizon=1), None)
        assert verdict is Safety.SAFE

    def test_unguarded_node_judged_on_trend_alone(self):
        monitor = feed(MonitorState(0.1, 10), [0.0] * 5)
        assert assess_safety(monitor, self.predicate(), None) is Safety.SAFE


class TestModeSwitch:
    def test_safe_keeps_elastic(self):
        controller = ModeController(hysteresis=10)
        assert controller.step(Safety.SAFE) is Mode.ELASTIC

    def test_unsafe_flips_immediately(self):
        controller = ModeController(hysteresis=10)
        assert controller.step(Safety.UNSAFE) is Mode.RESILIENT

    def test_exit_needs_full_hysteresis(self):
        controller = ModeController(hysteresis=10)
        controller.step(Safety.UNSAFE)
        for _ in range(9):
            assert controller.step(Safety.SAFE) is Mode.RESILIENT
        assert controller.step(Safety.SAFE) is Mode.ELASTIC

    def test_unsafe_resets_the_streak(self):
        controller = ModeController(hysteresis=3)
        controller.step(Safety.UNSAFE)
        controller.step(Safety.SAFE)
        controller.step(Safety.SAFE)
        controller.step(Safety.UNSAFE)
        assert controller.step(Safety.SAFE) is Mode.RESILIENT
        assert controller.step(Safety.SAFE) is Mode.RESILIENT
        assert controller.step(Safety.SAFE) is Mode.ELASTIC


def catalog(*ids):
    return [
        Strategy(id=i, kind=StrategyKind.RECONFIGURE, behavior=Passive())
        for i in ids
    ]


class TestSelection:
    def test_single_strategy_always_chosen(self):
        learning = LearningState(catalog("only"))
        for ep in range(5):
            s = learning.select("calm")
            assert s.id == "only"
            learning.update("calm", s.id, 0.5, ep)

    def test_unpulled_arms_first_in_catalog_order(self):
        learning = LearningState(catalog("a", "b", "c"))
        assert learning.select("calm").id == "a"
        learning.update("calm", "a", 0.9, 0)
        assert learning.select("calm").id == "b"
        learning.update("calm", "b", 0.1, 1)
        assert learning.select("calm").id == "c"

    def test_ucb_arithmetic_example(self):
        # direct-formula oracle: (0.5, 10 pulls) vs (0.4, 2 pulls), 12 total
        total = 12
        score_a = 0.5 + math.sqrt(2 * math.log(total) / 10)
        score_b = 0.4 + math.sqrt(2 * math.log(total) / 2)
        assert score_a == pytest.approx(1.205, abs=5e-4)
        assert score_b == pytest.approx(1.976, abs=5e-4)
        assert score_b > score_a

        learning = LearningState(catalog("a", "b"))
        arms = learning._regime_arms("calm")
        arms["a"].pulls, arms["a"].mean = 10, 0.5
        arms["b"].pulls, arms["b"].mean = 2, 0.4
        assert learning.select("calm").id == "b"

    def test_ties_break_to_lowest_catalog_index(self):
        learning = LearningState(catalog("first", "second"))
        arms = learning._regime_arms("calm")
        arms["first"].pulls = arms["second"].pulls = 5
        arms["first"].mean = arms["second"].mean = 0.5
        assert learning.select("calm").id == "first"

    def test_empty_catalog_rejected(self):
        with pytest.raises(CatalogError):
            LearningState([]).select("calm")

    def test_regimes_learn_independently(self):
        learning = LearningState(catalog("a", "b"))
        learning.update("calm", "a", 1.0, 0)
        learning.update("calm", "b", 0.0, 1)
        learning.update("turbulent", "a", 0.0, 2)
        learning.update("turbulent", "b", 1.0, 3)
        assert learning.ranks["calm"] == [0, 1]
        assert learning.ranks["turbulent"] == [1, 0]

    def test_epsilon_greedy_explores_with_stream(self):
        learning = LearningState(catalog("a", "b"),
                                 LearningSpec(algorithm="epsilon_greedy", epsilon=1.0))
        rng = substream(9, "select")
        learning.update("calm", "a", 1.0, 0)
        picks = {learning.select("calm", rng).id for _ in range(20)}
        assert picks == {"a", "b"}  # pure exploration visits both


class TestEvaluation:
    def test_perfect_recovery_reward_one(self):
        assert compute_reward(0.0, baseline=5.0) == 1.0

    def test_worst_case_reward_zero(self):
        assert compute_reward(5.0, baseline=5.0) == 0.0
        assert compute_reward(9.0, baseline=5.0) == 0.0

    def test_incremental_mean_recursion(self):
        # (0.5 * 2 + 0.8) / 3 = 0.6
        learning = LearningState(catalog("a"))
        learning.update("calm", "a", 0.5, 0)
        learning.update("calm", "a", 0.5, 1)
        learning.update("calm", "a", 0.8, 2)
        assert learning.arms["calm"]["a"].mean == pytest.approx(0.6)
        assert learning.arms["calm"]["a"].pulls == 3

    def test_unknown_strategy_rejected(self):
        learning = LearningState(catalog("a"))
        with pytest.raises(CatalogError):
            learning.update("calm", "ghost", 0.5, 0)

    def test_evaluate_and_learn_returns_reward(self):
        learning = LearningState(catalog("a"))
        reward = compute_reward(cost=1.0, baseline=4.0)
        learning.update("calm", "a", reward, 0)
        assert reward == pytest.approx(0.75)
        assert learning.history == [
            {"episode": 0, "regime": "calm", "strategy": "a", "reward": 0.75}
        ]

    def test_ranks_are_a_permutation(self):
        learning = LearningState(catalog("a", "b", "c"))
        learning.update("calm", "b", 0.9, 0)
        learning.update("calm", "c", 0.5, 1)
        assert sorted(learning.ranks["calm"]) == [0, 1, 2]
        assert learning.ranks["calm"][0] == 1  # b leads


def save(learning, path):
    """Persist one node's state as a run does."""
    result = RunResult(scenario_name="s", seed=0, learning_docs={"n0": learning.to_document()})
    write_learning_state(result, str(path))


def learner(catalog):
    """A scenario whose one node, n0, learns over ``catalog``."""
    controller = ControllerSpec(catalog=tuple(catalog))
    return Scenario(nodes=[NodeSpec(name="n0", controller=controller)])


def load(path, catalog):
    """Restore that node's state as ``--resume`` does."""
    restored = LearningState(catalog)
    restored.load_document(json.loads(path.read_text())["n0"])
    return restored


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        learning = LearningState(catalog("a", "b"))
        rng = substream(3, "select")
        for ep in range(7):
            s = learning.select("calm", rng)
            learning.update("calm", s.id, 0.1 * ep, ep)
        path = tmp_path / "state.json"
        save(learning, path)
        restored = load(path, catalog("a", "b"))
        assert restored.to_document() == learning.to_document()
        path2 = tmp_path / "state2.json"
        save(restored, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_restored_state_continues_identically(self, tmp_path):
        learning = LearningState(catalog("a", "b"))
        for ep in range(4):
            s = learning.select("calm")
            learning.update("calm", s.id, [0.3, 0.9, 0.5, 0.6][ep], ep)
        path = tmp_path / "state.json"
        save(learning, path)
        restored = load(path, catalog("a", "b"))
        for ep in range(4, 12):
            assert restored.select("calm").id == learning.select("calm").id
            sid = learning.select("calm").id
            learning.update("calm", sid, 0.4, ep)
            restored.update("calm", sid, 0.4, ep)

    def test_catalog_mismatch_rejected(self, tmp_path):
        learning = LearningState(catalog("a"))
        path = tmp_path / "state.json"
        save(learning, path)
        docs = json.loads(path.read_text())
        assert validate_resume(learner(catalog("a")), docs) == []
        assert validate_resume(learner(catalog("z")), docs) == [
            "n0.catalog: expected the scenario's ['z']"
        ]

    def test_version_checked(self, tmp_path):
        docs = {"n0": {"version": 99, "catalog": ["a"]}}
        assert validate_resume(learner(catalog("a")), docs) == ["n0.version: expected 1, got 99"]


@st.composite
def _learning_scenarios(draw):
    """One or two guarded nodes with a gain-mismatched channel, learning
    over two or three reactive gains, under four to eight alternating
    shocks."""
    catalog = tuple(
        Strategy(id=f"g{gain}", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(gain=gain))
        for gain in (0.05, 1.0, 0.5)[:draw(st.integers(2, 3))]
    )
    controller = ControllerSpec(
        hysteresis=5, catalog=catalog,
        learning=LearningSpec(algorithm=draw(st.sampled_from(["ucb1", "epsilon_greedy"]))),
    )
    shocks = [
        ShockEvent(at=2.0 + 3.0 * i, figure=0, magnitude=10.0 * (-1) ** i,
                   recovery_window=2.0)
        for i in range(draw(st.integers(4, 8)))
    ]
    nodes = [
        NodeSpec(
            name=f"n{i}",
            channel=ChannelSpec(gain=draw(st.sampled_from([1.1, 1.3])), noise_std=0.01),
            contract=ContractSpec(identity=IdentityClass.hard(0.1), window=10),
            behavior=Reactive(gain=0.2),
            controller=controller,
        )
        for i in range(draw(st.integers(1, 2)))
    ]
    return Scenario(duration=shocks[-1].at + 3.0, seed=draw(st.integers(0, 99)),
                    figures=[FigureSpec(name="load")], shocks=shocks, nodes=nodes)


class TestResume:
    @settings(max_examples=25, deadline=None)
    @given(_learning_scenarios(), st.integers(1, 99))
    def test_a_resumed_run_extends_the_saved_state(self, scenario, offset):
        """Run A, then B from A's learning_state.json under another seed: B's
        history starts with A's, and each arm's pulls are A's plus B's own
        history entries for it. The saved state also survives a load and a
        save byte for byte."""
        with tempfile.TemporaryDirectory() as tmp:
            saved = Path(tmp, "a.json")
            a = run_scenario(scenario)
            write_learning_state(a, str(saved))
            docs = _load_resume(str(saved))
            b = run_scenario(replace(scenario, seed=scenario.seed + offset),
                             resume_learning=docs, resume_source=str(saved))

            for name, doc_a in a.learning_docs.items():
                doc_b, own = b.learning_docs[name], len(doc_a["history"])
                assert doc_b["history"][:own] == doc_a["history"]
                added = Counter((e["regime"], e["strategy"]) for e in doc_b["history"][own:])
                assert doc_a["regimes"].keys() <= doc_b["regimes"].keys()
                for regime, arms in doc_b["regimes"].items():
                    before = {arm["strategy_id"]: arm["pulls"]
                              for arm in doc_a["regimes"].get(regime, ())}
                    for arm in arms:
                        sid = arm["strategy_id"]
                        assert arm["pulls"] == before.get(sid, 0) + added[regime, sid]

            ctrl = scenario.nodes[0].controller
            restored = {}
            for name, doc in docs.items():
                learning = LearningState(ctrl.catalog, ctrl.learning)
                learning.load_document(doc)
                restored[name] = learning.to_document()
            again = Path(tmp, "again.json")
            write_learning_state(RunResult("s", 0, learning_docs=restored), str(again))
            assert again.read_bytes() == saved.read_bytes()


class TestConvergence:
    def test_better_arm_dominates_late_episodes(self):
        # Synthetic bandit: reward gap 0.65 (comfortably past the 0.3 boundary,
        # where the default exploration constant still forces ~25% exploration),
        # noise std 0.05, 30 episodes, 20 seeds; episodes 11-30 must pick the
        # better arm at least 80% of the time in aggregate.
        gap, noise = 0.65, 0.05
        late_hits, late_total = 0, 0
        for seed in range(20):
            rng = substream(seed, "rewards")
            learning = LearningState(catalog("weak", "strong"))
            for ep in range(30):
                s = learning.select("calm")
                mean = 0.9 if s.id == "strong" else 0.9 - gap
                reward = mean + noise * rng.standard_normal()
                learning.update("calm", s.id, reward, ep)
                if ep >= 10:
                    late_total += 1
                    late_hits += s.id == "strong"
        assert late_hits / late_total >= 0.80
