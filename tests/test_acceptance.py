"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Heavier criteria reuse seeded full-engine runs; every expected value
is either computed by an independent oracle inside the test or asserted
exactly where the design guarantees exactness.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from fidelitylab.behavior import Passive, Predictive, Reactive
from fidelitylab.collective import SocialBehavior, diversity_score
from fidelitylab.controller import Strategy, StrategyKind
from fidelitylab.engine import (
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    PoolSpec,
    Scenario,
    Verdict,
    run_scenario,
)
from fidelitylab.environment import LinearDrift, ShockEvent
from fidelitylab.identity import (
    BEST_EFFORT_COVERAGE,
    ContractGroup,
    DetectorConfig,
    IdentityClass,
    IdentityKind,
    classify_trace,
)
from fidelitylab.reflection import ReflectiveMap, preservation_distance
from fidelitylab.reporting import export_run


def flag(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


# -- criterion 1: algebraic model ------------------------------------------


def test_criterion_1_algebraic_model_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20240101)
    # Dyadic raw values and parameters keep binary arithmetic exact, so the
    # affine identity q(u1+u2) - q(u1) - q(u2) = -bias holds bit-for-bit.
    for gain, bias in [(1.0, 0.25), (1.5, -0.5), (2.0, 0.0), (0.5, 3.75)]:
        channel = ReflectiveMap(figure=0, gain=gain, bias=bias)
        draws = rng.integers(-16384, 16384, size=(1000, 2)) / 256.0
        for u1, u2 in draws:
            assert preservation_distance(channel, float(u1), float(u2)) == -bias

    # Quantized channels: |distance| <= 1.5 Q + |bias| over a dense grid.
    for q_step, bias in [(0.5, 0.0), (0.25, 0.25), (0.125, -0.75)]:
        channel = ReflectiveMap(figure=0, gain=1.0, bias=bias, quantization=q_step)
        bound = 1.5 * q_step + abs(bias)
        grid = np.arange(0.0, 4.0, 1.0 / 32)
        for u1 in grid:
            for u2 in grid[::3]:
                assert abs(preservation_distance(channel, float(u1), float(u2))) <= bound

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    flag(1, f"affine distance == -bias on 4000 pairs, quantization bound exact "
            f"({elapsed:.2f}s)")


# -- criterion 2: classifier oracle equivalence ------------------------------


def _reference_classify(mags, hard, soft_mean, soft_std, bound):
    """Independent ladder: recompute the statistics directly."""
    if float(np.max(mags)) <= hard:
        return IdentityKind.HARD_RT
    if float(np.mean(mags)) <= soft_mean and float(np.std(mags)) <= soft_std:
        return IdentityKind.SOFT_RT
    if float(np.mean(mags <= bound)) >= BEST_EFFORT_COVERAGE:
        return IdentityKind.BEST_EFFORT
    return IdentityKind.NON_RT


def test_criterion_2_classifier_matches_bruteforce_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    matches = 0
    for case in range(200):
        n = int(rng.integers(50, 400))
        kind = case % 3
        if kind == 0:  # bounded
            deltas = rng.uniform(-1.0, 1.0, size=n) * rng.uniform(0.02, 0.3)
        elif kind == 1:  # gaussian with outliers
            deltas = rng.normal(0.0, rng.uniform(0.01, 0.2), size=n)
            outliers = rng.random(n) < 0.03
            deltas[outliers] += rng.choice([-1.0, 1.0], size=int(outliers.sum())) * 2.0
        else:  # heavy-tailed
            deltas = rng.standard_t(df=2, size=n) * rng.uniform(0.01, 0.1)
        hard = float(rng.uniform(0.05, 0.5))
        soft_mean = float(rng.uniform(0.02, 0.3))
        soft_std = float(rng.uniform(0.02, 0.4))
        bound = float(rng.uniform(0.05, 0.5))
        candidate = IdentityClass(
            kind=IdentityKind.HARD_RT, hard_threshold=hard,
            soft_mean=soft_mean, soft_std=soft_std, acceptability_bound=bound,
        )
        got = classify_trace(np.abs(deltas), candidate)
        expected = _reference_classify(np.abs(deltas), hard, soft_mean, soft_std, bound)
        matches += got is expected
        assert got is expected, f"case {case}: {got} != {expected}"
    elapsed = time.perf_counter() - started
    assert matches == 200
    assert elapsed < 5.0
    flag(2, f"200/200 synthetic traces match the brute-force reference ({elapsed:.2f}s)")


# -- criterion 3: isomorphism limit -------------------------------------------


def test_criterion_3_isomorphism_limit():
    scenario = Scenario(
        name="reference-point", duration=30.0, dt=0.1, seed=1,
        figures=[FigureSpec(name="light", initial=5.0)],
        nodes=[NodeSpec(
            name="n0",
            channel=ChannelSpec(sampling_period=0.1),
            contract=ContractSpec(identity=IdentityClass.hard(0.1), window=50),
            detector=DetectorConfig(),
            behavior=Passive(),
            controller=ControllerSpec(catalog=(
                Strategy(id="spare", kind=StrategyKind.RECONFIGURE,
                         behavior=Reactive(feedback_gain=1.0)),
            )),
        )],
    )
    result = run_scenario(scenario)
    trace = result.traces["n0"]
    assert all(d == 0.0 for d in trace.deltas)
    assert all(label == "HardRT" for label in trace.identities)
    assert all(m.value == "elastic" for m in trace.modes)
    assert result.overhead_counters["n0"] == 0
    flag(3, "perfect channel: all-zero trace, HardRT and Elastic at every tick, "
            "zero model-building operations")


# -- criterion 4: behavior ordering -------------------------------------------


def test_criterion_4_behavior_ordering_under_linear_drift():
    nodes = [
        NodeSpec(name=name,
                 channel=ChannelSpec(sampling_period=0.1,
                                     bias_drift=LinearDrift(rate=0.01)),
                 behavior=behavior)
        for name, behavior in [
            ("passive", Passive()),
            ("reactive", Reactive(feedback_gain=1.0)),
            ("predictive", Predictive(k=1, window=8)),
        ]
    ]
    scenario = Scenario(
        name="drift-race", duration=100.0, dt=0.1, seed=4,
        figures=[FigureSpec(name="f", initial=1.0)],
        nodes=nodes,
    )
    result = run_scenario(scenario)
    cost = {
        name: float(np.sum(np.abs(result.traces[name].deltas))) * scenario.dt
        for name in ("passive", "reactive", "predictive")
    }
    assert cost["predictive"] < cost["reactive"] < cost["passive"]
    warm = np.abs(result.traces["predictive"].deltas[10:])
    assert float(np.max(warm)) < 1e-6
    flag(4, f"integrated |delta|: predictive {cost['predictive']:.2e} < reactive "
            f"{cost['reactive']:.3f} < passive {cost['passive']:.1f}; predictive "
            f"residual {float(np.max(warm)):.1e} after warm-up")


# -- criterion 5: drift detector vs scalar recursion --------------------------


def test_criterion_5_cusum_matches_recursion_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(555)
    checked = 0
    for _ in range(50):
        slack = float(rng.uniform(0.005, 0.05))
        threshold = float(rng.uniform(0.05, 0.5))
        slope = float(rng.uniform(0.0005, 0.005))
        deltas = [slope * i for i in range(3000)]
        s, oracle_tick = 0.0, None
        for i, x in enumerate(deltas):
            s = max(0.0, s + abs(x) - slack)
            if s > threshold:
                oracle_tick = i
                break
        assert oracle_tick is not None
        contract = IdentityClass.hard(1e9)  # contract path silenced
        guard = ContractGroup(
            contract, 10, detector=DetectorConfig(slack=slack, threshold=threshold, window=10)
        )
        event = next(
            (fired[0][1] for i, d in enumerate(deltas)
             if (fired := guard.step(float(i), [abs(d)])[2])),
            None,
        )
        assert event is not None
        assert event.time == float(oracle_tick)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 50
    assert elapsed < 2.0
    flag(5, f"event tick equals the recursion oracle on 50 random "
            f"(slack, threshold, slope) configurations ({elapsed:.2f}s)")


# -- criteria 6 and 7: learning scenarios --------------------------------------


def _shock_train(episodes, spacing, window):
    shocks, magnitude = [], 10.0
    for i in range(episodes):
        shocks.append(ShockEvent(at=5.0 + i * spacing, figure=0,
                                 magnitude=magnitude, recovery_window=window))
        magnitude = -magnitude
    return shocks


def _learning_node(catalog, learning_enabled=True):
    return NodeSpec(
        name="n0",
        channel=ChannelSpec(gain=1.1, nominal_gain=1.0, noise_std=0.01,
                            sampling_period=0.1),
        contract=ContractSpec(identity=IdentityClass.hard(0.1), window=20),
        behavior=Reactive(feedback_gain=0.2),
        controller=ControllerSpec(hysteresis=10, learning_enabled=learning_enabled,
                                  catalog=catalog),
    )


def _two_arm_scenario(seed):
    catalog = (
        Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(feedback_gain=1.0)),
        Strategy(id="weak", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(feedback_gain=0.005)),
    )
    return Scenario(
        name="two-arm", duration=455.0, dt=0.1, seed=seed, record_identity=False,
        figures=[FigureSpec(name="load", initial=0.0)],
        shocks=_shock_train(30, 15.0, 8.0),
        nodes=[_learning_node(catalog)],
    )


def test_criterion_6_learning_convergence():
    started = time.perf_counter()
    late_hits = late_total = 0
    gaps, reward_noise = [], []
    for seed in range(20):
        result = run_scenario(_two_arm_scenario(seed))
        history = sorted(result.learning_docs["n0"]["history"],
                         key=lambda h: h["episode"])
        assert len(history) == 30
        rewards = defaultdict(list)
        for entry in history:
            rewards[entry["strategy"]].append(entry["reward"])
        gaps.append(np.mean(rewards["firm"]) - np.mean(rewards["weak"]))
        reward_noise.append(max(
            float(np.std(v)) for v in rewards.values() if len(v) > 1
        ))
        picks = [entry["strategy"] for entry in history]
        late_hits += sum(1 for p in picks[10:30] if p == "firm")
        late_total += 20
    elapsed = time.perf_counter() - started
    rate = late_hits / late_total
    assert min(gaps) >= 0.3          # true reward gap requirement
    assert max(reward_noise) <= 0.05  # bounded reward noise
    assert rate >= 0.80
    assert elapsed < 60.0
    flag(6, f"better strategy in {rate:.0%} of episodes 11-30 over 20 seeds "
            f"(gap >= {min(gaps):.2f}, reward noise <= {max(reward_noise):.3f}, "
            f"{elapsed:.0f}s)")


LADDER_GAINS = [0.01, 0.0116, 0.0133, 0.0151, 0.0171, 0.0194, 0.0218, 0.0246,
                0.0277, 0.0314, 0.0356, 0.0407, 0.047, 0.055, 0.0657, 0.081,
                0.1053, 0.1501, 0.261, 1.0]


def _ladder_scenario(seed, learning_enabled):
    # Catalog ordered from most conservative corrective effort to most
    # aggressive; per-episode recovery cost declines as experience accrues.
    catalog = tuple(
        Strategy(id=f"effort{i:02d}", kind=StrategyKind.RECONFIGURE,
                 behavior=Reactive(feedback_gain=gain))
        for i, gain in enumerate(LADDER_GAINS)
    )
    return Scenario(
        name="ladder", duration=905.0, dt=0.1, seed=seed, record_identity=False,
        figures=[FigureSpec(name="load", initial=0.0)],
        shocks=_shock_train(30, 30.0, 8.0),
        nodes=[_learning_node(catalog, learning_enabled=learning_enabled)],
    )


def test_criterion_7_antifragility_verdicts():
    started = time.perf_counter()
    antifragile = 0
    not_antifragile = 0
    for seed in range(20):
        learn = run_scenario(_ladder_scenario(seed, learning_enabled=True))
        assert learn.antifragility is not None
        antifragile += learn.antifragility.verdict == Verdict.ANTIFRAGILE
        fixed = run_scenario(_ladder_scenario(seed, learning_enabled=False))
        not_antifragile += fixed.antifragility.verdict in (
            Verdict.ROBUST, Verdict.FRAGILE,
        )
    elapsed = time.perf_counter() - started
    assert antifragile >= 16
    assert not_antifragile >= 16
    assert elapsed < 120.0
    flag(7, f"learning-on Antifragile in {antifragile}/20 seeds, learning-off "
            f"Robust/Fragile in {not_antifragile}/20 ({elapsed:.0f}s)")


# -- criteria 8 and 10: population runs ----------------------------------------


def _population_scenario(seed, designs, hit_figures):
    shocks = [
        ShockEvent(at=20.0 + 0.1 * i, figure=int(figure), magnitude=10.0,
                   recovery_window=25.0)
        for i, figure in enumerate(sorted(hit_figures))
    ]
    nodes = [
        NodeSpec(
            name=f"n{i}", figure=i,
            channel=ChannelSpec(gain=1.1, nominal_gain=1.0, sampling_period=0.1),
            contract=ContractSpec(identity=IdentityClass.hard(0.1), window=20),
            behavior=behavior, social=social, member=True,
        )
        for i, (behavior, social) in enumerate(designs)
    ]
    return Scenario(
        name="population", duration=50.0, dt=0.1, seed=seed, record_identity=False,
        figures=[FigureSpec(name=f"f{i}", initial=0.0) for i in range(8)],
        shocks=shocks,
        pool=PoolSpec(total=1.0, join_allocation=0.1, solo_capacity=0.0,
                      floor=0.1, assist_quantum=0.02, calm_window=600),
        nodes=nodes,
    )


def _monoculture():
    return [(Reactive(feedback_gain=1.0), SocialBehavior.NEUTRAL) for _ in range(8)]


def _diverse_population():
    return [
        (Reactive(feedback_gain=1.0), SocialBehavior.COOPERATIVE),
        (Reactive(feedback_gain=1.0), SocialBehavior.COOPERATIVE),
        (Predictive(k=1, window=8), SocialBehavior.COOPERATIVE),
        (Predictive(k=1, window=8), SocialBehavior.COOPERATIVE),
        (Reactive(feedback_gain=1.0), SocialBehavior.NEUTRAL),
        (Reactive(feedback_gain=1.0), SocialBehavior.NEUTRAL),
        (Reactive(feedback_gain=1.0), SocialBehavior.INDIVIDUALISTIC),
        (Reactive(feedback_gain=1.0), SocialBehavior.INDIVIDUALISTIC),
    ]


def _worst_restoration(result):
    worst = 0.0
    for metric in result.recovery:
        if metric.restoration_time is None:
            return float("inf")
        worst = max(worst, metric.restoration_time)
    return worst


@pytest.fixture(scope="module")
def population_trials():
    trials = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        hit = rng.choice(8, size=4, replace=False)
        mono = run_scenario(_population_scenario(seed, _monoculture(), hit))
        diverse = run_scenario(_population_scenario(seed, _diverse_population(), hit))
        trials.append((mono, diverse))
    return trials


def test_criterion_8_diversity_beats_monoculture(population_trials):
    started = time.perf_counter()
    mono_pairs = [(type(b).__name__, s.value) for b, s in _monoculture()]
    diverse_pairs = [(type(b).__name__, s.value) for b, s in _diverse_population()]
    assert diversity_score(mono_pairs) == 0.0
    assert diversity_score(diverse_pairs) == pytest.approx(1.0)

    wins = sum(
        _worst_restoration(diverse) <= _worst_restoration(mono)
        for mono, diverse in population_trials
    )
    elapsed = time.perf_counter() - started
    assert wins >= 18
    assert elapsed < 60.0
    flag(8, f"diverse worst-node recovery <= monoculture in {wins}/20 partial-shock "
            f"trials ({elapsed:.0f}s)")


def test_criterion_10_pool_conservation(population_trials):
    violations = sum(
        mono.pool_violations + diverse.pool_violations
        for mono, diverse in population_trials
    )
    ticks_swept = sum(
        len(mono.pool_log) + len(diverse.pool_log)
        for mono, diverse in population_trials
    )
    assert violations == 0
    flag(10, f"zero allocation-sum violations across {ticks_swept} pool-tick rows")


# -- criterion 9: determinism ---------------------------------------------------


def _determinism_scenario():
    return Scenario(
        name="det", duration=60.0, dt=0.1, seed=31,
        figures=[FigureSpec(name="f", initial=0.0,
                            process=LinearDrift(rate=0.005))],
        shocks=_shock_train(3, 18.0, 6.0),
        pool=PoolSpec(total=2.0, join_allocation=0.25),
        nodes=[
            NodeSpec(
                name="n0",
                channel=ChannelSpec(gain=1.05, nominal_gain=1.0,
                                    noise_std=0.01, quantization=0.001,
                                    sampling_period=0.2, latency=0.1),
                contract=ContractSpec(identity=IdentityClass.hard(0.2), window=20),
                detector=DetectorConfig(slack=0.02, threshold=0.3),
                behavior=Reactive(feedback_gain=0.5),
                social=SocialBehavior.NEUTRAL,
                member=True,
                controller=ControllerSpec(catalog=(
                    Strategy(id="firm", kind=StrategyKind.RECONFIGURE,
                             behavior=Reactive(feedback_gain=1.0)),
                    Strategy(id="careful", kind=StrategyKind.RECONFIGURE,
                             behavior=Predictive(k=1, window=8)),
                )),
            ),
        ],
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    export_run(run_scenario(_determinism_scenario()), str(out_a))
    export_run(run_scenario(_determinism_scenario()), str(out_b))
    for name in ("ticks.csv", "episodes.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    flag(9, "ticks.csv, episodes.csv and report.json byte-identical across reruns")
