import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelitylab.behavior import (
    ActiveNonPurposeful,
    CorrectiveAction,
    Observation,
    Passive,
    Predictive,
    PurposefulNonTeleological,
    Reactive,
    ZERO_ACTION,
    lstsq_stack,
    stage_predictions,
)
from fidelitylab.config import _Parser, behavior_from_spec, behavior_to_spec
from fidelitylab.engine import FigureSpec, NodeSpec, Scenario, validate_scenario
from fidelitylab.errors import ConfigurationError
from fidelitylab.reflection import DeltaSample


def behavior_problems(behavior, figures=1):
    """validate_scenario's lines for one node with this behavior, in an
    environment of ``figures`` figures (``figures`` context variables)."""
    return validate_scenario(Scenario(
        figures=[FigureSpec(name=f"f{i}") for i in range(figures)],
        nodes=[NodeSpec(name="n", behavior=behavior)],
    ))


def obs(delta, t=0.0, correction=0.0, context=()):
    return Observation(
        latest=DeltaSample(time=t, delta=delta),
        correction=correction,
        context=tuple(context),
    )


def staged(behavior, history, observation):
    """An observation as a ``stage_predictions`` row."""
    latest = observation.latest
    return (behavior, history, latest.time, observation.context, latest.delta,
            observation.correction)


class TestPassive:
    def test_always_zero(self):
        passive = Passive()
        for d in (0.0, 1.0, -3.5):
            assert passive.act(obs(d), passive.start()) == ZERO_ACTION

class TestActiveNonPurposeful:
    def test_cycles_schedule_regardless_of_observation(self):
        schedule = (CorrectiveAction(bias=0.1), CorrectiveAction(bias=-0.1))
        beh = ActiveNonPurposeful(schedule=schedule)
        cursor = beh.start()
        seen = [beh.act(obs(d), cursor).bias for d in (5.0, -5.0, 0.0, 1.0)]
        assert seen == [0.1, -0.1, 0.1, -0.1]

    def test_empty_schedule_is_inert(self):
        beh = ActiveNonPurposeful(schedule=())
        assert beh.act(obs(1.0), beh.start()) == ZERO_ACTION


class TestPurposefulNonTeleological:
    def test_fixed_policy_ignores_feedback(self):
        beh = PurposefulNonTeleological(policy=CorrectiveAction(bias=0.05))
        assert beh.act(obs(10.0), beh.start()).bias == 0.05
        assert beh.act(obs(-10.0), beh.start()).bias == 0.05


class TestReactive:
    def test_zero_delta_zero_action(self):
        assert Reactive(gain=1.0).act(obs(0.0), None) == ZERO_ACTION

    def test_proportional_correction(self):
        action = Reactive(gain=0.5).act(obs(0.4), None)
        assert action.bias == pytest.approx(-0.2)

    def test_gain_bounds(self):
        for gain in (0.0, 2.5):
            assert behavior_problems(Reactive(gain=gain)) == [
                "nodes[0].behavior.gain: must be in (0, 2]"
            ]
        assert behavior_problems(Reactive(gain=2.0)) == []

class TestPredictive:
    def test_collinear_history_extrapolates_exactly(self):
        # closed-form oracle: least squares through collinear points is the line
        ts, ys = np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.2, 0.3])
        coef = np.polyfit(ts, ys, 1)
        assert np.polyval(coef, 3.0) == pytest.approx(0.4)

        beh = Predictive(k=1, window=3)
        history = beh.start()
        first = beh.act(obs(0.1, t=0.0), history)
        assert first.fallback
        second = beh.act(obs(0.2, t=1.0), history)
        assert not second.fallback
        third = beh.act(obs(0.3, t=2.0), history)
        assert third.bias == pytest.approx(-0.4)
        assert not third.fallback

    def test_fallback_matches_unit_gain_feedback(self):
        beh = Predictive(k=1, window=4)
        action = beh.act(obs(0.7, t=0.0), beh.start())
        assert action.fallback
        assert action.bias == pytest.approx(-0.7)

    def test_validation(self):
        assert behavior_problems(Predictive(k=0, window=3)) == [
            "nodes[0].behavior.k: must be >= 1"
        ]
        assert behavior_problems(Predictive(k=1, window=1)) == [
            "nodes[0].behavior.window: must be >= k + 1"
        ]
        assert behavior_problems(Predictive(k=3, window=8), figures=1) == [
            "nodes[0].behavior.k: must not exceed the 2 tracked context variables"
        ]
        # With no figure, time is the one context variable: order 1 fits it.
        assert behavior_problems(Predictive(k=1, window=2), figures=0) == [
            "environment.figures: at least one figure is required"
        ]

    def test_missing_context_rejected_at_act(self):
        beh = Predictive(k=3, window=6)
        with pytest.raises(ConfigurationError):
            beh.act(obs(0.1, context=(1.0,)), beh.start())

    def test_prediction_accounts_for_applied_correction(self):
        # same intrinsic line, but a correction of -0.15 is already in force
        beh = Predictive(k=1, window=3)
        history = beh.start()
        beh.act(obs(0.1, t=0.0, correction=0.0), history)
        beh.act(obs(0.05, t=1.0, correction=-0.15), history)  # intrinsic 0.2
        action = beh.act(obs(0.15, t=2.0, correction=-0.15), history)  # intrinsic 0.3
        # predicted intrinsic 0.4, current correction -0.15 -> cancel the rest
        assert action.bias == pytest.approx(-0.25)


class ReferencePredictive:
    """The predictive fit as a per-node loop: a list history, one
    ``np.linalg.lstsq`` and one ``np.dot`` per act. ``Predictive`` must give
    its actions to the bit, alone or in a stacked group."""

    def __init__(self, k, window):
        self.k, self.window, self.history = k, window, []

    def act(self, obs):
        self.history.append(
            (obs.latest.time, obs.latest.delta - obs.correction, tuple(obs.context))
        )
        del self.history[:-self.window]
        if len(self.history) < self.k + 1:
            return CorrectiveAction(bias=-obs.latest.delta, fallback=True)
        times = np.array([time for time, _, _ in self.history])
        y = np.array([deviation for _, deviation, _ in self.history])
        extra = range(self.k - 1)
        design = np.column_stack(
            [np.ones_like(times), times]
            + [np.array([context[j] for _, _, context in self.history]) for j in extra]
        )
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        ahead = [1.0, times[-1] + (times[-1] - times[-2])]
        ahead += [self.history[-1][2][j] for j in extra]
        return CorrectiveAction(bias=-(float(np.dot(coef, ahead)) + obs.correction))


def random_stream(seed, ticks, figures=2, scale=1.0):
    """Observations of a noisy drifting deviation with a random correction
    and random-walk context figures, one per tick of 0.1 s; ``scale``
    multiplies deviations and corrections."""
    rng = np.random.default_rng(seed)
    context = np.cumsum(rng.normal(size=(ticks, figures)), axis=0)
    return [
        obs(scale * (0.05 * i + rng.normal(scale=0.01)), t=0.1 * i,
            correction=scale * rng.normal(scale=0.1), context=context[i - 1])
        for i in range(1, ticks + 1)
    ]


class TestPredictiveGroups:
    @pytest.mark.parametrize("k, window", [(1, 8), (2, 6), (3, 10), (1, 2)])
    def test_alone_matches_the_reference_loop(self, k, window):
        behavior, reference = Predictive(k=k, window=window), ReferencePredictive(k, window)
        history = behavior.start()
        for observation in random_stream(k, 40):
            assert behavior.act(observation, history) == reference.act(observation)

    def test_staged_rows_match_the_reference_loop(self):
        # Rows of three orders act over different spans of ticks, so each
        # tick stages groups of several history lengths.
        spans = [(1, 8, 0, 30), (1, 8, 0, 30), (1, 8, 5, 15), (1, 8, 12, 30),
                 (2, 6, 0, 30), (2, 6, 3, 30), (3, 10, 7, 30)]
        rows = [(Predictive(k=k, window=w), ReferencePredictive(k, w), range(start, stop))
                for k, w, start, stop in spans]
        histories = [behavior.start() for behavior, _, _ in rows]
        streams = [random_stream(seed, 30, figures=3) for seed in range(len(rows))]
        for tick in range(30):
            live = [(behavior, history, reference, stream[tick])
                    for (behavior, reference, ticks), history, stream
                    in zip(rows, histories, streams)
                    if tick in ticks]
            biases = stage_predictions([staged(behavior, history, observation)
                                        for behavior, history, _, observation in live])
            assert biases == [reference.act(observation).bias
                              for _, _, reference, observation in live]

    def test_staged_rows_and_act_share_one_history(self):
        behavior, reference = Predictive(k=1, window=3), ReferencePredictive(1, 3)
        history = behavior.start()
        first, second = obs(0.1, t=0.1), obs(0.3, t=0.2)
        assert stage_predictions([staged(behavior, history, first)]) == [reference.act(first).bias]
        action = behavior.act(second, history)
        assert action == reference.act(second) and not action.fallback


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(1, 6),
       st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**16))
def test_the_stacked_look_ahead_has_the_bits_of_a_dot_per_row(k, extra, rows, scale, seed):
    """Each shape's rows are extrapolated by one stacked matmul; each bias
    must have the bits of the reference's own ``np.lstsq`` and ``np.dot``."""
    window, ticks = k + 1 + extra, k + 4 + extra
    behavior = Predictive(k=k, window=window)
    histories = [behavior.start() for _ in range(rows)]
    references = [ReferencePredictive(k, window) for _ in range(rows)]
    streams = [random_stream(seed + row, ticks, figures=k, scale=scale) for row in range(rows)]
    for tick in range(ticks):
        observations = [stream[tick] for stream in streams]
        biases = stage_predictions([staged(behavior, h, o) for h, o in zip(histories, observations)])
        expected = [r.act(o).bias for r, o in zip(references, observations)]
        assert np.array(biases).tobytes() == np.array(expected).tobytes()


class TestLstsqStack:
    """``lstsq_stack`` calls numpy's private LAPACK gufunc; these pin it to
    the public ``np.linalg.lstsq``, so a numpy that changes it fails here."""

    @staticmethod
    def designs(k, rows=16, m=8, seed=0):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.05, 0.2, size=(rows, m)), axis=1)
        context = rng.normal(size=(rows, m, k - 1))
        design = np.concatenate(
            [np.ones((rows, m, 1)), times[..., None], context], axis=-1
        )
        return design, rng.normal(size=(rows, m))

    @staticmethod
    def singular_ratio(design):
        values = np.linalg.svd(design, compute_uv=False)
        return values[-1] / values[0]

    @pytest.mark.parametrize("k, condition", [(1, None), (2, None), (2, 0.0), (2, 1e-15), (2, 1e-12)])
    def test_matches_per_problem_lstsq_bit_for_bit(self, k, condition):
        design, y = self.designs(k)
        if condition is not None:
            # One design's context column is the intercept times 4, nudged so
            # that its smallest singular value over its largest is about
            # `condition`: on either side of the default rcond, 8 * eps, so a
            # wrong rcond changes the solution's rank.
            noise = np.random.default_rng(1).normal(size=len(design[3]))
            design[3, :, 2] = 4.0 + 1e-6 * noise
            nudge = condition / self.singular_ratio(design[3]) * 1e-6
            design[3, :, 2] = 4.0 + nudge * noise
            if condition:
                assert self.singular_ratio(design[3]) == pytest.approx(condition, rel=0.5)
            else:
                assert np.linalg.matrix_rank(design[3]) == 2
        stacked = lstsq_stack(design, y[..., None])[..., 0]
        alone = np.stack([np.linalg.lstsq(d, b, rcond=None)[0] for d, b in zip(design, y)])
        assert stacked.tobytes() == alone.tobytes()

    def test_nonconvergence_raises_linalgerror(self):
        design, y = self.designs(1)
        design[5, 2, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            np.linalg.lstsq(design[5], y[5], rcond=None)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            lstsq_stack(design, y[..., None])


# -- closed-loop comparison -----------------------------------------------


def run_loop(behavior, rate=0.01, dt=0.1, steps=1000, context_fn=None, disturbance=None):
    """Reference plant: intrinsic deviation grows, corrections accumulate
    with a one-step delay — the same recurrence the engine realizes."""
    correction, state = 0.0, behavior.start()
    deltas = []
    for i in range(1, steps + 1):
        t = i * dt
        d = disturbance(t) if disturbance else rate * t
        delta = d + correction
        deltas.append(delta)
        context = context_fn(t) if context_fn else ()
        action = behavior.act(obs(delta, t=t, correction=correction, context=context), state)
        correction += action.bias
    return np.array(deltas)


class TestClosedLoop:
    def test_predictive_cancels_linear_drift(self):
        deltas = run_loop(Predictive(k=1, window=8))
        warm = deltas[8:]
        assert np.max(np.abs(warm)) < 1e-6

    def test_reactive_settles_at_proportional_lag(self):
        rate, dt, gain = 0.01, 0.1, 1.0
        deltas = run_loop(Reactive(gain=gain), rate=rate, dt=dt)
        assert deltas[-1] == pytest.approx(rate * dt / gain, rel=1e-6)

    def test_half_gain_doubles_the_lag(self):
        rate, dt = 0.01, 0.1
        deltas = run_loop(Reactive(gain=0.5), rate=rate, dt=dt)
        assert deltas[-1] == pytest.approx(rate * dt / 0.5, rel=1e-6)

    def test_predictive_beats_reactive_beats_passive(self):
        dt = 0.1
        cost = {
            name: float(np.sum(np.abs(run_loop(beh))) * dt)
            for name, beh in [
                ("predictive", Predictive(k=1, window=8)),
                ("reactive", Reactive(gain=1.0)),
                ("passive", Passive()),
            ]
        }
        assert cost["predictive"] < cost["reactive"] < cost["passive"]

    def test_second_order_tracks_context_jump_faster(self):
        # deviation follows a context figure that steps at t=5
        def ctx(t):
            return (5.0,) if t >= 5.0 else (0.0,)

        def dist(t):
            return 0.3 * ctx(t)[0]

        kwargs = dict(steps=100, context_fn=ctx, disturbance=dist)
        first_order = run_loop(Predictive(k=1, window=6), **kwargs)
        second_order = run_loop(Predictive(k=2, window=6), **kwargs)
        after_jump = slice(50, None)
        assert np.sum(np.abs(second_order[after_jump])) < np.sum(
            np.abs(first_order[after_jump])
        )

    def test_passive_never_touches_the_channel(self):
        deltas = run_loop(Passive(), rate=0.02, steps=200)
        # uncorrected drift reproduced exactly
        expected = 0.02 * 0.1 * np.arange(1, 201)
        assert np.allclose(deltas, expected, atol=1e-12)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "passive"},
            {"kind": "reactive", "gain": 0.7},
            {"kind": "predictive", "k": 2, "window": 6},
            {"kind": "purposeful_non_teleological", "policy": {"bias": 0.1, "gain": 1.0}},
            {
                "kind": "active_non_purposeful",
                "schedule": [{"bias": 0.1, "gain": 1.0}, {"bias": -0.1, "gain": 1.0}],
            },
        ],
    )
    def test_round_trip(self, spec):
        p = _Parser()
        assert behavior_to_spec(behavior_from_spec(p, spec, "behavior")) == spec
        assert p.errors == []

    def test_unknown_kind_rejected(self):
        p = _Parser()
        assert behavior_from_spec(p, {"kind": "mpc"}, "b") == Passive()
        assert p.errors == [
            "b.kind: expected passive | active_non_purposeful | "
            "purposeful_non_teleological | reactive | predictive, got 'mpc'"
        ]

    def test_unknown_key_rejected(self):
        p = _Parser()
        behavior_from_spec(p, {"kind": "reactive", "kp": 0.5}, "b")
        assert p.errors == ["b.kp: unknown key"]
