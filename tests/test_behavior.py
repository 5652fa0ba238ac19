import numpy as np
import pytest

from fidelitylab.behavior import (
    ActiveNonPurposeful,
    CorrectiveAction,
    Observation,
    Passive,
    Predictive,
    PurposefulNonTeleological,
    Reactive,
)
from fidelitylab.config import _Parser, behavior_from_spec, behavior_to_spec
from fidelitylab.errors import ConfigurationError
from fidelitylab.reflection import DeltaSample


def obs(delta, t=0.0, correction=0.0, context=()):
    return Observation(
        latest=DeltaSample(time=t, figure=0, delta=delta),
        correction=correction,
        context=tuple(context),
    )


class TestPassive:
    def test_always_zero(self):
        passive = Passive()
        for d in (0.0, 1.0, -3.5):
            assert passive.act(obs(d)).is_zero()

    def test_order_zero(self):
        assert Passive().order == 0


class TestActiveNonPurposeful:
    def test_cycles_schedule_regardless_of_observation(self):
        schedule = (CorrectiveAction(bias=0.1), CorrectiveAction(bias=-0.1))
        beh = ActiveNonPurposeful(schedule=schedule)
        seen = [beh.act(obs(d)).bias for d in (5.0, -5.0, 0.0, 1.0)]
        assert seen == [0.1, -0.1, 0.1, -0.1]

    def test_empty_schedule_is_inert(self):
        assert ActiveNonPurposeful(schedule=()).act(obs(1.0)).is_zero()


class TestPurposefulNonTeleological:
    def test_fixed_policy_ignores_feedback(self):
        beh = PurposefulNonTeleological(policy=CorrectiveAction(bias=0.05))
        assert beh.act(obs(10.0)).bias == 0.05
        assert beh.act(obs(-10.0)).bias == 0.05


class TestReactive:
    def test_zero_delta_zero_action(self):
        assert Reactive(feedback_gain=1.0).act(obs(0.0)).is_zero()

    def test_proportional_correction(self):
        action = Reactive(feedback_gain=0.5).act(obs(0.4))
        assert action.bias == pytest.approx(-0.2)

    def test_gain_bounds(self):
        assert Reactive(feedback_gain=0.0).validate()
        assert Reactive(feedback_gain=2.5).validate()
        assert not Reactive(feedback_gain=2.0).validate()

    def test_order_zero(self):
        assert Reactive().order == 0


class TestPredictive:
    def test_collinear_history_extrapolates_exactly(self):
        # closed-form oracle: least squares through collinear points is the line
        ts, ys = np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.2, 0.3])
        coef = np.polyfit(ts, ys, 1)
        assert np.polyval(coef, 3.0) == pytest.approx(0.4)

        beh = Predictive(k=1, window=3)
        first = beh.act(obs(0.1, t=0.0))
        assert first.fallback
        second = beh.act(obs(0.2, t=1.0))
        assert not second.fallback
        third = beh.act(obs(0.3, t=2.0))
        assert third.bias == pytest.approx(-0.4)
        assert not third.fallback

    def test_fallback_matches_unit_gain_feedback(self):
        beh = Predictive(k=1, window=4)
        action = beh.act(obs(0.7, t=0.0))
        assert action.fallback
        assert action.bias == pytest.approx(-0.7)

    def test_order_reports_k(self):
        assert Predictive(k=2, window=5).order == 2

    def test_validation(self):
        assert Predictive(k=0, window=3).validate()
        assert Predictive(k=1, window=1).validate()
        assert Predictive(k=3, window=8).validate(context_variables=2)
        assert not Predictive(k=1, window=2).validate(context_variables=1)

    def test_missing_context_rejected_at_act(self):
        beh = Predictive(k=3, window=6)
        with pytest.raises(ConfigurationError):
            beh.act(obs(0.1, context=(1.0,)))

    def test_prediction_accounts_for_applied_correction(self):
        # same intrinsic line, but a correction of -0.15 is already in force
        beh = Predictive(k=1, window=3)
        beh.act(obs(0.1, t=0.0, correction=0.0))
        beh.act(obs(0.05, t=1.0, correction=-0.15))  # intrinsic 0.2
        action = beh.act(obs(0.15, t=2.0, correction=-0.15))  # intrinsic 0.3
        # predicted intrinsic 0.4, current correction -0.15 -> cancel the rest
        assert action.bias == pytest.approx(-0.25)


# -- closed-loop comparison -----------------------------------------------


def run_loop(behavior, rate=0.01, dt=0.1, steps=1000, context_fn=None, disturbance=None):
    """Reference plant: intrinsic deviation grows, corrections accumulate
    with a one-step delay — the same recurrence the engine realizes."""
    correction = 0.0
    deltas = []
    for i in range(1, steps + 1):
        t = i * dt
        d = disturbance(t) if disturbance else rate * t
        delta = d + correction
        deltas.append(delta)
        context = context_fn(t) if context_fn else ()
        action = behavior.act(obs(delta, t=t, correction=correction, context=context))
        correction += action.bias
    return np.array(deltas)


class TestClosedLoop:
    def test_predictive_cancels_linear_drift(self):
        deltas = run_loop(Predictive(k=1, window=8))
        warm = deltas[8:]
        assert np.max(np.abs(warm)) < 1e-6

    def test_reactive_settles_at_proportional_lag(self):
        rate, dt, gain = 0.01, 0.1, 1.0
        deltas = run_loop(Reactive(feedback_gain=gain), rate=rate, dt=dt)
        assert deltas[-1] == pytest.approx(rate * dt / gain, rel=1e-6)

    def test_half_gain_doubles_the_lag(self):
        rate, dt = 0.01, 0.1
        deltas = run_loop(Reactive(feedback_gain=0.5), rate=rate, dt=dt)
        assert deltas[-1] == pytest.approx(rate * dt / 0.5, rel=1e-6)

    def test_predictive_beats_reactive_beats_passive(self):
        dt = 0.1
        cost = {
            name: float(np.sum(np.abs(run_loop(beh))) * dt)
            for name, beh in [
                ("predictive", Predictive(k=1, window=8)),
                ("reactive", Reactive(feedback_gain=1.0)),
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
