import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelitylab.environment import (
    Constant,
    EnvState,
    LinearDrift,
    RandomWalk,
    Regime,
    RegimeSwitching,
    ShockEvent,
    apply_shock,
    label_regime,
    step_environment,
)
from fidelitylab.config import _Parser, process_from_spec, process_to_spec
from fidelitylab.errors import ConfigurationError
from fidelitylab.identity import WindowRing
from fidelitylab.rng import substream


def state(*figures, time=0.0):
    return EnvState(time=time, figures=tuple(figures))


class TestStepEnvironment:
    def test_constant_is_identity(self):
        out = step_environment(state(5.0), [Constant()], dt=1.0)
        assert out.figures == (5.0,)
        assert out.time == 1.0

    def test_linear_drift_rate_times_dt(self):
        out = step_environment(state(0.0), [LinearDrift(rate=0.5)], dt=4.0)
        assert out.figures[0] == pytest.approx(2.0)

    def test_random_walk_variance_matches_declared(self):
        # Monte-Carlo check: 10k unit steps, std 1 -> increment variance ~ 1
        rng = substream(123, "figure", 0, "drift")
        s = state(0.0)
        values = [0.0]
        for _ in range(10_000):
            s = step_environment(s, [RandomWalk(std=1.0)], dt=1.0, rngs=[rng])
            values.append(s.figures[0])
        increments = np.diff(values)
        assert np.var(increments) == pytest.approx(1.0, rel=0.10)

    def test_mismatched_process_count_rejected(self):
        with pytest.raises(ConfigurationError):
            step_environment(state(1.0, 2.0), [Constant()], dt=0.1)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            step_environment(state(1.0), [Constant()], dt=0.0)

    def test_time_advances_by_dt(self):
        out = step_environment(state(1.0, time=3.0), [Constant()], dt=0.25)
        assert out.time == 3.25

    def test_regime_switching_delegates_to_active_subprocess(self):
        rng = substream(3, "figure", 0, "drift")
        proc = RegimeSwitching(calm=Constant(), turbulent=LinearDrift(rate=1.0), hazard=0.0)
        out = step_environment(state(1.0), [proc], dt=1.0, rngs=[rng])
        assert out.figures[0] == 1.0  # calm is active, constant
        proc.active_turbulent = True
        out = step_environment(out, [proc], dt=1.0, rngs=[rng])
        assert out.figures[0] == pytest.approx(2.0)

    def test_regime_switching_flips_with_certain_hazard(self):
        rng = substream(3, "figure", 0, "drift")
        proc = RegimeSwitching(calm=Constant(), turbulent=Constant(), hazard=1.0)
        step_environment(state(0.0), [proc], dt=1.0, rngs=[rng])
        assert proc.active_turbulent is True


class TestDeterminism:
    def run_walk(self, seed, n_figures=2, steps=50):
        rngs = [substream(seed, "figure", i, "drift") for i in range(n_figures)]
        procs = [RandomWalk(std=1.0) for _ in range(n_figures)]
        s = state(*([0.0] * n_figures))
        history = [s]
        for _ in range(steps):
            s = step_environment(s, procs, dt=0.1, rngs=rngs)
            history.append(s)
        return history

    def test_same_seed_same_sequence(self):
        a = self.run_walk(42)
        b = self.run_walk(42)
        assert [s.figures for s in a] == [s.figures for s in b]

    def test_substreams_independent_of_figure_count(self):
        # Adding a figure never perturbs the first figure's draws.
        one = self.run_walk(42, n_figures=1)
        three = self.run_walk(42, n_figures=3)
        assert [s.figures[0] for s in one] == [s.figures[0] for s in three]

    @given(st.floats(-1e6, 1e6), st.floats(0.01, 100.0))
    def test_constant_fixed_point_bit_identical(self, value, dt):
        out = step_environment(state(value), [Constant()], dt=dt)
        assert out.figures[0] == value

    @given(st.floats(-100, 100), st.floats(-10, 10), st.floats(0.01, 10.0))
    @settings(max_examples=50)
    def test_linear_drift_composes(self, start, rate, dt):
        twice = step_environment(
            step_environment(state(start), [LinearDrift(rate)], dt),
            [LinearDrift(rate)], dt,
        )
        once = step_environment(state(start), [LinearDrift(rate)], 2 * dt)
        assert twice.figures[0] == pytest.approx(once.figures[0], abs=1e-9, rel=1e-12)


class TestApplyShock:
    def test_additive_jump(self):
        out = apply_shock(state(1.0), ShockEvent(at=0.0, figure=0, magnitude=3.0, recovery_window=1.0))
        assert out.figures == (4.0,)

    def test_zero_magnitude_is_noop(self):
        s = state(1.5)
        out = apply_shock(s, ShockEvent(at=0.0, figure=0, magnitude=0.0, recovery_window=1.0))
        assert out.figures == s.figures

    def test_disjoint_shocks_commute(self):
        a = ShockEvent(at=0.0, figure=0, magnitude=2.0, recovery_window=1.0)
        b = ShockEvent(at=0.0, figure=1, magnitude=-1.0, recovery_window=1.0)
        s = state(0.0, 0.0)
        assert apply_shock(apply_shock(s, a), b) == apply_shock(apply_shock(s, b), a)

    def test_out_of_range_figure_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_shock(state(1.0), ShockEvent(at=0.0, figure=3, magnitude=1.0, recovery_window=1.0))


class TestLabelRegime:
    @staticmethod
    def increments(history):
        """|figure increments| between consecutive states, one row per pair:
        the rows the engine's regime ring holds."""
        figures = np.array([s.figures for s in history], dtype=float)
        return np.abs(figures[1:] - figures[:-1])

    def make_history(self, values):
        return self.increments([state(v, time=float(i)) for i, v in enumerate(values)])

    def test_constant_history_is_calm(self):
        history = self.make_history([2.0] * 10)
        assert label_regime(history, threshold=0.001) is Regime.CALM

    def test_unit_increments_exceed_half_threshold(self):
        history = self.make_history([0, 1, 2, 3, 4])
        assert label_regime(history, threshold=0.5) is Regime.TURBULENT

    def test_mean_increment_just_below_threshold(self):
        # increments 0.2, 0.5, 0.77 -> mean 0.49 < 0.5
        history = self.make_history([0.0, 0.2, 0.7, 1.47])
        increments = [0.2, 0.5, 0.77]
        assert np.mean(increments) == pytest.approx(0.49)
        assert label_regime(history, threshold=0.5) is Regime.CALM

    def test_threshold_is_strict(self):
        history = self.make_history([0.0, 0.5])
        assert label_regime(history, threshold=0.5) is Regime.CALM

    def test_single_state_is_calm(self):
        assert label_regime(self.make_history([1.0]), threshold=0.1) is Regime.CALM

    @staticmethod
    def flat_mean(history):
        """The defining statistic: np.mean over a flat list of |increments|,
        pair by pair, figure by figure."""
        increments = [
            abs(b - a)
            for prev, cur in zip(history[:-1], history[1:])
            for a, b in zip(prev.figures, cur.figures)
        ]
        return float(np.mean(increments))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_label_matches_the_flat_mean_oracle(self, data):
        # The increment ring as the engine keeps it: one row per step,
        # labelled after every step against the window's last states.
        width = data.draw(st.integers(1, 9))
        window = data.draw(st.integers(1, 12))
        rows = data.draw(st.lists(
            st.tuples(*[st.floats(-1e6, 1e6)] * width), min_size=2, max_size=30))
        states = [state(*row, time=float(i)) for i, row in enumerate(rows)]
        ring = WindowRing(window, width)
        for step in range(1, len(states)):
            prev, cur = states[step - 1], states[step]
            ring.push([abs(b - a) for a, b in zip(prev.figures, cur.figures)])
            history = states[max(0, step - window):step + 1]
            mean = self.flat_mean(history)
            # The threshold sits exactly on the mean, one ulp either side of
            # it, or anywhere nearby: a last-bit difference flips a label.
            threshold = data.draw(st.one_of(
                st.sampled_from([mean, np.nextafter(mean, -np.inf),
                                 np.nextafter(mean, np.inf)]),
                st.floats(0.0, 2.0 * mean + 1.0),
            ))
            expected = Regime.TURBULENT if mean > threshold else Regime.CALM
            assert label_regime(ring.view(), threshold) is expected
            assert label_regime(self.increments(history), threshold) is expected


class TestProcessSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "constant"},
            {"kind": "linear", "rate": 0.25},
            {"kind": "random_walk", "std": 1.5},
            {
                "kind": "regime_switching",
                "calm": {"kind": "constant"},
                "turbulent": {"kind": "random_walk", "std": 2.0},
                "hazard": 0.05,
            },
        ],
    )
    def test_round_trip(self, spec):
        p = _Parser()
        assert process_to_spec(process_from_spec(p, spec, "process")) == spec
        assert p.errors == []

    def test_unknown_kind_rejected(self):
        p = _Parser()
        assert process_from_spec(p, {"kind": "brownian-bridge"}, "process") == Constant()
        assert p.errors == [
            "process.kind: expected constant | linear | random_walk | regime_switching, "
            "got 'brownian-bridge'"
        ]

    def test_unknown_key_rejected(self):
        p = _Parser()
        process_from_spec(p, {"kind": "linear", "slope": 1.0}, "process")
        assert p.errors == ["process.slope: unknown key"]

    def test_invalid_hazard_flagged(self):
        proc = process_from_spec(
            _Parser(),
            {"kind": "regime_switching", "calm": {"kind": "constant"},
             "turbulent": {"kind": "constant"}, "hazard": 1.5},
            "process",
        )
        assert proc.validate()
