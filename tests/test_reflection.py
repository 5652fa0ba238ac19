import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelitylab.errors import GridAlignmentError
from fidelitylab.reflection import (
    DeltaSample,
    ReflectiveMap,
    ideal_reflection,
    preservation_distance,
    quantize,
    sense,
    tracking_error,
)
from fidelitylab.rng import substream


def channel(**kwargs) -> ReflectiveMap:
    defaults = dict(gain=1.0, bias=0.0, noise_std=0.0, quantization=0.0, latency=0.0)
    defaults.update(kwargs)
    return ReflectiveMap(**defaults)


class TestQuantize:
    def test_no_grid_passthrough(self):
        assert quantize(3.7, 0.0) == 3.7

    def test_round_to_nearest_grid_point(self):
        # brute-force oracle: nearest multiple of 0.5 to 3.7 is 3.5
        grid = [k * 0.5 for k in range(-2, 20)]
        nearest = min(grid, key=lambda g: abs(g - 3.7))
        assert nearest == 3.5
        assert quantize(3.7, 0.5) == 3.5

    def test_ties_round_to_even_multiple(self):
        assert quantize(0.25, 0.5) == 0.0   # 0.5 of a step -> even multiple 0
        assert quantize(0.75, 0.5) == 1.0   # 1.5 steps -> even multiple 2
        assert quantize(1.25, 0.5) == 1.0   # 2.5 steps -> even multiple 2

    @given(st.floats(-1e3, 1e3), st.sampled_from([0.5, 0.25, 0.125, 2.0]))
    def test_output_always_on_grid(self, value, step):
        out = quantize(value, step)
        multiple = out / step
        assert multiple == round(multiple)

    @given(st.floats(-1e3, 1e3), st.sampled_from([0.5, 0.25, 0.125, 2.0]))
    def test_error_bounded_by_half_step(self, value, step):
        assert abs(quantize(value, step) - value) <= step / 2 + 1e-12


class TestSense:
    def test_identity_channel(self):
        q = sense(channel(), raw=3.7, t=1.0)
        assert q.value == 3.7
        assert q.acquired_at == 1.0

    def test_affine_evaluation(self):
        q = sense(channel(gain=2.0, bias=1.0), raw=3.0, t=0.0)
        assert q.value == 7.0

    def test_quantized_output(self):
        q = sense(channel(quantization=0.5), raw=3.7, t=0.0)
        assert q.value == 3.5

    def test_latency_shifts_timestamp_not_value(self):
        q = sense(channel(latency=0.3), raw=2.0, t=1.0)
        assert q.value == 2.0
        assert q.acquired_at == pytest.approx(1.3)

    def test_noise_uses_stream_deterministically(self):
        a = sense(channel(noise_std=0.1), raw=1.0, t=0.0, rng=substream(5, "noise"))
        b = sense(channel(noise_std=0.1), raw=1.0, t=0.0, rng=substream(5, "noise"))
        assert a.value == b.value
        assert a.value != 1.0

    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=50)
    def test_monotone_in_raw_for_positive_gain(self, u1, u2):
        lo, hi = min(u1, u2), max(u1, u2)
        cm = channel(gain=1.7, bias=-2.0)
        assert sense(cm, lo, 0.0).value <= sense(cm, hi, 0.0).value


class TestPreservationDistance:
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.1, 10))
    @settings(max_examples=100)
    def test_linear_channel_preserves_addition(self, u1, u2, gain):
        delta = preservation_distance(channel(gain=gain), u1, u2)
        assert delta == pytest.approx(0.0, abs=1e-9)

    def test_affine_channel_off_by_bias(self):
        # (u1+u2+b) - (u1+b) - (u2+b) = -b
        delta = preservation_distance(channel(bias=0.25), u1=1.0, u2=2.0)
        assert delta == -0.25

    def test_quantized_example_from_grid_oracle(self):
        # gain 1, Q 0.5: q(0.6)=0.5, q(0.3)=0.5 -> 0.5 - 1.0 = -0.5
        cm = channel(quantization=0.5)
        assert sense(cm, 0.6, 0.0).value == 0.5
        assert sense(cm, 0.3, 0.0).value == 0.5
        assert preservation_distance(cm, 0.3, 0.3) == -0.5

    def test_ignores_noise_component(self):
        cm = channel(noise_std=5.0, bias=0.25)
        assert preservation_distance(cm, 1.0, 2.0) == -0.25

    def test_quantization_bound_dense_sweep(self):
        # |delta| <= 1.5 Q + |bias| for noise-free affine channels
        for q_step, bias in [(0.5, 0.0), (0.25, 0.125), (0.125, -0.5)]:
            cm = channel(quantization=q_step, bias=bias)
            bound = 1.5 * q_step + abs(bias)
            grid = np.arange(0.0, 8.0, 1.0 / 64)
            for u1 in grid[::7]:
                for u2 in grid[::11]:
                    assert abs(preservation_distance(cm, float(u1), float(u2))) <= bound


class TestTrackingError:
    def test_perfect_series_gives_zero_trace(self):
        series = [(0.1 * i, float(i)) for i in range(10)]
        trace = tracking_error(series, series)
        assert all(s.delta == 0.0 for s in trace)
        assert len(trace) == 10

    def test_constant_offset_propagates(self):
        ideal = [(0.1 * i, 1.0) for i in range(5)]
        qualia = [(0.1 * i, 1.2) for i in range(5)]
        trace = tracking_error(ideal, qualia)
        assert all(s.delta == pytest.approx(0.2) for s in trace)

    def test_drifting_bias_recovered(self):
        # bias(t) = 0.01 t injected through the channel, replayed closed-form
        times = [0.1 * i for i in range(100)]
        raw = 3.0
        ideal = [(t, ideal_reflection(1.0, 0.0, raw)) for t in times]
        qualia = [(t, sense(channel(bias=0.01 * t), raw, t).value) for t in times]
        trace = tracking_error(ideal, qualia)
        for t, sample in zip(times, trace):
            assert sample.delta == pytest.approx(0.01 * t, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(GridAlignmentError):
            tracking_error([(0.0, 1.0)], [(0.0, 1.0), (0.1, 1.0)])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridAlignmentError):
            tracking_error([(0.0, 1.0)], [(0.05, 1.0)])


class TestInvariants:
    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50)
    def test_isomorphism_limit(self, u1, u2):
        # gain-only channel, no bias, no grid, no noise: exact preservation
        assert preservation_distance(channel(), u1, u2) == pytest.approx(0.0, abs=1e-12)

    def test_delta_sample_rejects_non_finite(self):
        with pytest.raises(Exception):
            DeltaSample(time=0.0, delta=math.nan)
