import numpy as np
import pytest
import struct
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from fidelitylab.errors import (
    ContractFreeError,
    InsufficientDataError,
    SequencingError,
)
from fidelitylab.identity import (
    ContractStatus,
    DeltaTrace,
    DetectorConfig,
    IdentityClass,
    IdentityFailureDetector,
    IdentityKind,
    WindowRing,
    check_contract,
    classify_trace,
    contract_utilization,
    detect_identity_failure,
)
from fidelitylab.reflection import DeltaSample


def samples(deltas, start=0.0, dt=1.0):
    return [
        DeltaSample(time=start + i * dt, figure=0, delta=float(d))
        for i, d in enumerate(deltas)
    ]


def full_candidate(hard, soft_mean, soft_std, bound):
    return IdentityClass(
        kind=IdentityKind.HARD_RT,
        hard_threshold=hard,
        soft_mean=soft_mean,
        soft_std=soft_std,
        acceptability_bound=bound,
    )


class TestClassifyTrace:
    def test_all_zero_trace_is_hard(self):
        result = classify_trace(samples([0.0] * 50), full_candidate(0.1, 0.1, 0.1, 0.1), window=50)
        assert result.kind is IdentityKind.HARD_RT

    def test_within_hard_bound(self):
        result = classify_trace(samples([0.05, -0.03, 0.01]), full_candidate(0.1, 0.1, 0.1, 0.1), window=3)
        assert result.kind is IdentityKind.HARD_RT

    def test_soft_multiset_example(self):
        # 97 samples at 0.02 and 3 at 0.5: brute-force statistics oracle
        values = [0.02] * 97 + [0.5] * 3
        mags = np.abs(values)
        assert np.max(mags) > 0.1                      # not hard
        assert np.mean(mags) == pytest.approx(0.0344)  # within soft mean 0.1
        assert np.std(mags) == pytest.approx(0.0818, abs=1e-4)  # within soft std 0.12
        result = classify_trace(
            samples(values), full_candidate(0.1, 0.1, 0.12, 0.1), window=100
        )
        assert result.kind is IdentityKind.SOFT_RT

    def test_best_effort_via_coverage(self):
        # 96% within bound, but mean/std blown by huge outliers
        values = [0.01] * 96 + [5.0] * 4
        result = classify_trace(
            samples(values), full_candidate(0.1, 0.1, 0.12, 0.1), window=100
        )
        assert result.kind is IdentityKind.BEST_EFFORT

    def test_non_rt_when_nothing_holds(self):
        values = [1.0] * 50 + [2.0] * 50
        result = classify_trace(
            samples(values), full_candidate(0.1, 0.1, 0.12, 0.1), window=100
        )
        assert result.kind is IdentityKind.NON_RT

    def test_windowing_uses_trailing_samples(self):
        values = [5.0] * 50 + [0.0] * 50
        result = classify_trace(
            samples(values), full_candidate(0.1, 0.1, 0.12, 0.1), window=50
        )
        assert result.kind is IdentityKind.HARD_RT

    def test_empty_trace_rejected(self):
        with pytest.raises(InsufficientDataError):
            classify_trace([], full_candidate(0.1, 0.1, 0.1, 0.1), window=1)

    def test_window_longer_than_trace_rejected(self):
        with pytest.raises(InsufficientDataError):
            classify_trace(samples([0.0]), full_candidate(0.1, 0.1, 0.1, 0.1), window=2)

    @given(st.lists(st.floats(-2, 2), min_size=5, max_size=60),
           st.sampled_from([2.0, 0.5, 8.0]))
    @settings(max_examples=60)
    def test_scale_consistency(self, values, scale):
        base = full_candidate(0.3, 0.2, 0.25, 0.3)
        scaled = full_candidate(0.3 * scale, 0.2 * scale, 0.25 * scale, 0.3 * scale)
        a = classify_trace(samples(values), base, window=len(values))
        b = classify_trace(samples([v * scale for v in values]), scaled, window=len(values))
        assert a.kind is b.kind

    @given(st.lists(st.floats(-0.09, 0.09), min_size=3, max_size=50))
    @settings(max_examples=50)
    def test_filtration_hard_implies_weaker_classes(self, values):
        # anything within the hard bound also satisfies soft and best-effort
        candidate = full_candidate(0.1, 0.1, 0.1, 0.1)
        result = classify_trace(samples(values), candidate, window=len(values))
        assert result.kind is IdentityKind.HARD_RT
        mags = np.abs(values)
        assert np.mean(mags) <= 0.1 and np.std(mags) <= 0.1
        assert np.mean(mags <= 0.1) >= 0.95


class TestCheckContract:
    def test_holding_well_inside(self):
        status, _ = check_contract(samples([0.05] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.HOLDING

    def test_at_risk_above_margin(self):
        status, _ = check_contract(samples([0.09] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.AT_RISK

    def test_violated_above_bound(self):
        status, _ = check_contract(samples([0.12] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.VIOLATED

    def test_margin_boundary_is_strict(self):
        # exactly at 0.8 utilization stays holding
        status, _ = check_contract(samples([0.08] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.HOLDING

    def test_soft_contract_uses_mean_and_std(self):
        values = [0.02] * 97 + [0.5] * 3
        status, _ = check_contract(samples(values), IdentityClass.soft(0.1, 0.12))
        assert status is ContractStatus.HOLDING

    def test_best_effort_utilization_margins(self):
        contract = IdentityClass.best_effort(0.1)
        # 2% violating of a 5% allowance -> holding
        ok = samples([0.01] * 196 + [0.5] * 4)
        assert check_contract(ok, contract)[0] is ContractStatus.HOLDING
        # 4.5% violating -> 0.9 utilization -> at risk
        risky = samples([0.01] * 191 + [0.5] * 9)
        assert check_contract(risky, contract)[0] is ContractStatus.AT_RISK
        # 6% violating -> coverage below 95% -> violated
        broken = samples([0.01] * 188 + [0.5] * 12)
        assert check_contract(broken, contract)[0] is ContractStatus.VIOLATED

    def test_non_rt_has_no_contract(self):
        with pytest.raises(ContractFreeError):
            check_contract(samples([0.0]), IdentityClass.non_rt())

    def test_utilization_comes_with_the_status(self):
        window = samples([0.01] * 191 + [0.5] * 9)
        contract = IdentityClass.best_effort(0.1)
        status, utilization = check_contract(window, contract)
        assert status is ContractStatus.AT_RISK
        assert utilization == contract_utilization(window, contract) == pytest.approx(0.9)


class TestFailureDetector:
    def config(self, slack=0.02, threshold=0.2, window=100):
        return DetectorConfig(slack=slack, threshold=threshold, window=window)

    def test_stream_at_half_margin_never_fires(self):
        contract = IdentityClass.hard(0.1)
        stream = samples([0.01] * 10_000)  # |delta| < slack, nothing accumulates
        assert detect_identity_failure(stream, contract, self.config()) is None

    def test_step_change_fires_immediately_via_contract(self):
        contract = IdentityClass.hard(0.1)
        stream = samples([0.0] * 50 + [0.2] * 10)
        event = detect_identity_failure(stream, contract, self.config(threshold=1e9))
        assert event is not None
        assert event.time == 50.0  # tick index 50, unit spacing
        assert event.previous_class.kind is IdentityKind.HARD_RT
        assert event.max_abs_delta == pytest.approx(0.2)

    def test_ramp_matches_scalar_recursion_oracle(self):
        slope, k, h = 0.002, 0.02, 0.2
        deltas = [slope * i for i in range(400)]
        # independent oracle: replay S <- max(0, S + |x| - k) until S > h
        s, oracle_tick = 0.0, None
        for i, x in enumerate(deltas):
            s = max(0.0, s + abs(x) - k)
            if s > h:
                oracle_tick = i
                break
        assert oracle_tick is not None
        contract = IdentityClass.hard(1e9)  # contract never trips; pure CUSUM path
        event = detect_identity_failure(samples(deltas), contract, self.config(k, h))
        assert event is not None
        assert event.time == float(oracle_tick)

    def test_detector_resets_after_emission(self):
        contract = IdentityClass.hard(0.1)
        detector = IdentityFailureDetector(contract, self.config())
        fired = []
        for s in samples([0.0] * 10 + [0.5] * 1 + [0.0] * 10 + [0.5] * 1):
            if detector.update(s) is not None:
                fired.append(s.time)
        assert fired == [10.0, 21.0]

    def test_determinism(self):
        contract = IdentityClass.hard(0.5)
        stream = list(np.abs(np.sin(np.arange(200) * 0.3)) * 0.3)
        a = detect_identity_failure(samples(stream), contract, self.config())
        b = detect_identity_failure(samples(stream), contract, self.config())
        assert (a is None) == (b is None)
        if a is not None:
            assert a.time == b.time

    def test_out_of_order_rejected(self):
        detector = IdentityFailureDetector(IdentityClass.hard(0.1), self.config())
        detector.update(DeltaSample(time=1.0, figure=0, delta=0.0))
        with pytest.raises(SequencingError):
            detector.update(DeltaSample(time=0.5, figure=0, delta=0.0))

    def test_non_rt_cannot_be_guarded(self):
        with pytest.raises(ContractFreeError):
            IdentityFailureDetector(IdentityClass.non_rt(), self.config())

    def test_all_zero_stream_never_fires(self):
        contract = IdentityClass.hard(0.1)
        assert detect_identity_failure(samples([0.0] * 1000), contract, self.config()) is None


class TestDeltaTrace:
    def test_appends_require_increasing_time(self):
        trace = DeltaTrace(figure=0)
        trace.append(DeltaSample(time=0.0, figure=0, delta=0.1))
        with pytest.raises(Exception):
            trace.append(DeltaSample(time=0.0, figure=0, delta=0.2))

    def test_magnitudes(self):
        trace = DeltaTrace(figure=0)
        for s in samples([-1.0, 2.0]):
            trace.append(s)
        assert list(trace.magnitudes()) == [1.0, 2.0]


class TestIdentityClassValidation:
    def test_positive_thresholds_required(self):
        assert IdentityClass.hard(-1.0).validate()
        assert IdentityClass.soft(0.1, 0.0).validate()
        assert not IdentityClass.hard(0.1).validate()
        assert not IdentityClass.non_rt().validate()


class TestWindowRing:
    def test_window_is_the_trailing_entries_in_order(self):
        ring = WindowRing(3)
        seen = []
        for value in range(1, 9):
            ring.push(float(value))
            seen.append(list(ring.view()))
        assert seen[:3] == [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0]]
        assert seen[-1] == [6.0, 7.0, 8.0]
        assert all(len(window) == min(i + 1, 3) for i, window in enumerate(seen))

    def test_view_is_contiguous_and_clear_empties(self):
        ring = WindowRing(4, 2)
        for value in range(7):
            ring.push([value, -value])
        assert ring.view().flags.c_contiguous
        assert ring.view().tolist() == [[3, -3], [4, -4], [5, -5], [6, -6]]
        ring.clear()
        assert len(ring.view()) == 0


# -- the list-based readers the ring replaced, kept as the oracle -------------


def _oracle_window(deltas, window):
    return np.abs([s.delta for s in samples(deltas)[-window:]])


def _oracle_satisfies(mags, candidate, kind):
    if kind is IdentityKind.HARD_RT:
        if candidate.hard_threshold is None:
            return False
        return float(np.max(mags)) <= candidate.hard_threshold
    if kind is IdentityKind.SOFT_RT:
        if candidate.soft_mean is None or candidate.soft_std is None:
            return False
        return (
            float(np.mean(mags)) <= candidate.soft_mean
            and float(np.std(mags)) <= candidate.soft_std
        )
    if kind is IdentityKind.BEST_EFFORT:
        if candidate.acceptability_bound is None:
            return False
        return float(np.mean(mags <= candidate.acceptability_bound)) >= 0.95
    return True


def _oracle_utilization(mags, contract):
    if contract.kind is IdentityKind.HARD_RT:
        return float(np.max(mags)) / contract.hard_threshold
    if contract.kind is IdentityKind.SOFT_RT:
        return max(float(np.mean(mags)) / contract.soft_mean,
                   float(np.std(mags)) / contract.soft_std)
    return float(np.mean(mags > contract.acceptability_bound)) / (1.0 - 0.95)


def _oracle_status(mags, contract, margin):
    if not _oracle_satisfies(mags, contract, contract.kind):
        return ContractStatus.VIOLATED
    if _oracle_utilization(mags, contract) > margin:
        return ContractStatus.AT_RISK
    return ContractStatus.HOLDING


def _oracle_class(mags, candidate):
    for kind in (IdentityKind.HARD_RT, IdentityKind.SOFT_RT, IdentityKind.BEST_EFFORT):
        if _oracle_satisfies(mags, candidate, kind):
            return kind
    return IdentityKind.NON_RT


class _OracleDetector:
    def __init__(self, contract, config):
        self.contract, self.config = contract, config
        self.high = self.low = 0.0
        self.window = deque(maxlen=config.window)

    def update(self, sample):
        x = abs(sample.delta)
        self.window.append(sample)
        c = self.config
        self.high = max(0.0, self.high + (x - c.reference) - c.slack)
        self.low = max(0.0, self.low + (c.reference - x) - c.slack)
        crossed = self.high > c.threshold or self.low > c.threshold
        mags = np.abs([s.delta for s in self.window])
        if not crossed and _oracle_satisfies(mags, self.contract, self.contract.kind):
            return None
        event = (sample.time, float(np.max(mags)), float(np.mean(mags)), float(np.std(mags)))
        self.high = self.low = 0.0
        self.window.clear()
        return event


def _bits(x):
    return struct.pack("<d", x)


# Magnitudes that land exactly on, and just around, the thresholds drawn below.
_DELTAS = st.one_of(
    st.floats(-0.3, 0.3),
    st.sampled_from([0.0, 0.05, -0.05, 0.08, 0.1, -0.1, 0.12, 1e-300]),
)
_THRESHOLDS = st.sampled_from([0.02, 0.05, 0.08, 0.1, 0.12])
_CONTRACTS = st.one_of(
    st.builds(IdentityClass.hard, _THRESHOLDS),
    st.builds(IdentityClass.soft, _THRESHOLDS, _THRESHOLDS),
    st.builds(IdentityClass.best_effort, _THRESHOLDS),
)


class TestRingMatchesListOracle:
    @settings(max_examples=300, deadline=None)
    @given(deltas=st.lists(_DELTAS, min_size=1, max_size=60),
           window=st.integers(1, 70), contract=_CONTRACTS,
           margin=st.sampled_from([0.5, 0.8, 1.0]),
           candidate=st.builds(full_candidate, _THRESHOLDS, _THRESHOLDS,
                               _THRESHOLDS, _THRESHOLDS))
    def test_status_utilization_and_label(self, deltas, window, contract, margin, candidate):
        # The window is shorter than, equal to or longer than the stream.
        ring = WindowRing(window)
        for i, delta in enumerate(deltas):
            ring.push(abs(delta))
            mags = _oracle_window(deltas[: i + 1], window)
            view = ring.view()
            assert view.tolist() == mags.tolist()
            status, utilization = check_contract(view, contract, margin)
            assert status is _oracle_status(mags, contract, margin)
            assert _bits(utilization) == _bits(_oracle_utilization(mags, contract))
            assert _bits(contract_utilization(view, contract)) == _bits(utilization)
            label = classify_trace(view, candidate, window=len(view))
            assert label.kind is _oracle_class(mags, candidate)
        tail = samples(deltas)[-window:]
        assert check_contract(tail, contract, margin) == (status, utilization)

    @settings(max_examples=200, deadline=None)
    @given(deltas=st.lists(_DELTAS, min_size=1, max_size=150),
           window=st.integers(1, 40), contract=_CONTRACTS,
           slack=st.sampled_from([0.0, 0.02, 0.05]),
           threshold=st.sampled_from([0.05, 0.2, 1.0]))
    def test_detector_events(self, deltas, window, contract, slack, threshold):
        # Low thresholds fire, and so reset the ring, mid-stream.
        config = DetectorConfig(slack=slack, threshold=threshold, window=window)
        detector = IdentityFailureDetector(contract, config)
        oracle = _OracleDetector(contract, config)
        for sample in samples(deltas):
            event, expected = detector.update(sample), oracle.update(sample)
            if expected is None:
                assert event is None
                continue
            assert event.previous_class is contract and event.figure == 0
            got = (event.time, event.max_abs_delta, event.window_mean, event.window_std)
            assert [_bits(x) for x in got] == [_bits(x) for x in expected]
