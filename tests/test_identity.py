import numpy as np
import pytest
import struct
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidelitylab.errors import (
    ContractFreeError,
    InsufficientDataError,
    SequencingError,
)
from fidelitylab.engine import ContractSpec, identity_timeline
from fidelitylab.identity import (
    ContractGroup,
    ContractStatus,
    DetectorConfig,
    IdentityClass,
    IdentityKind,
    WindowRing,
    check_contract,
    classify_trace,
    contract_utilization,
)
from fidelitylab.reflection import DeltaSample


def samples(deltas, start=0.0, dt=1.0):
    return [
        DeltaSample(time=start + i * dt, figure=0, delta=float(d))
        for i, d in enumerate(deltas)
    ]


def guard(contract, config, window=None):
    """A one-row contract group with ``config``'s detector; the contract
    window defaults to the detector's."""
    return ContractGroup(contract, window or config.window, detector=config)


def feed(group, sample):
    """The event of a one-row group's detector for one sample, or None."""
    events = group.step(sample.time, [abs(sample.delta)])[2]
    return None if events is None else events[0][1]


def first_event(stream, contract, config):
    """The detector's first event over a stream of samples, or None."""
    group = guard(contract, config)
    return next((event for event in (feed(group, s) for s in stream) if event), None)


def check_one(mags, contract, margin=0.8):
    """check_contract on one window, passed as one row."""
    statuses, utilizations = check_contract(np.asarray(mags)[None], contract, margin)
    return statuses[0], utilizations[0]


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
        result = classify_trace(np.zeros(50), full_candidate(0.1, 0.1, 0.1, 0.1))
        assert result is IdentityKind.HARD_RT

    def test_within_hard_bound(self):
        result = classify_trace(np.abs([0.05, -0.03, 0.01]), full_candidate(0.1, 0.1, 0.1, 0.1))
        assert result is IdentityKind.HARD_RT

    def test_soft_multiset_example(self):
        # 97 samples at 0.02 and 3 at 0.5: brute-force statistics oracle
        values = [0.02] * 97 + [0.5] * 3
        mags = np.abs(values)
        assert np.max(mags) > 0.1                      # not hard
        assert np.mean(mags) == pytest.approx(0.0344)  # within soft mean 0.1
        assert np.std(mags) == pytest.approx(0.0818, abs=1e-4)  # within soft std 0.12
        result = classify_trace(mags, full_candidate(0.1, 0.1, 0.12, 0.1))
        assert result is IdentityKind.SOFT_RT

    def test_best_effort_via_coverage(self):
        # 96% within bound, but mean/std blown by huge outliers
        values = [0.01] * 96 + [5.0] * 4
        result = classify_trace(np.abs(values), full_candidate(0.1, 0.1, 0.12, 0.1))
        assert result is IdentityKind.BEST_EFFORT

    def test_non_rt_when_nothing_holds(self):
        values = [1.0] * 50 + [2.0] * 50
        result = classify_trace(np.abs(values), full_candidate(0.1, 0.1, 0.12, 0.1))
        assert result is IdentityKind.NON_RT

    def test_windowing_uses_trailing_samples(self):
        # The timeline labels each tick from its trailing contract window only.
        contract = ContractSpec(identity=IdentityClass.hard(0.1), window=50)
        labels = identity_timeline([5.0] * 50 + [0.0] * 50, contract)
        assert labels[49] == "NonRT"
        assert labels[98] == "BestEffort"  # one sample of 50 out of bound
        assert labels[99] == "HardRT"

    def test_empty_trace_rejected(self):
        with pytest.raises(InsufficientDataError):
            classify_trace(np.abs([]), full_candidate(0.1, 0.1, 0.1, 0.1))

    @given(st.lists(st.floats(-2, 2), min_size=5, max_size=60),
           st.sampled_from([2.0, 0.5, 8.0]))
    @settings(max_examples=60)
    def test_scale_consistency(self, values, scale):
        base = full_candidate(0.3, 0.2, 0.25, 0.3)
        scaled = full_candidate(0.3 * scale, 0.2 * scale, 0.25 * scale, 0.3 * scale)
        a = classify_trace(np.abs(values), base)
        b = classify_trace(np.abs([v * scale for v in values]), scaled)
        assert a is b

    @given(st.lists(st.floats(-0.09, 0.09), min_size=3, max_size=50))
    @settings(max_examples=50)
    def test_filtration_hard_implies_weaker_classes(self, values):
        # anything within the hard bound also satisfies soft and best-effort
        candidate = full_candidate(0.1, 0.1, 0.1, 0.1)
        result = classify_trace(np.abs(values), candidate)
        assert result is IdentityKind.HARD_RT
        mags = np.abs(values)
        assert np.mean(mags) <= 0.1 and np.std(mags) <= 0.1
        assert np.mean(mags <= 0.1) >= 0.95


class TestCheckContract:
    def test_holding_well_inside(self):
        status, _ = check_one(np.abs([0.05] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.HOLDING

    def test_at_risk_above_margin(self):
        status, _ = check_one(np.abs([0.09] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.AT_RISK

    def test_violated_above_bound(self):
        status, _ = check_one(np.abs([0.12] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.VIOLATED

    def test_margin_boundary_is_strict(self):
        # exactly at 0.8 utilization stays holding
        status, _ = check_one(np.abs([0.08] * 10), IdentityClass.hard(0.1))
        assert status is ContractStatus.HOLDING

    def test_soft_contract_uses_mean_and_std(self):
        values = [0.02] * 97 + [0.5] * 3
        status, _ = check_one(np.abs(values), IdentityClass.soft(0.1, 0.12))
        assert status is ContractStatus.HOLDING

    def test_best_effort_utilization_margins(self):
        contract = IdentityClass.best_effort(0.1)
        # 2% violating of a 5% allowance -> holding
        ok = np.abs([0.01] * 196 + [0.5] * 4)
        assert check_one(ok, contract)[0] is ContractStatus.HOLDING
        # 4.5% violating -> 0.9 utilization -> at risk
        risky = np.abs([0.01] * 191 + [0.5] * 9)
        assert check_one(risky, contract)[0] is ContractStatus.AT_RISK
        # 6% violating -> coverage below 95% -> violated
        broken = np.abs([0.01] * 188 + [0.5] * 12)
        assert check_one(broken, contract)[0] is ContractStatus.VIOLATED

    def test_non_rt_has_no_contract(self):
        with pytest.raises(ContractFreeError):
            ContractGroup(IdentityClass.non_rt(), 1)

    def test_empty_window_rejected(self):
        with pytest.raises(InsufficientDataError):
            ContractGroup(IdentityClass.hard(0.1), 0)
        with pytest.raises(InsufficientDataError):
            ContractGroup(IdentityClass.hard(0.1), 5, figures=())

    def test_utilization_comes_with_the_status(self):
        window = np.abs([0.01] * 191 + [0.5] * 9)
        contract = IdentityClass.best_effort(0.1)
        status, utilization = check_one(window, contract)
        assert status is ContractStatus.AT_RISK
        assert [utilization] == contract_utilization(window[None], contract)
        assert utilization == pytest.approx(0.9)


class TestFailureDetector:
    def config(self, slack=0.02, threshold=0.2, window=100):
        return DetectorConfig(slack=slack, threshold=threshold, window=window)

    def test_stream_at_half_margin_never_fires(self):
        contract = IdentityClass.hard(0.1)
        stream = samples([0.01] * 10_000)  # |delta| < slack, nothing accumulates
        assert first_event(stream, contract, self.config()) is None

    def test_step_change_fires_immediately_via_contract(self):
        contract = IdentityClass.hard(0.1)
        stream = samples([0.0] * 50 + [0.2] * 10)
        event = first_event(stream, contract, self.config(threshold=1e9))
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
        event = first_event(samples(deltas), contract, self.config(k, h))
        assert event is not None
        assert event.time == float(oracle_tick)

    def test_detector_resets_after_emission(self):
        contract = IdentityClass.hard(0.1)
        group = guard(contract, self.config())
        fired = []
        for s in samples([0.0] * 10 + [0.5] * 1 + [0.0] * 10 + [0.5] * 1):
            if feed(group, s) is not None:
                fired.append(s.time)
        assert fired == [10.0, 21.0]

    def test_determinism(self):
        contract = IdentityClass.hard(0.5)
        stream = list(np.abs(np.sin(np.arange(200) * 0.3)) * 0.3)
        a = first_event(samples(stream), contract, self.config())
        b = first_event(samples(stream), contract, self.config())
        assert (a is None) == (b is None)
        if a is not None:
            assert a.time == b.time

    def test_out_of_order_rejected(self):
        group = guard(IdentityClass.hard(0.1), self.config())
        feed(group, DeltaSample(time=1.0, figure=0, delta=0.0))
        with pytest.raises(SequencingError):
            feed(group, DeltaSample(time=0.5, figure=0, delta=0.0))

    def test_non_rt_cannot_be_guarded(self):
        with pytest.raises(ContractFreeError):
            guard(IdentityClass.non_rt(), self.config())

    def test_all_zero_stream_never_fires(self):
        contract = IdentityClass.hard(0.1)
        assert first_event(samples([0.0] * 1000), contract, self.config()) is None


class TestIdentityClassValidation:
    def test_positive_thresholds_required(self):
        assert IdentityClass.hard(-1.0).validate()
        assert IdentityClass.soft(0.1, 0.0).validate()
        assert not IdentityClass.hard(0.1).validate()
        assert not IdentityClass.non_rt().validate()


class TestWindowRing:
    def test_window_is_the_trailing_entries_in_order(self):
        ring = WindowRing(3)
        shorter = ring.windows(2)  # sliced once, read at each end
        seen = []
        for value in range(1, 9):
            ring.push(float(value))
            seen.append(list(ring.view()))
            assert list(shorter[ring.end]) == seen[-1][-2:] == list(ring.tail(min(2, ring.count)))
        assert seen[:3] == [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0]]
        assert seen[-1] == [6.0, 7.0, 8.0]
        assert all(len(window) == min(i + 1, 3) for i, window in enumerate(seen))

    def test_rows_are_streams_side_by_side(self):
        ring = WindowRing(3, rows=2)
        for value in range(1, 6):
            ring.push([value, -value])
        assert ring.view().tolist() == [[3, 4, 5], [-3, -4, -5]]
        assert ring.tail(2)[1].flags.c_contiguous

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


def _oracle_timeline_candidate(contract):
    """The contract's thresholds, each one it leaves unset at the first it sets."""
    levels = (contract.hard_threshold, contract.soft_mean, contract.soft_std,
              contract.acceptability_bound)
    first = next(x for x in levels if x is not None)
    return full_candidate(*(first if x is None else x for x in levels))


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
           margin=st.sampled_from([0.5, 0.8, 1.0]))
    @example(deltas=[0.05, -0.12, 0.08], window=3, margin=0.8,
             contract=IdentityClass.soft(0.08, 0.02))
    @example(deltas=[0.05, -0.12, 0.08], window=2, margin=0.8,
             contract=IdentityClass.best_effort(0.1))
    @example(deltas=[0.05, -0.12, 0.08], window=9, margin=0.8,
             contract=IdentityClass.hard(0.1))
    def test_status_utilization_and_label(self, deltas, window, contract, margin):
        # The window is shorter than, equal to or longer than the stream.
        # The ring feeds the status; the post-pass labels each tick from its
        # trailing window of one |delta| array of the whole run.
        ring = WindowRing(window)
        run = np.abs(deltas)
        labels = identity_timeline(deltas, ContractSpec(identity=contract, window=window))
        assert len(labels) == len(deltas)
        candidate = _oracle_timeline_candidate(contract)
        for i, delta in enumerate(deltas):
            ring.push(abs(delta))
            mags = _oracle_window(deltas[: i + 1], window)
            view = ring.view()
            assert view.tolist() == mags.tolist()
            status, utilization = check_one(view, contract, margin)
            assert status is _oracle_status(mags, contract, margin)
            assert _bits(utilization) == _bits(_oracle_utilization(mags, contract))
            assert _bits(contract_utilization(view[None], contract)[0]) == _bits(utilization)
            sliced = run[max(0, i + 1 - window): i + 1]
            assert _bits(check_one(sliced, contract, margin)[1]) == _bits(utilization)
            assert labels[i] == _oracle_class(mags, candidate).value

    @given(deltas=st.lists(_DELTAS, max_size=60))
    def test_timeline_without_a_contract_is_non_rt(self, deltas):
        assert identity_timeline(deltas, None) == ["NonRT"] * len(deltas)

    @settings(max_examples=200, deadline=None)
    @given(deltas=st.lists(_DELTAS, min_size=1, max_size=150),
           window=st.integers(1, 40), contract=_CONTRACTS,
           slack=st.sampled_from([0.0, 0.02, 0.05]),
           threshold=st.sampled_from([0.05, 0.2, 1.0]))
    def test_detector_events(self, deltas, window, contract, slack, threshold):
        # Low thresholds fire, and so reset the ring, mid-stream.
        config = DetectorConfig(slack=slack, threshold=threshold, window=window)
        group = guard(contract, config)
        oracle = _OracleDetector(contract, config)
        for sample in samples(deltas):
            event, expected = feed(group, sample), oracle.update(sample)
            if expected is None:
                assert event is None
                continue
            assert event.previous_class is contract and event.figure == 0
            got = (event.time, event.max_abs_delta, event.window_mean, event.window_std)
            assert [_bits(x) for x in got] == [_bits(x) for x in expected]

    @settings(max_examples=100, deadline=None)
    @given(streams=st.integers(1, 60).flatmap(
               lambda n: st.lists(st.lists(_DELTAS, min_size=n, max_size=n),
                                  min_size=1, max_size=6)),
           window=st.integers(1, 30), detector_window=st.integers(1, 40),
           contract=_CONTRACTS, margin=st.sampled_from([0.5, 0.8, 1.0]),
           slack=st.sampled_from([0.0, 0.02, 0.05]),
           threshold=st.sampled_from([0.05, 0.2, 1.0]))
    # Soft rows that reset on different ticks, with a detector window
    # longer than, then shorter than, the contract window.
    @example(streams=[[0.01] * 8 + [0.3] + [0.01] * 20, [0.01] * 14 + [0.3] + [0.01] * 14,
                      [0.01] * 29],
             window=5, detector_window=12, contract=IdentityClass.soft(0.05, 0.05),
             margin=0.8, slack=0.02, threshold=1.0)
    @example(streams=[[0.01] * 8 + [0.3] + [0.01] * 20, [0.01] * 14 + [0.3] + [0.01] * 14],
             window=12, detector_window=5, contract=IdentityClass.soft(0.05, 0.05),
             margin=0.8, slack=0.02, threshold=1.0)
    def test_group_rows_match_one_stream_oracles(self, streams, window, detector_window,
                                                 contract, margin, slack, threshold):
        # Each row of one group has its own delta stream; per row, the
        # status, the utilization and the detector's events are those of
        # the one-stream oracles.
        config = DetectorConfig(slack=slack, threshold=threshold, window=detector_window)
        group = ContractGroup(contract, window, margin, config, figures=range(len(streams)))
        oracles = [_OracleDetector(contract, config) for _ in streams]
        for i in range(len(streams[0])):
            statuses, utilizations, events = group.step(float(i), [abs(s[i]) for s in streams])
            assert events is None or events
            fired = dict(events or ())
            assert list(fired) == sorted(fired)
            for row, stream in enumerate(streams):
                mags = _oracle_window(stream[: i + 1], window)
                assert statuses[row] is _oracle_status(mags, contract, margin)
                assert _bits(utilizations[row]) == _bits(_oracle_utilization(mags, contract))
                expected = oracles[row].update(DeltaSample(time=float(i), figure=row,
                                                           delta=stream[i]))
                event = fired.get(row)
                if expected is None:
                    assert event is None
                    continue
                assert event.previous_class is contract and event.figure == row
                got = (event.time, event.max_abs_delta, event.window_mean, event.window_std)
                assert [_bits(x) for x in got] == [_bits(x) for x in expected]
