import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelitylab.collective import (
    NeighborView,
    ResourcePool,
    SocialAction,
    SocialActionKind,
    SocialBehavior,
    SocialState,
    apply_social_action,
    decide_social_action,
    diversity_score,
)
from fidelitylab.errors import ConfigurationError, MembershipError
from fidelitylab.identity import ContractStatus


def make_pool(total=4, join_allocation=1, floor=0, members=()):
    pool = ResourcePool(total=total, floor=floor, join_allocation=join_allocation)
    for m in members:
        pool.join(m)
    return pool


def pool_views(pool, names):
    """Reserve, and each name's slack and free capacity, as the pool reports them."""
    return (
        pool.reserve,
        [pool.slack(n) for n in names],
        [pool.free_capacity(n) for n in names],
    )


def summed_views(allocations, total, floor, names):
    """The same views re-summed from an allocation snapshot, with no cache."""
    reserve = total - sum(allocations.values(), Fraction(0))

    def slack(n):
        return max(Fraction(0), allocations.get(n, Fraction(0)) - floor)

    return (
        reserve,
        [slack(n) for n in names],
        [reserve + sum((slack(m) for m in allocations if m != n), Fraction(0))
         for n in names],
    )


class TestPoolMechanics:
    def test_join_then_leave_restores_pool(self):
        pool = make_pool()
        before = (pool.reserve, pool.snapshot())
        pool.join("a")
        pool.leave("a")
        assert (pool.reserve, pool.snapshot()) == before

    def test_join_grants_from_reserve(self):
        pool = make_pool(total=4, join_allocation=1)
        pool.join("a")
        assert pool.allocation("a") == 1
        assert pool.reserve == 3

    def test_join_grant_capped_by_reserve(self):
        pool = make_pool(total=1, join_allocation=2)
        pool.join("a")
        assert pool.allocation("a") == 1
        assert pool.reserve == 0

    def test_grab_from_reserve_first(self):
        pool = make_pool(members=["a", "b"])
        pool.grab("a", Fraction(2))
        assert pool.allocation("a") == 3
        assert pool.allocation("b") == 1  # untouched, reserve covered it

    def test_grab_proportional_slack_reduction(self):
        # oracle in exact rationals: grab 1 against slacks {2, 1, 1}
        pool = make_pool(total=4, join_allocation=1,
                         members=["victim1", "victim2", "victim3", "grabber"])
        pool.assist("grabber", "victim1", Fraction(1))  # victims 2/1/1, grabber 0
        assert pool.reserve == 0
        pool.grab("grabber", Fraction(1))
        assert pool.allocations["victim1"] == Fraction(2) - Fraction(1, 2)
        assert pool.allocations["victim2"] == Fraction(1) - Fraction(1, 4)
        assert pool.allocations["victim3"] == Fraction(1) - Fraction(1, 4)
        assert pool.allocation("grabber") == 1
        assert pool.conserved()

    def test_grab_then_assist_back_restores(self):
        pool = make_pool(total=2, join_allocation=1, members=["a", "b"])
        before = pool.snapshot()
        pool.grab("a", Fraction(1))   # reserve 0 -> all from b's slack
        pool.assist("a", "b", Fraction(1))
        assert pool.snapshot() == before

    def test_floor_protects_base_allocation(self):
        pool = ResourcePool(total=2, floor=Fraction(1, 2), join_allocation=1)
        pool.join("a")
        pool.join("b")
        assert pool.slack("a") == Fraction(1, 2)
        assert pool.free_capacity("b") == Fraction(1, 2)  # only a's slack

    def test_infeasible_grab_rejected_atomically(self):
        pool = make_pool(total=2, join_allocation=1, members=["a", "b"])
        before = pool.snapshot()
        with pytest.raises(MembershipError):
            pool.grab("a", Fraction(10))
        assert pool.snapshot() == before

    def test_allocations_are_read_only(self):
        pool = make_pool(members=["a"])
        with pytest.raises(TypeError):
            pool.allocations["a"] = Fraction(3)
        assert pool.allocation("a") == 1 and pool.conserved()

    def test_stale_cache_breaks_conservation_check(self):
        pool = ResourcePool(total=2, floor=Fraction(1, 2), join_allocation=1)
        pool.join("a")
        pool.join("b")
        assert pool.conserved()
        pool._reserve += Fraction(1, 7)
        assert not pool.conserved()
        pool._reserve -= Fraction(1, 7)
        pool._slack_total += Fraction(1, 7)
        assert not pool.conserved()
        pool._slack_total -= Fraction(1, 7)
        pool._slack_members.discard("a")
        assert not pool.conserved()
        pool._slack_members.add("a")
        assert pool.conserved()

    def test_assist_needs_balance(self):
        pool = make_pool(members=["a", "b"])
        with pytest.raises(MembershipError):
            pool.assist("a", "b", Fraction(5))

    def test_membership_preconditions(self):
        pool = make_pool(members=["a"])
        with pytest.raises(MembershipError):
            pool.join("a")
        with pytest.raises(MembershipError):
            pool.leave("ghost")
        with pytest.raises(MembershipError):
            pool.grab("ghost", Fraction(1))


class TestApplySocialAction:
    def test_rejected_action_leaves_pool_bit_identical(self):
        pool = make_pool(members=["a"])
        before = (pool.reserve, pool.snapshot())
        ok = apply_social_action(pool, "a", SocialAction.join())  # already member
        assert not ok
        assert (pool.reserve, pool.snapshot()) == before

    def test_assist_records_debt(self):
        pool = make_pool(members=["a", "b"])
        states = {"a": SocialState(), "b": SocialState()}
        ok = apply_social_action(pool, "a", SocialAction.assist("b", Fraction(1, 2)), states)
        assert ok
        assert states["b"].debts == {"a": Fraction(1, 2)}

    def test_self_assist_rejected(self):
        pool = make_pool(members=["a"])
        assert not apply_social_action(pool, "a", SocialAction.assist("a", Fraction(1)))

    @given(st.sampled_from([Fraction(0), Fraction(1, 3)]),
           st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.sampled_from(["join", "leave", "grab", "assist"]),
                              st.integers(1, 3)),
                    max_size=40))
    @settings(max_examples=60)
    def test_conservation_over_any_action_sequence(self, floor, script):
        names = ["a", "b", "c"]
        pool = make_pool(total=6, join_allocation=2, floor=floor)
        for actor, verb, amount in script:
            if verb == "join":
                action = SocialAction.join()
            elif verb == "leave":
                action = SocialAction.leave()
            elif verb == "grab":
                action = SocialAction.grab(Fraction(amount, 3))
            else:
                target = {"a": "b", "b": "c", "c": "a"}[actor]
                action = SocialAction.assist(target, Fraction(amount, 3))
            before = (pool.snapshot(), pool_views(pool, names))
            ok = apply_social_action(pool, actor, action)
            assert pool.conserved()
            if not ok:
                assert (pool.snapshot(), pool_views(pool, names)) == before
            assert pool_views(pool, names) == summed_views(
                pool.snapshot(), pool.total, floor, names
            )


class TestDecide:
    def neighbors(self, *views):
        return [NeighborView(name=n, status=s, utilization=u) for n, s, u in views]

    def test_neutral_joins_when_in_danger(self):
        pool = make_pool()
        action = decide_social_action(
            "a", ContractStatus.AT_RISK, SocialBehavior.NEUTRAL, pool, [], SocialState()
        )
        assert action is not None and action.kind is SocialActionKind.JOIN

    def test_neutral_leaves_after_full_calm_window(self):
        pool = make_pool(members=["a"])
        state = SocialState(calm_ticks=20)
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.NEUTRAL, pool, [], state,
            calm_window=20,
        )
        assert action is not None and action.kind is SocialActionKind.LEAVE

    def test_neutral_waits_out_the_calm_window(self):
        pool = make_pool(members=["a"])
        state = SocialState(calm_ticks=19)
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.NEUTRAL, pool, [], state,
            calm_window=20,
        )
        assert action is None

    def test_neutral_never_grabs_or_assists(self):
        pool = make_pool(members=["a", "b"])
        for status in ContractStatus:
            action = decide_social_action(
                "a", status, SocialBehavior.NEUTRAL, pool,
                self.neighbors(("b", ContractStatus.VIOLATED, 2.0)), SocialState(),
            )
            assert action is None or action.kind in (SocialActionKind.JOIN, SocialActionKind.LEAVE)

    def test_individualistic_grabs_everything_available(self):
        pool = make_pool(total=2, join_allocation=1, members=["a"])
        assert pool.reserve == 1
        action = decide_social_action(
            "a", ContractStatus.AT_RISK, SocialBehavior.INDIVIDUALISTIC, pool, [], SocialState()
        )
        assert action.kind is SocialActionKind.GRAB
        assert action.amount == 1

    def test_individualistic_idle_when_holding(self):
        pool = make_pool(members=["a"])
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.INDIVIDUALISTIC, pool, [], SocialState()
        )
        assert action is None

    def test_cooperative_assists_worst_neighbor(self):
        pool = make_pool(total=4, join_allocation=1, members=["a", "b", "c"])
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.COOPERATIVE, pool,
            self.neighbors(("b", ContractStatus.AT_RISK, 0.9),
                           ("c", ContractStatus.VIOLATED, 1.5)),
            SocialState(), utilization=0.3, assist_quantum=Fraction(1, 4),
        )
        assert action.kind is SocialActionKind.ASSIST
        assert action.target == "c"
        assert action.amount == Fraction(1, 4)

    def test_cooperative_needs_twofold_margin(self):
        pool = make_pool(members=["a", "b"])
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.COOPERATIVE, pool,
            self.neighbors(("b", ContractStatus.VIOLATED, 1.5)),
            SocialState(), utilization=0.6,
        )
        assert action is None

    def test_cooperative_prefers_past_benefactor(self):
        # b assisted a earlier; with equal need, a reciprocates toward b
        pool = make_pool(total=6, join_allocation=1, members=["a", "b", "c"])
        state = SocialState()
        state.record_assist_received("b", Fraction(1, 2))
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.COOPERATIVE, pool,
            self.neighbors(("b", ContractStatus.AT_RISK, 0.9),
                           ("c", ContractStatus.AT_RISK, 0.9)),
            state, utilization=0.2, reciprocation_weight=2.0,
        )
        assert action.target == "b"


class TestDiversity:
    def test_monoculture_scores_zero(self):
        population = [("reactive", "neutral")] * 8
        assert diversity_score(population) == 0.0

    def test_even_two_way_split_is_maximal(self):
        population = [("reactive", "neutral")] * 4 + [("predictive", "cooperative")] * 4
        assert diversity_score(population) == pytest.approx(1.0)

    def test_three_way_split_matches_entropy_formula(self):
        population = (
            [("a", "x")] * 4 + [("b", "y")] * 2 + [("c", "z")] * 2
        )
        probabilities = [0.5, 0.25, 0.25]
        expected = -sum(p * math.log(p) for p in probabilities) / math.log(3)
        assert expected == pytest.approx(0.946, abs=5e-4)
        assert diversity_score(population) == pytest.approx(expected)

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigurationError):
            diversity_score([])
