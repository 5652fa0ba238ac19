import math
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelitylab.collective import (
    COOPERATIVE_DONOR_UTILIZATION,
    NEEDY,
    NeedyRanking,
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
    """The same views re-summed from a copy of the allocations, with no cache."""
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
        before = (pool.reserve, dict(pool.allocations))
        pool.join("a")
        pool.leave("a")
        assert (pool.reserve, dict(pool.allocations)) == before

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
        before = dict(pool.allocations)
        pool.grab("a", Fraction(1))   # reserve 0 -> all from b's slack
        pool.assist("a", "b", Fraction(1))
        assert dict(pool.allocations) == before

    def test_floor_protects_base_allocation(self):
        pool = ResourcePool(total=2, floor=Fraction(1, 2), join_allocation=1)
        pool.join("a")
        pool.join("b")
        assert pool.slack("a") == Fraction(1, 2)
        assert pool.free_capacity("b") == Fraction(1, 2)  # only a's slack

    def test_infeasible_grab_rejected_atomically(self):
        pool = make_pool(total=2, join_allocation=1, members=["a", "b"])
        before = dict(pool.allocations)
        with pytest.raises(MembershipError):
            pool.grab("a", Fraction(10))
        assert dict(pool.allocations) == before

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
        # Each exact cache in turn: reserve, slack total, one member's slack,
        # free capacity, each off by one unit of 1/D.
        caches = pool.__dict__
        for owner, name in ((caches, "_reserve"), (caches, "_slack_total"),
                            (pool._slack, "a"), (caches, "_capacity")):
            good = owner[name]
            owner[name] = good + 1
            assert not pool.conserved(), name
            owner[name] = good
            assert pool.conserved(), name

    def test_over_allocation_breaks_conservation_check(self):
        pool = make_pool(total=2, join_allocation=1, members=["a"])
        pool._set("a", 3 * pool.denominator)  # caches agree, but the reserve is -1
        assert pool.reserve == -1
        assert not pool.conserved()

    def test_slack_cache_must_name_exactly_the_members_with_slack(self):
        pool = ResourcePool(total=2, floor=Fraction(1, 2), join_allocation=1)
        pool.join("a")
        pool.join("b")
        slack = pool._slack.pop("a")
        assert not pool.conserved()
        pool._slack["a"] = slack
        pool._slack["ghost"] = 0
        assert not pool.conserved()
        del pool._slack["ghost"]
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
        before = (pool.reserve, dict(pool.allocations))
        ok = apply_social_action(pool, "a", SocialAction.join())  # already member
        assert not ok
        assert (pool.reserve, dict(pool.allocations)) == before

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
            before = (dict(pool.allocations), pool_views(pool, names))
            ok = apply_social_action(pool, actor, action)
            assert pool.conserved() and pool.reserve >= 0
            if not ok:
                assert (dict(pool.allocations), pool_views(pool, names)) == before
            elif verb == "grab":
                # Reserve first, then the same share of every other member's slack.
                old = before[0]
                reserve = pool.total - sum(old.values(), Fraction(0))
                remainder = max(Fraction(0), action.amount - reserve)
                others = {n: max(Fraction(0), a - floor) for n, a in old.items() if n != actor}
                share = remainder / sum(others.values()) if remainder else Fraction(0)
                expected = {n: old[n] - others[n] * share for n in others}
                expected[actor] = old[actor] + action.amount
                assert dict(pool.allocations) == expected
            assert pool_views(pool, names) == summed_views(
                dict(pool.allocations), pool.total, floor, names
            )
            assert pool.float_reserve == float(pool.reserve)
            assert dict(pool.float_allocations) == {
                n: float(a) for n, a in dict(pool.allocations).items()
            }


class ReferencePool:
    """The pool in plain ``Fraction`` arithmetic, every view re-summed from
    the allocations: the oracle for the int pool, which must agree with it
    exactly after every action."""

    def __init__(self, total, floor, join_allocation):
        self.total, self.floor, self.join_allocation = total, floor, join_allocation
        self.allocations = {}

    @property
    def reserve(self):
        return self.total - sum(self.allocations.values(), Fraction(0))

    def slack(self, node):
        return max(Fraction(0), self.allocations.get(node, Fraction(0)) - self.floor)

    def free_capacity(self, node):
        return self.reserve + sum((self.slack(n) for n in self.allocations if n != node),
                                  Fraction(0))

    def apply(self, actor, action):
        """Apply one action; False, with nothing changed, if it is infeasible."""
        held, amount = self.allocations, action.amount
        if action.kind is SocialActionKind.JOIN:
            if actor in held:
                return False
            held[actor] = min(self.join_allocation, self.reserve)
        elif action.kind is SocialActionKind.LEAVE:
            if actor not in held:
                return False
            del held[actor]
        elif action.kind is SocialActionKind.GRAB:
            if actor not in held or amount <= 0 or amount > self.free_capacity(actor):
                return False
            remainder = amount - min(amount, self.reserve)
            if remainder > 0:
                others = [n for n in held if n != actor]
                share = remainder / sum(self.slack(n) for n in others)
                for n in others:
                    held[n] -= self.slack(n) * share
            held[actor] += amount
        else:
            target = action.target
            if (actor not in held or target not in held or actor == target
                    or amount <= 0 or amount > held[actor]):
                return False
            held[actor] -= amount
            held[target] += amount
        return True


def exact(draw_numerator, denominators):
    return st.builds(Fraction, draw_numerator, st.sampled_from(denominators))


class TestReferencePool:
    # Denominators the pool is not built with (7, 11, 13, 97) refine D from
    # the amount; "share" grabs a fraction of the free capacity, so that with
    # the reserve spent the donors give a share below 1 and D is refined
    # again; "all" grabs the whole free capacity (a share of exactly 1).
    NAMES = ["a", "b", "c", "d"]

    @settings(max_examples=300, deadline=None)
    @given(exact(st.integers(1, 40), [1, 2, 3, 4, 5, 10]),
           exact(st.integers(0, 4), [1, 2, 4, 10]),
           exact(st.integers(0, 20), [1, 2, 3, 4, 10]),
           st.lists(st.tuples(st.sampled_from(NAMES),
                              st.sampled_from(["join", "leave", "grab", "share", "all",
                                               "assist", "give"]),
                              st.sampled_from(NAMES),
                              exact(st.integers(0, 12), [1, 2, 3, 7, 11, 13, 97])),
                    min_size=10, max_size=40))
    def test_the_int_pool_agrees_with_fraction_arithmetic(self, total, floor, join, script):
        pool = ResourcePool(total=total, floor=floor, join_allocation=join)
        reference = ReferencePool(total, floor, join)
        joins = [(name, "join", name, Fraction(0)) for name in self.NAMES]
        for actor, verb, target, amount in joins + script:
            if verb == "join":
                action = SocialAction.join()
            elif verb == "leave":
                action = SocialAction.leave()
            elif verb in ("grab", "share", "all"):
                free = reference.free_capacity(actor)
                scale = {"grab": 1, "share": free * amount / (amount + 1), "all": free}[verb]
                action = SocialAction.grab(amount if verb == "grab" else scale)
            else:
                held = reference.allocations.get(actor, Fraction(0))
                action = SocialAction.assist(
                    target, amount if verb == "assist" else held * amount / (amount + 1))
            before = (pool.denominator, dict(pool.units), pool_views(pool, self.NAMES),
                      dict(pool.float_allocations), pool.float_reserve)
            reference_before = dict(reference.allocations)
            ok = apply_social_action(pool, actor, action)
            assert ok == reference.apply(actor, action)
            if not ok:
                assert (pool.denominator, dict(pool.units), pool_views(pool, self.NAMES),
                        dict(pool.float_allocations), pool.float_reserve) == before
                assert reference.allocations == reference_before
            assert dict(pool.allocations) == reference.allocations
            assert pool.reserve == reference.reserve
            assert [pool.slack(n) for n in self.NAMES] == [reference.slack(n) for n in self.NAMES]
            assert [pool.free_capacity(n) for n in self.NAMES] == [
                reference.free_capacity(n) for n in self.NAMES]
            assert pool.float_reserve.hex() == float(reference.reserve).hex()
            assert {n: f.hex() for n, f in pool.float_allocations.items()} == {
                n: float(a).hex() for n, a in reference.allocations.items()}
            assert pool.conserved()

    def test_a_foreign_amount_and_a_share_below_one_each_refine_the_unit(self):
        pool = make_pool(total=4, join_allocation=1, members=["a", "b", "c"])
        reference = ReferencePool(Fraction(4), Fraction(0), Fraction(1))
        for n in ["a", "b", "c"]:
            reference.apply(n, SocialAction.join())
        assert pool.denominator == 1
        # From the reserve, then a gift: each amount brings its denominator.
        # Then 1 against a reserve of 7/14 and slacks of 16/14 and 14/14: the
        # donors keep 23/30 of their slack, and as both slacks are even D
        # gains 15, not 30. Taking the whole free capacity (a share of 1)
        # refines nothing.
        for actor, action, denominator in (
            ("a", SocialAction.grab(Fraction(1, 2)), 2),
            ("a", SocialAction.assist("b", Fraction(1, 7)), 14),
            ("a", SocialAction.grab(Fraction(1)), 14 * 15),
            ("c", None, 14 * 15),
        ):
            action = action or SocialAction.grab(reference.free_capacity(actor))
            assert apply_social_action(pool, actor, action) and reference.apply(actor, action)
            assert pool.denominator == denominator
            assert dict(pool.allocations) == reference.allocations and pool.conserved()


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_a_numerator_over_d_gives_the_float_of_the_fraction(data):
    denominator = data.draw(st.integers(1, 2 ** data.draw(st.sampled_from([8, 64, 300, 900]))))
    numerator = data.draw(st.integers(-denominator * 2 ** 20, denominator * 2 ** 20))
    assert (numerator / denominator).hex() == float(Fraction(numerator, denominator)).hex()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.sampled_from([7, 11, 13, 97])),
                min_size=80, max_size=100))
def test_refinements_chain_to_a_wide_unit_and_move_no_float(grabs):
    """Chained pro-rata grabs below a share of 1, the members taking turns,
    refine D to hundreds of bits; each refinement leaves every float shadow
    as it was, and every shadow stays the float of its exact value."""
    names = ["a", "b", "c"]
    pool = make_pool(total=3, join_allocation=1, floor=Fraction(1, 10), members=names)
    refine, refinements = pool._refine, []

    def shadows():
        return ({n: f.hex() for n, f in pool.float_allocations.items()},
                pool.float_reserve.hex())

    def checked_refine(k):
        before, denominator = shadows(), pool.denominator
        refine(k)
        assert pool.denominator == denominator * k and shadows() == before
        if k > 1:
            refinements.append(k)

    pool._refine = checked_refine
    for turn, (part, whole) in enumerate(grabs):
        node = names[turn % 3]
        pool.grab(node, pool.free_capacity(node) * Fraction(part, whole))
        assert shadows() == ({n: float(a).hex() for n, a in pool.allocations.items()},
                             float(pool.reserve).hex())
        assert pool.conserved()
    assert pool.denominator.bit_length() > 200 and len(refinements) > len(grabs) // 2


class TestDecide:
    def neighbors(self, *views):
        return NeedyRanking(views)

    def test_neutral_joins_when_in_danger(self):
        pool = make_pool()
        action = decide_social_action(
            "a", ContractStatus.AT_RISK, SocialBehavior.NEUTRAL, pool, NeedyRanking(()),
            SocialState()
        )
        assert action is not None and action.kind is SocialActionKind.JOIN

    def test_neutral_leaves_after_full_calm_window(self):
        pool = make_pool(members=["a"])
        state = SocialState(calm_ticks=20)
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.NEUTRAL, pool, NeedyRanking(()), state,
            calm_window=20,
        )
        assert action is not None and action.kind is SocialActionKind.LEAVE

    def test_neutral_waits_out_the_calm_window(self):
        pool = make_pool(members=["a"])
        state = SocialState(calm_ticks=19)
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.NEUTRAL, pool, NeedyRanking(()), state,
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
            "a", ContractStatus.AT_RISK, SocialBehavior.INDIVIDUALISTIC, pool, NeedyRanking(()),
            SocialState()
        )
        assert action.kind is SocialActionKind.GRAB
        assert action.amount == 1

    def test_individualistic_idle_when_holding(self):
        pool = make_pool(members=["a"])
        action = decide_social_action(
            "a", ContractStatus.HOLDING, SocialBehavior.INDIVIDUALISTIC, pool, NeedyRanking(()),
            SocialState()
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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_needy_neighbours_alone_pick_the_same_actions(self, data):
        # Two twin populations decide in turn, as the collective stage does,
        # applying each action before the next node decides: one offers every
        # neighbour, the other only the needy ones, in the same order.
        count = data.draw(st.integers(2, 10))
        names = [f"n{i}" for i in range(count)]

        def draw_each(strategy):
            return data.draw(st.lists(strategy, min_size=count, max_size=count))

        statuses = draw_each(st.sampled_from([None, *ContractStatus]))
        utilizations = draw_each(st.one_of(st.none(), st.sampled_from([0.1, 0.5, 0.9, 1.5])))
        socials = draw_each(st.sampled_from(list(SocialBehavior)))
        members = draw_each(st.booleans())
        calm = draw_each(st.integers(0, 3))
        debts = draw_each(st.sets(st.sampled_from(names), max_size=2))

        def population():
            pool = make_pool(total=count, join_allocation=Fraction(1, 2), floor=Fraction(1, 10),
                             members=[n for n, m in zip(names, members) if m])
            states = {n: SocialState(calm_ticks=c, debts={d: Fraction(1, 4) for d in owed})
                      for n, c, owed in zip(names, calm, debts)}
            return pool, states

        views = list(zip(names, statuses, utilizations))
        ranked, needy = NeedyRanking(views), NeedyRanking(v for v in views if v[1] in NEEDY)
        (pool, states), (twin, twin_states) = population(), population()
        for name, status, social, utilization in zip(names, statuses, socials, utilizations):
            decided = [
                decide_social_action(
                    name, status, social, on, neighbours, known[name],
                    utilization=utilization, calm_window=2, assist_quantum=Fraction(1, 4),
                )
                for on, neighbours, known in ((pool, ranked, states), (twin, needy, twin_states))
            ]
            assert decided[0] == decided[1]
            if decided[0] is not None:
                assert (apply_social_action(pool, name, decided[0], states=states)
                        == apply_social_action(twin, name, decided[1], states=twin_states))
        assert dict(pool.allocations) == dict(twin.allocations)
        assert states == twin_states

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_donor_picks_the_highest_score_then_the_poorest_then_the_name(self, data):
        # Few distinct utilizations, debts and allocations, so every tier of
        # the ranking is reached; the oracle ranks by the whole key at once.
        count = data.draw(st.integers(1, 8))
        names = data.draw(st.permutations([f"n{i}" for i in range(count)]))
        utilizations = data.draw(st.lists(
            st.one_of(st.none(), st.sampled_from([0.5, 0.9, 1.0, 1.8])),
            min_size=count, max_size=count))
        statuses = data.draw(st.lists(st.sampled_from(NEEDY), min_size=count, max_size=count))
        owed = data.draw(st.sets(st.sampled_from(names)))
        grants = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=count, max_size=count))
        pool = make_pool(total=2 * count + 1, join_allocation=1, members=["donor", *names])
        for name, grant in zip(names, grants):
            if grant == 0:
                pool.assist(name, "donor", Fraction(1))
            elif grant == 2:
                pool.grab(name, Fraction(1))
        state = SocialState(debts={n: Fraction(1, 4) for n in owed})
        needy = list(zip(names, statuses, utilizations))

        def score(n):
            name, _, utilization = n
            need = 1.0 if utilization is None else utilization
            return need * 2.0 if name in owed else need

        expected = max(needy, key=lambda n: (score(n), -pool.allocation(n[0]), n[0]))
        action = decide_social_action(
            "donor", ContractStatus.HOLDING, SocialBehavior.COOPERATIVE, pool,
            NeedyRanking(needy), state, utilization=0.1, assist_quantum=Fraction(1, 4),
        )
        assert action == SocialAction.assist(expected[0], Fraction(1, 4))


class Neighbor(NamedTuple):
    name: str
    status: Optional[ContractStatus]
    utilization: Optional[float]


def scan_cooperative(node, pool, neighbors, state, utilization, assist_quantum,
                     reciprocation_weight):
    """The cooperative choice as a per-node scan, the reference for the
    ranking: every needy member but the donor is scored, the owed
    benefactors weighted, and the top scores are tie-broken by allocation,
    then by name."""
    if not pool.is_member(node):
        return None
    if utilization is None or utilization > COOPERATIVE_DONOR_UTILIZATION:
        return None
    needy = [n for n in neighbors
             if n.name != node and n.status in NEEDY and pool.is_member(n.name)]
    if not needy:
        return None
    quantum = min(Fraction(assist_quantum), pool.allocation(node))
    if quantum <= 0:
        return None

    def score(n):
        need = n.utilization if n.utilization is not None else 1.0
        if state.debts.get(n.name, 0) > 0:
            need *= reciprocation_weight
        return need

    scores = [score(n) for n in needy]
    best = max(scores)
    tied = [n for n, s in zip(needy, scores) if s == best]
    target = max(tied, key=lambda n: (-pool.allocation(n.name), n.name))
    return SocialAction.assist(target.name, quantum)


class TestNeedyRanking:
    def test_ranks_needy_nodes_high_to_low_in_node_order_among_equals(self):
        ranking = NeedyRanking([
            ("a", ContractStatus.AT_RISK, 0.9),
            ("b", ContractStatus.HOLDING, 2.0),
            ("c", ContractStatus.VIOLATED, None),
            ("d", None, 3.0),
            ("e", ContractStatus.VIOLATED, 1.0),
            ("f", ContractStatus.AT_RISK, 0.9),
        ])
        assert ranking.groups == [(1.0, ["c", "e"]), (0.9, ["a", "f"])]
        assert ranking.scores == {"a": 0.9, "c": 1.0, "e": 1.0, "f": 0.9}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_donors_choose_what_the_per_node_scan_chooses(self, data):
        # A collective stage in miniature: every node decides in turn and its
        # action is applied before the next decides, so membership and
        # allocations move under the later donors. Each cooperative decision
        # must equal the per-node scan's on the same pool.
        count = data.draw(st.integers(1, 9))
        names = data.draw(st.permutations([f"n{i}" for i in range(count)]))

        def draw_each(strategy):
            return data.draw(st.lists(strategy, min_size=count, max_size=count))

        # Weighted towards needy members and cooperative donors, so that most
        # cases reach the ranking's ties, debts and tie-breaks.
        statuses = draw_each(st.sampled_from([None, ContractStatus.HOLDING, *NEEDY, *NEEDY]))
        utilizations = draw_each(st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])))
        socials = draw_each(st.sampled_from([*[SocialBehavior.COOPERATIVE] * 3,
                                             SocialBehavior.NEUTRAL,
                                             SocialBehavior.INDIVIDUALISTIC]))
        members = draw_each(st.sampled_from([True, True, True, False]))
        grants = draw_each(st.sampled_from(["zero", "join", "grab"]))
        debts = draw_each(st.sets(st.sampled_from(names), max_size=3))
        weight = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
        joined = [n for n, m in zip(names, members) if m]
        pool = make_pool(total=count + 1, join_allocation=Fraction(1, 2), members=joined)
        # Zero allocations (given away whole) and uneven ones (grabbed).
        for name, grant in zip(names, grants):
            others = [n for n in joined if n != name]
            if name not in joined:
                continue
            if grant == "zero" and others and pool.allocation(name) > 0:
                pool.assist(name, others[0], pool.allocation(name))
            elif grant == "grab" and pool.free_capacity(name) > 0:
                pool.grab(name, min(Fraction(1, 4), pool.free_capacity(name)))
        states = {n: SocialState(calm_ticks=1, debts={d: Fraction(1, 8) for d in owed})
                  for n, owed in zip(names, debts)}
        views = [Neighbor(*view) for view in zip(names, statuses, utilizations)]
        ranking = NeedyRanking(views)
        for name, status, social, utilization in zip(names, statuses, socials, utilizations):
            decided = decide_social_action(
                name, status, social, pool, ranking, states[name], utilization=utilization,
                calm_window=1, assist_quantum=Fraction(1, 4), reciprocation_weight=weight,
            )
            if social is SocialBehavior.COOPERATIVE:
                assert decided == scan_cooperative(
                    name, pool, views, states[name], utilization, Fraction(1, 4), weight)
            if decided is not None:
                apply_social_action(pool, name, decided, states=states)
            assert pool.conserved()


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
