"""Collective behaviors over a shared correction-budget pool.

What nodes exchange socially is per-tick correction capacity: the larger a
node's allocation, the bigger the corrective adjustment it may apply each
tick. That single scalar makes competition and mutualism measurable.

Three dispositions:

* Neutral: joins the pool when its own contract is in danger, leaves after
  a full calm stretch, and never touches anyone else's share.
* Individualistic: when at risk, grabs the largest feasible allocation
  increment — the free reserve first, then other members' slack pro rata.
* Cooperative: when comfortably inside its contract (utilization at most
  half), donates a fixed quantum to the worst-off needy neighbour,
  preferring past benefactors (the assist-debt ledger), accepting present
  loss for future reciprocation. The needy nodes are ranked once per tick
  (``NeedyRanking``); a donor reads that ranking's top eligible group and
  rescores only the benefactors it owes, so its choice costs
  O(ties + debts), not O(needy).

All pool quantities are exact rationals so the conservation invariant
(allocations + reserve == total) holds bit-for-bit over any action
sequence, and rejected actions leave the pool untouched. The pool caches
its reserve, each member's slack, the slack total and the free capacity
(reserve + slack total) as exact values that each mutation adjusts by the
allocation it changes, so every view is a lookup; ``conserved()`` re-sums
the allocations from scratch in integers over one common denominator and
checks every cache against that recompute. Beside each exact allocation
and the reserve the pool keeps its ``float()``, written by the same
mutation, for readers that need a float every tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Optional, Sequence, Union

from .errors import ConfigurationError, MembershipError
from .identity import ContractStatus

Amount = Union[int, float, Fraction]

_ZERO = Fraction(0)


class SocialBehavior(Enum):
    NEUTRAL = "neutral"
    INDIVIDUALISTIC = "individualistic"
    COOPERATIVE = "cooperative"


class SocialActionKind(Enum):
    JOIN = "join"
    LEAVE = "leave"
    GRAB = "grab"
    ASSIST = "assist"


@dataclass(frozen=True)
class SocialAction:
    kind: SocialActionKind
    amount: Fraction = Fraction(0)
    target: Optional[str] = None  # assist recipient

    @staticmethod
    def join() -> "SocialAction":
        return SocialAction(SocialActionKind.JOIN)

    @staticmethod
    def leave() -> "SocialAction":
        return SocialAction(SocialActionKind.LEAVE)

    @staticmethod
    def grab(amount: Amount) -> "SocialAction":
        return SocialAction(SocialActionKind.GRAB, amount=Fraction(amount))

    @staticmethod
    def assist(target: str, amount: Amount) -> "SocialAction":
        return SocialAction(SocialActionKind.ASSIST, amount=Fraction(amount), target=target)

    def validate(self, actor: str) -> list[str]:
        problems = []
        if self.kind in (SocialActionKind.GRAB, SocialActionKind.ASSIST) and self.amount <= 0:
            problems.append(f"{self.kind.value} amount must be > 0")
        if self.kind is SocialActionKind.ASSIST and self.target == actor:
            problems.append("cannot assist oneself")
        return problems


class ResourcePool:
    """Finite per-tick correction budget shared by member nodes.

    Mutating operations are atomic: an infeasible action raises (or is
    rejected by apply_social_action) with the pool bit-identical. Every
    allocation change goes through ``_set``, which keeps the cached reserve,
    per-member slack, slack total and free capacity exact, and the float
    shadows (``float_allocations``, ``float_reserve``) equal to ``float()``
    of the exact values.
    """

    def __init__(
        self,
        total: Amount,
        floor: Amount = 0,
        join_allocation: Amount = 0,
    ):
        self.total = Fraction(total)
        self.floor = Fraction(floor)
        self.join_allocation = Fraction(join_allocation)
        if self.total < 0 or self.floor < 0 or self.join_allocation < 0:
            raise ConfigurationError("pool quantities must be >= 0")
        self._allocations: dict[str, Fraction] = {}
        self.allocations = MappingProxyType(self._allocations)
        self._float_allocations: dict[str, float] = {}
        self.float_allocations = MappingProxyType(self._float_allocations)
        self._reserve = self.total
        self._float_reserve = float(self.total)
        self._slack: dict[str, Fraction] = {}  # allocation - floor, where positive
        self._slack_total = _ZERO
        self._capacity = self.total  # reserve + slack total

    # -- views ------------------------------------------------------------

    @property
    def reserve(self) -> Fraction:
        return self._reserve

    @property
    def float_reserve(self) -> float:
        return self._float_reserve

    def is_member(self, node: str) -> bool:
        return node in self._allocations

    def allocation(self, node: str) -> Fraction:
        return self._allocations.get(node, _ZERO)

    def slack(self, node: str) -> Fraction:
        return self._slack.get(node, _ZERO)

    def free_capacity(self, node: str) -> Fraction:
        """Largest allocation increment the node could acquire right now."""
        slack = self._slack.get(node)
        return self._capacity if slack is None else self._capacity - slack

    def conserved(self) -> bool:
        """Re-sum the allocations from scratch, as integer numerators over
        their least common denominator: they and the reserve add up to the
        total, neither they nor the reserve is negative, and the cached
        reserve, each member's slack, the slack total and the free capacity
        agree with the recompute."""
        # Fraction keeps its lowest terms in _numerator/_denominator; the
        # public properties cost a Python call per read, three times this
        # loop's other work.
        allocations, slacks = self._allocations, self._slack
        scalars = (self.total, self.floor, self._reserve, self._slack_total, self._capacity)
        quantities = chain(allocations.values(), slacks.values(), scalars)
        denominators = {q._denominator for q in quantities}
        common = math.lcm(*denominators)
        scale = {d: common // d for d in denominators}
        total, floor, reserve, slack_total, capacity = [
            q._numerator * scale[q._denominator] for q in scalars
        ]
        allocated = summed_slack = slack_members = 0
        for node, allocation in allocations.items():
            value = allocation._numerator * scale[allocation._denominator]
            if value < 0:
                return False
            allocated += value
            if value > floor:
                slack = value - floor
                cached = slacks.get(node)
                if cached is None or cached._numerator * scale[cached._denominator] != slack:
                    return False
                summed_slack += slack
                slack_members += 1
        return (
            allocated + reserve == total
            and reserve >= 0
            and len(slacks) == slack_members
            and summed_slack == slack_total
            and reserve + slack_total == capacity
        )

    # -- mutations --------------------------------------------------------

    def _set(self, node: str, value: Optional[Fraction]) -> None:
        """Set one allocation (None removes the member), adjusting the caches
        by its old and new values and rewriting its float shadows."""
        old = self._allocations.get(node)
        if old is not None:
            self._reserve += old
        old_slack = self._slack.pop(node, None)
        if old_slack is not None:
            self._slack_total -= old_slack
        if value is None:
            del self._allocations[node]
            del self._float_allocations[node]
        else:
            self._allocations[node] = value
            self._float_allocations[node] = float(value)
            self._reserve -= value
            if value > self.floor:
                slack = self._slack[node] = value - self.floor
                self._slack_total += slack
        self._float_reserve = float(self._reserve)
        self._capacity = self._reserve + self._slack_total

    def join(self, node: str) -> None:
        if self.is_member(node):
            raise MembershipError(f"{node} is already a member")
        self._set(node, min(self.join_allocation, self._reserve))

    def leave(self, node: str) -> None:
        if not self.is_member(node):
            raise MembershipError(f"{node} is not a member")
        self._set(node, None)

    def grab(self, node: str, amount: Fraction) -> None:
        """Take from the reserve first, then pro rata from others' slack."""
        if not self.is_member(node):
            raise MembershipError(f"{node} must be a member to grab")
        if amount <= 0:
            raise ConfigurationError("grab amount must be > 0")
        available = self.free_capacity(node)
        if amount > available:
            raise MembershipError(
                f"grab of {amount} exceeds available capacity {available}"
            )
        remainder = amount - min(amount, self._reserve)
        if remainder > 0:
            # Each donor gives the same share of its slack.
            share = remainder / (self._slack_total - self.slack(node))
            donors = [(n, slack) for n, slack in self._slack.items() if n != node]
            for donor, slack in donors:
                self._set(donor, self._allocations[donor] - slack * share)
        self._set(node, self._allocations[node] + amount)

    def assist(self, donor: str, recipient: str, amount: Fraction) -> None:
        if not self.is_member(donor) or not self.is_member(recipient):
            raise MembershipError("assist requires both nodes to be members")
        if donor == recipient:
            raise MembershipError("cannot assist oneself")
        if amount <= 0:
            raise ConfigurationError("assist amount must be > 0")
        if amount > self.allocation(donor):
            raise MembershipError(
                f"{donor} cannot donate {amount} from {self.allocation(donor)}"
            )
        self._set(donor, self._allocations[donor] - amount)
        self._set(recipient, self._allocations[recipient] + amount)


@dataclass
class SocialState:
    """Per-node bookkeeping the social layer carries between ticks."""

    calm_ticks: int = 0
    debts: dict[str, Fraction] = field(default_factory=dict)  # benefactor -> owed

    def record_assist_received(self, benefactor: str, amount: Fraction) -> None:
        self.debts[benefactor] = self.debts.get(benefactor, Fraction(0)) + amount


#: Utilization at or below which a cooperative node considers itself safe to donate
#: (at most half the contract allowance consumed, i.e. a 2x margin).
COOPERATIVE_DONOR_UTILIZATION = 0.5

#: Statuses that make a node a candidate for assistance.
NEEDY = (ContractStatus.AT_RISK, ContractStatus.VIOLATED)


class NeedyRanking:
    """One tick's needy nodes, ranked for cooperative donors.

    Built from ``(name, status, utilization)`` of every node in node order,
    it keeps the nodes whose status is in ``NEEDY``, each with its base
    score (its utilization, 1.0 when unknown), in ``groups``: one
    ``(score, names)`` per distinct score, high to low, each group's names
    in node order. No status or utilization moves within a tick's
    collective stage, so one ranking serves every donor of it.
    """

    __slots__ = ("groups", "scores")

    def __init__(self, nodes: Iterable[tuple[str, Optional[ContractStatus], Optional[float]]]):
        self.scores = {
            name: 1.0 if utilization is None else utilization
            for name, status, utilization in nodes
            if status in NEEDY
        }
        groups: dict[float, list[str]] = {}
        for name, score in self.scores.items():
            groups.setdefault(score, []).append(name)
        self.groups = sorted(groups.items(), key=itemgetter(0), reverse=True)


def decide_social_action(
    node: str,
    status: Optional[ContractStatus],
    behavior: SocialBehavior,
    pool: ResourcePool,
    needy: NeedyRanking,
    state: SocialState,
    utilization: Optional[float] = None,
    calm_window: int = 20,
    assist_quantum: Amount = Fraction(1, 4),
    reciprocation_weight: float = 2.0,
) -> Optional[SocialAction]:
    """Choose this tick's social action for one node, or None.

    ``state.calm_ticks`` must be maintained by the caller (incremented on
    Holding, reset otherwise); deterministic given its inputs. ``needy``
    ranks this tick's needy nodes; membership and allocations are read
    live from ``pool``, so actions applied earlier in the tick count.
    """
    member = pool.is_member(node)
    in_danger = status in NEEDY

    if behavior is SocialBehavior.NEUTRAL:
        if in_danger and not member:
            return SocialAction.join()
        if member and status is ContractStatus.HOLDING and state.calm_ticks >= calm_window:
            return SocialAction.leave()
        return None

    if behavior is SocialBehavior.INDIVIDUALISTIC:
        if not member or not in_danger:
            return None
        available = pool.free_capacity(node)
        if available <= 0:
            return None
        return SocialAction.grab(available)

    if behavior is SocialBehavior.COOPERATIVE:
        if not member:
            return None
        if utilization is None or utilization > COOPERATIVE_DONOR_UTILIZATION:
            return None
        if not needy.groups:
            return None
        if not isinstance(assist_quantum, Fraction):
            assist_quantum = Fraction(assist_quantum)
        quantum = min(assist_quantum, pool.allocation(node))
        if quantum <= 0:
            return None
        # Worst-off first; debts weigh extra; equally needy nodes are served
        # poorest-first; name breaks the remaining ties deterministically.
        # A needy member's score is its base score, times the reciprocation
        # weight if this node owes it: the best unowed score is that of the
        # first group with an eligible member, and only the owed are rescored.
        allocations, debts = pool.allocations, state.debts
        best, tied = None, []
        for score, names in needy.groups:
            tied = [
                name for name in names
                if name in allocations and name != node and not debts.get(name, 0) > 0
            ]
            if tied:
                best = score
                break
        for name, owed in debts.items():
            base = needy.scores.get(name)
            if base is None or not owed > 0 or name == node or name not in allocations:
                continue
            score = base * reciprocation_weight
            if best is None or score > best:
                best, tied = score, [name]
            elif score == best:
                tied.append(name)
        if not tied:
            return None
        # The same order as ranking by (score, -allocation, name), with the
        # allocations compared only among the top scores.
        if len(tied) > 1:
            poorest = min(map(allocations.__getitem__, tied))
            tied = [name for name in tied if allocations[name] == poorest]
        return SocialAction.assist(max(tied), quantum)

    raise ConfigurationError(f"unknown social behavior {behavior}")


def apply_social_action(
    pool: ResourcePool,
    actor: str,
    action: SocialAction,
    states: Optional[dict[str, SocialState]] = None,
) -> bool:
    """Apply one action atomically; return False (pool untouched) if infeasible."""
    problems = action.validate(actor)
    if problems:
        return False
    try:
        if action.kind is SocialActionKind.JOIN:
            pool.join(actor)
        elif action.kind is SocialActionKind.LEAVE:
            pool.leave(actor)
        elif action.kind is SocialActionKind.GRAB:
            pool.grab(actor, action.amount)
        elif action.kind is SocialActionKind.ASSIST:
            pool.assist(actor, action.target, action.amount)
            if states is not None and action.target in states:
                states[action.target].record_assist_received(actor, action.amount)
    except MembershipError:
        return False
    return True


def diversity_score(population: Sequence[tuple[str, str]]) -> float:
    """Normalized Shannon entropy of (behavior, social) design pairs.

    0 for a monoculture, 1 when the represented designs are uniformly
    occupied; the base is the number of distinct designs present, so the
    score compares across scenario sizes.
    """
    if not population:
        raise ConfigurationError("diversity of an empty population is undefined")
    counts: dict[tuple[str, str], int] = {}
    for pair in population:
        counts[pair] = counts.get(pair, 0) + 1
    k = len(counts)
    if k == 1:
        return 0.0
    n = len(population)
    entropy = -sum((c / n) * math.log(c / n) for c in counts.values())
    return entropy / math.log(k)
