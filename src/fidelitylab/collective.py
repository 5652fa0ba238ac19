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

Every pool quantity is an ``int`` numerator over one pool-wide denominator
D, so conservation (allocations + reserve == total) holds bit-for-bit over
any action sequence and a rejected action leaves the pool untouched. D is
the lcm of the denominators of every amount the pool can see, so only a
pro-rata grab whose share is below 1 refines it, multiplying every
numerator by one factor. The reserve, each slack, the slack total and the
free capacity are cached numerators that each mutation adjusts;
``conserved()`` re-sums the allocations in plain ints and checks every
cache. Each allocation and the reserve also keep their float ``n / D``:
int true division is correctly rounded, so that is ``float(Fraction(n,
D))``, and a refinement, which moves no value, leaves it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Optional, Sequence, Union

from .errors import ConfigurationError, MembershipError
from .identity import ContractStatus

Amount = Union[int, float, Fraction]


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


class ResourcePool:
    """Finite per-tick correction budget shared by member nodes.

    Every quantity is an ``int`` numerator over ``denominator`` (D), which
    also holds each of ``amounts``; ``units`` maps members to numerators and
    the ``Fraction`` views convert at the boundary. Mutations are atomic: an
    infeasible action raises with the pool bit-identical.
    """

    def __init__(
        self,
        total: Amount,
        floor: Amount = 0,
        join_allocation: Amount = 0,
        amounts: Iterable[Amount] = (),
    ):
        self.total = Fraction(total)
        self.floor = Fraction(floor)
        self.join_allocation = Fraction(join_allocation)
        if self.total < 0 or self.floor < 0 or self.join_allocation < 0:
            raise ConfigurationError("pool quantities must be >= 0")
        scalars = (self.total, self.floor, self.join_allocation)
        self.denominator = math.lcm(*(Fraction(q).denominator for q in (*scalars, *amounts)))
        self._total, self._floor, self._join = (
            q.numerator * (self.denominator // q.denominator) for q in scalars
        )
        self._allocations: dict[str, int] = {}
        self._float_allocations: dict[str, float] = {}
        self._reserve = self._total
        self._float_reserve = float(self.total)
        self._slack: dict[str, int] = {}  # allocation - floor, where positive
        self._slack_total = 0
        self._capacity = self._total  # reserve + slack total

    # -- views ------------------------------------------------------------
    # Each read wraps the live dict: a stored proxy would not pickle.

    @property
    def units(self) -> MappingProxyType:
        """The allocations' numerators over D, read-only."""
        return MappingProxyType(self._allocations)

    @property
    def float_allocations(self) -> MappingProxyType:
        """Each allocation's float ``n / D``, read-only."""
        return MappingProxyType(self._float_allocations)

    @property
    def allocations(self) -> MappingProxyType:
        """A read-only snapshot of the exact allocations."""
        return MappingProxyType({n: Fraction(v, self.denominator)
                                 for n, v in self._allocations.items()})

    @property
    def reserve(self) -> Fraction:
        return Fraction(self._reserve, self.denominator)

    @property
    def float_reserve(self) -> float:
        return self._float_reserve

    def is_member(self, node: str) -> bool:
        return node in self._allocations

    def allocation(self, node: str) -> Fraction:
        return Fraction(self._allocations.get(node, 0), self.denominator)

    def slack(self, node: str) -> Fraction:
        return Fraction(self._slack.get(node, 0), self.denominator)

    def free_units(self, node: str) -> int:
        """``free_capacity`` as a numerator over D."""
        return self._capacity - self._slack.get(node, 0)

    def free_capacity(self, node: str) -> Fraction:
        """Largest allocation increment the node could acquire right now."""
        return Fraction(self.free_units(node), self.denominator)

    def conserved(self) -> bool:
        """Re-sum the allocations from scratch: they and the reserve add up
        to the total, neither they nor the reserve is negative, and the
        cached reserve, each member's slack, the slack total and the free
        capacity agree with the recompute."""
        values, floor = self._allocations.values(), self._floor
        slack = {n: v - floor for n, v in self._allocations.items() if v > floor}
        return (
            min(values, default=0) >= 0
            and sum(values) + self._reserve == self._total
            and self._reserve >= 0
            and slack == self._slack
            and sum(slack.values()) == self._slack_total
            and self._reserve + self._slack_total == self._capacity
        )

    # -- mutations --------------------------------------------------------

    def _units(self, amount: Amount, verb: str) -> tuple[int, int]:
        """``(n, k)``: the positive amount is n / (k * D), for the least k."""
        numerator, denominator = amount.as_integer_ratio()
        if numerator <= 0:
            raise ConfigurationError(f"{verb} amount must be > 0")
        k = denominator // math.gcd(self.denominator, denominator)
        return numerator * (self.denominator * k // denominator), k

    def _refine(self, k: int) -> None:
        """Multiply D and every numerator by ``k``; no value moves."""
        if k > 1:
            for name in ("denominator", "_total", "_floor", "_join", "_reserve",
                         "_slack_total", "_capacity"):
                setattr(self, name, getattr(self, name) * k)
            for values in (self._allocations, self._slack):
                values.update({node: q * k for node, q in values.items()})

    def _set(self, node: str, value: Optional[int]) -> None:
        """Set one allocation's numerator (None removes the member), adjusting
        the caches by its old and new values and rewriting its float shadows."""
        self._reserve += self._allocations.get(node, 0)
        self._slack_total -= self._slack.pop(node, 0)
        if value is None:
            del self._allocations[node]
            del self._float_allocations[node]
        else:
            self._allocations[node] = value
            self._float_allocations[node] = value / self.denominator
            self._reserve -= value
            if value > self._floor:
                slack = self._slack[node] = value - self._floor
                self._slack_total += slack
        self._float_reserve = self._reserve / self.denominator
        self._capacity = self._reserve + self._slack_total

    def join(self, node: str) -> None:
        if self.is_member(node):
            raise MembershipError(f"{node} is already a member")
        self._set(node, min(self._join, self._reserve))

    def leave(self, node: str) -> None:
        if not self.is_member(node):
            raise MembershipError(f"{node} is not a member")
        self._set(node, None)

    def grab(self, node: str, amount: Amount) -> None:
        """Take from the reserve first, then pro rata from others' slack."""
        if not self.is_member(node):
            raise MembershipError(f"{node} must be a member to grab")
        units, k = self._units(amount, "grab")
        if units > self.free_units(node) * k:
            raise MembershipError(f"grab of {Fraction(amount)} exceeds available "
                                  f"capacity {self.free_capacity(node)}")
        self._refine(k)
        remainder = units - min(units, self._reserve)
        if remainder > 0:
            # Every donor keeps the same share of its slack, kept / others,
            # and releases the rest to the reserve. Below a share of 1, D is
            # first refined by the least k that keeps every kept slack whole.
            own = self._slack.get(node, 0)
            donors = [n for n in self._slack if n != node]
            others = self._slack_total - own
            kept = others - remainder
            k = others // math.gcd(others, kept * math.gcd(*map(self._slack.get, donors)))
            self._refine(k)
            floor, denominator = self._floor, self.denominator
            for donor in donors:
                slack = self._slack[donor] * kept // others
                value = self._allocations[donor] = floor + slack
                self._float_allocations[donor] = value / denominator
                if slack:
                    self._slack[donor] = slack
                else:
                    del self._slack[donor]
            self._reserve += remainder * k
            self._slack_total = (own + kept) * k
            units *= k
        self._set(node, self._allocations[node] + units)

    def assist(self, donor: str, recipient: str, amount: Amount) -> None:
        if not self.is_member(donor) or not self.is_member(recipient):
            raise MembershipError("assist requires both nodes to be members")
        if donor == recipient:
            raise MembershipError("cannot assist oneself")
        units, k = self._units(amount, "assist")
        if units > self._allocations[donor] * k:
            raise MembershipError(
                f"{donor} cannot donate {Fraction(amount)} from {self.allocation(donor)}"
            )
        self._refine(k)
        self._set(donor, self._allocations[donor] - units)
        self._set(recipient, self._allocations[recipient] + units)


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
        available = pool.free_units(node)
        if available <= 0:
            return None
        return SocialAction(SocialActionKind.GRAB, Fraction(available, pool.denominator))

    if behavior is SocialBehavior.COOPERATIVE:
        if not member:
            return None
        if utilization is None or utilization > COOPERATIVE_DONOR_UTILIZATION:
            return None
        if not needy.groups:
            return None
        # The quantum, capped by the donor's allocation, is compared in ints.
        own = pool.units[node]
        numerator, denominator = assist_quantum.as_integer_ratio()
        if numerator <= 0 or own <= 0:
            return None
        # Worst-off first; debts weigh extra; equally needy nodes are served
        # poorest-first; name breaks the remaining ties deterministically.
        # A needy member's score is its base score, times the reciprocation
        # weight if this node owes it: the best unowed score is that of the
        # first group with an eligible member, and only the owed are rescored.
        allocations, debts = pool.units, state.debts
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
        if numerator * pool.denominator > own * denominator:
            assist_quantum = Fraction(own, pool.denominator)
        return SocialAction.assist(max(tied), assist_quantum)

    raise ConfigurationError(f"unknown social behavior {behavior}")


def apply_social_action(
    pool: ResourcePool,
    actor: str,
    action: SocialAction,
    states: Optional[dict[str, SocialState]] = None,
) -> bool:
    """Apply one action atomically; return False (pool untouched) if infeasible
    (the pool rejects an amount that is not positive and a self-assist)."""
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
    except (MembershipError, ConfigurationError):
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
