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
  loss for future reciprocation.

All pool quantities are exact rationals so the conservation invariant
(allocations + reserve == total) holds bit-for-bit over any action
sequence, and rejected actions leave the pool untouched. The pool caches
its reserve and total slack as exact sums that each mutation adjusts by
the allocations it changes, so every view is O(1); ``conserved()`` re-sums
the allocations from scratch and checks the caches against that recompute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Optional, Sequence, Union

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
    total slack and set of members with slack exact.
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
        self._reserve = self.total
        self._slack_total = Fraction(0)
        self._slack_members: set[str] = set()  # members with allocation > floor

    # -- views ------------------------------------------------------------

    @property
    def reserve(self) -> Fraction:
        return self._reserve

    def is_member(self, node: str) -> bool:
        return node in self._allocations

    def allocation(self, node: str) -> Fraction:
        return self._allocations.get(node, Fraction(0))

    def slack(self, node: str) -> Fraction:
        return max(Fraction(0), self.allocation(node) - self.floor)

    def free_capacity(self, node: str) -> Fraction:
        """Largest allocation increment the node could acquire right now."""
        return self._reserve + self._slack_total - self.slack(node)

    def conserved(self) -> bool:
        """Re-sum the allocations from scratch: they and the reserve add up
        to the total, none is negative, and the cached reserve and slack
        agree with the recompute."""
        allocated = sum(self._allocations.values(), Fraction(0))
        slack = {n: a - self.floor for n, a in self._allocations.items() if a > self.floor}
        return (
            allocated + self._reserve == self.total
            and all(a >= 0 for a in self._allocations.values())
            and self._slack_total == sum(slack.values(), Fraction(0))
            and self._slack_members == slack.keys()
        )

    def snapshot(self) -> dict[str, Fraction]:
        return dict(self._allocations)

    # -- mutations --------------------------------------------------------

    def _set(self, node: str, value: Optional[Fraction]) -> None:
        """Set one allocation (None removes the member), adjusting the caches
        by its old and new values."""
        old = self._allocations.get(node)
        if old is not None:
            self._reserve += old
            if old > self.floor:
                self._slack_total -= old - self.floor
        self._slack_members.discard(node)
        if value is None:
            del self._allocations[node]
            return
        self._allocations[node] = value
        self._reserve -= value
        if value > self.floor:
            self._slack_total += value - self.floor
            self._slack_members.add(node)

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
            donors = [(n, self.slack(n)) for n in self._slack_members if n != node]
            total_slack = self._slack_total - self.slack(node)
            for donor, slack in donors:
                self._set(donor, self._allocations[donor] - remainder * slack / total_slack)
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
class NeighborView:
    """What one node knows about a peer when deciding socially."""

    name: str
    status: Optional[ContractStatus]
    utilization: Optional[float]  # contract allowance consumed, 1.0 = at bound


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


def decide_social_action(
    node: str,
    status: Optional[ContractStatus],
    behavior: SocialBehavior,
    pool: ResourcePool,
    neighbors: Sequence[NeighborView],
    state: SocialState,
    utilization: Optional[float] = None,
    calm_window: int = 20,
    assist_quantum: Amount = Fraction(1, 4),
    reciprocation_weight: float = 2.0,
) -> Optional[SocialAction]:
    """Choose this tick's social action for one node, or None.

    ``state.calm_ticks`` must be maintained by the caller (incremented on
    Holding, reset otherwise); deterministic given its inputs. Only the
    ``neighbors`` whose status is in ``NEEDY`` are ever read, so a caller
    may pass just those, in the same order.
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
        quantum = min(Fraction(assist_quantum), pool.allocation(node))
        if quantum <= 0:
            return None
        needy = [
            n
            for n in neighbors
            if n.name != node and n.status in NEEDY and pool.is_member(n.name)
        ]
        if not needy:
            return None

        def score(n: NeighborView) -> float:
            need = n.utilization if n.utilization is not None else 1.0
            if state.debts.get(n.name, 0) > 0:
                need *= reciprocation_weight
            return need

        # Worst-off first; debts weigh extra; equally needy nodes are served
        # poorest-first; name breaks the remaining ties deterministically.
        target = max(
            needy, key=lambda n: (score(n), -pool.allocation(n.name), n.name)
        )
        return SocialAction.assist(target.name, quantum)

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
