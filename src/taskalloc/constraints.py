"""Hereditary feasibility constraints on allocation policies.

The allocation problem is constrained by a hereditary independence system:
the empty policy is feasible and removing pairs never breaks feasibility.
The concrete systems here are the one-target-per-agent rule, the
one-agent-per-target rule, the per-agent cost budget, and their conjunction,
whose worst-case basis-size ratio is bounded by q = ceil(1 + max cost / min
cost).  ``MatchingConstraint`` is that conjunction of all three, checked in
one pass; the solvers and the bound suite are run under it.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .core import ContractViolation, GroundElement, Policy, SizeLimitExceeded, check_bounds

Q_VERIFY_CAP = 10  # largest ground set verify_q_property enumerates (2^n subsets)


class IndependenceSystem(abc.ABC):
    """Predicate over policies: hereditary and containing the empty set."""

    n_agents: int
    n_targets: int

    @abc.abstractmethod
    def is_independent(self, policy: Policy) -> bool:
        ...


class PartitionConstraint(IndependenceSystem):
    """Each agent holds at most one target."""

    def __init__(self, n_agents: int, n_targets: int):
        self.n_agents = n_agents
        self.n_targets = n_targets

    def is_independent(self, policy: Policy) -> bool:
        check_bounds(policy, self.n_agents, self.n_targets)
        agents = [el.agent for el in policy]
        return len(agents) == len(set(agents))


class ConflictFreeConstraint(IndependenceSystem):
    """Each target is held by at most one agent (conflict-free allocation)."""

    def __init__(self, n_agents: int, n_targets: int):
        self.n_agents = n_agents
        self.n_targets = n_targets

    def is_independent(self, policy: Policy) -> bool:
        check_bounds(policy, self.n_agents, self.n_targets)
        targets = [el.target for el in policy]
        return len(targets) == len(set(targets))


class BudgetConstraint(IndependenceSystem):
    """Per-agent sum of pair costs must stay within the agent's budget.  A
    pair of infinite cost (one the world cannot serve) is never within
    budget, not even an infinite one."""

    def __init__(self, budgets: Sequence[float], costs: Sequence[Sequence[float]]):
        self.budgets = [float(b) for b in budgets]
        self.costs = [[float(c) for c in row] for row in costs]
        self.n_agents = len(self.budgets)
        self.n_targets = len(self.costs[0]) if self.costs else 0
        if len(self.costs) != self.n_agents:
            raise ContractViolation("cost table rows must match budget count")
        if any(b < 0 for b in self.budgets):
            raise ContractViolation("budgets must be nonnegative")
        if any(c <= 0 for row in self.costs for c in row):
            raise ContractViolation("pair costs must be strictly positive")

    def is_independent(self, policy: Policy) -> bool:
        check_bounds(policy, self.n_agents, self.n_targets)
        spent = [0.0] * self.n_agents
        for el in policy:
            spent[el.agent - 1] += self.costs[el.agent - 1][el.target - 1]
        return all(s <= b and s < math.inf for s, b in zip(spent, self.budgets))


class CompositeConstraint(IndependenceSystem):
    """Conjunction of independence systems over the same ground set.

    Acceptance is order-independent; the evaluation order of the parts is
    irrelevant to the result.
    """

    def __init__(self, parts: Iterable[IndependenceSystem]):
        self.parts = list(parts)
        if not self.parts:
            raise ContractViolation("composite needs at least one constraint")
        self.n_agents = self.parts[0].n_agents
        self.n_targets = self.parts[0].n_targets
        for p in self.parts:
            if (p.n_agents, p.n_targets) != (self.n_agents, self.n_targets):
                raise ContractViolation("constraint ground dimensions disagree")

    def is_independent(self, policy: Policy) -> bool:
        return self._holds(policy)

    def _holds(self, policy: Policy) -> bool:
        """The conjunction's verdict.  A subclass replaces this, not
        ``is_independent``, with an equivalent check, so every check still
        runs through ``CompositeConstraint.is_independent``, the method
        perfbench's tracer wraps."""
        return all(p.is_independent(policy) for p in self.parts)


class MatchingConstraint(CompositeConstraint):
    """The allocation system: one target per agent, one agent per target,
    and each agent's pair costs within its budget.

    Built from the same three parts (partition, conflict-free, budget) and
    giving the same verdicts, but checked in one pass over the policy: with
    one pair per agent, the agent's budget sum is that pair's cost, so a
    pair is allowed when its cost is finite and at most the budget, the
    rule of ``solvers.allowed_pairs``.  A NaN budget is refused, since
    under it the budget part rejects even the empty policy.
    """

    def __init__(self, costs: Sequence[Sequence[float]], budgets: Sequence[float]):
        budget = BudgetConstraint(budgets, costs)
        if any(math.isnan(b) for b in budget.budgets):
            raise ContractViolation("budgets must not be NaN")
        n, m = budget.n_agents, budget.n_targets
        super().__init__([PartitionConstraint(n, m), ConflictFreeConstraint(n, m), budget])
        self.costs = budget.costs
        self.budgets = budget.budgets

    def _holds(self, policy: Policy) -> bool:
        check_bounds(policy, self.n_agents, self.n_targets)
        agents: set = set()
        targets: set = set()
        for agent, target in policy:
            if agent in agents or target in targets:
                return False
            cost = self.costs[agent - 1][target - 1]
            if not (cost <= self.budgets[agent - 1] and cost < math.inf):
                return False
            agents.add(agent)
            targets.add(target)
        return True


@dataclass(frozen=True)
class QEstimate:
    """Exchange-ratio parameter of the budget + partition system."""

    q: int
    c_max: float
    c_min: float
    argmax: Tuple[int, int]
    argmin: Tuple[int, int]


def estimate_q(costs: Sequence[Sequence[float]]) -> QEstimate:
    """q = ceil(1 + max cost / min cost) over the finite costs, with the
    first pairs (in row-major order) that attain the extremes.  A pair of
    infinite cost is in no independent set, so it is left out; a table with
    no finite cost gives q = 1, with NaN extremes and (0, 0) witnesses."""
    pairs = [(c, (i, j)) for i, row in enumerate(costs, start=1)
             for j, c in enumerate(row, start=1)]
    if not pairs:
        raise ContractViolation("cost table is empty")
    for c, (i, j) in pairs:
        if c <= 0:
            raise ContractViolation(f"cost for pair ({i}, {j}) must be positive")
    finite = [pair for pair in pairs if pair[0] < math.inf]
    if not finite:
        return QEstimate(q=1, c_max=math.nan, c_min=math.nan, argmax=(0, 0), argmin=(0, 0))
    c_max, argmax = max(finite, key=lambda pair: pair[0])
    c_min, argmin = min(finite, key=lambda pair: pair[0])
    q = math.ceil(1.0 + c_max / c_min)
    return QEstimate(q=q, c_max=c_max, c_min=c_min, argmax=argmax, argmin=argmin)


@dataclass(frozen=True)
class QVerification:
    passes: bool
    worst_ratio: float
    witness: Optional[Tuple[Policy, Policy, Policy]]


def _maximal_independent_subsets(system: IndependenceSystem,
                                 ground: Sequence[GroundElement]) -> list[Policy]:
    """All maximal independent subsets of the given ground subset of distinct
    elements; added in ground order, each subset is reached once."""
    bases: list[Policy] = []

    def extend(current: Policy, candidates: Sequence[GroundElement]) -> None:
        grew = False
        for k, el in enumerate(candidates):
            nxt = current | {el}
            if system.is_independent(nxt):
                grew = True
                extend(nxt, candidates[k + 1:])
        if not grew:
            # Maximality must be checked against the whole ground subset, not
            # just the remaining candidates of this branch.
            if all(
                el in current or not system.is_independent(current | {el})
                for el in ground
            ):
                bases.append(current)

    extend(frozenset(), list(ground))
    return bases


def verify_q_property(system: IndependenceSystem,
                      ground: Iterable[GroundElement],
                      q_claim: float) -> QVerification:
    """Exhaustively check the basis-size ratio bound on a small ground set.

    For every subset of the ground set, enumerates its maximal independent
    subsets and checks that no two differ in size by more than a factor of
    ``q_claim``.  Returns the worst witnessing (subset, largest, smallest).
    A subset with no maximal independent subset reachable from the empty
    set, which only a system that is not hereditary has, raises
    ContractViolation naming it: the claim cannot be checked there.
    """
    elements = sorted(set(ground))
    if len(elements) > Q_VERIFY_CAP:
        raise SizeLimitExceeded(
            f"ground set of {len(elements)} elements exceeds enumeration cap {Q_VERIFY_CAP}"
        )
    worst = 0.0
    witness = None
    n = len(elements)
    for mask in range(1, 1 << n):
        subset = [elements[k] for k in range(n) if mask >> k & 1]
        bases = _maximal_independent_subsets(system, subset)
        if not bases:
            raise ContractViolation(
                f"subset {subset} has no maximal independent subset reachable "
                "from the empty set: the system is not hereditary")
        sizes = [(len(b), b) for b in bases]
        hi = max(sizes, key=lambda s: s[0])
        lo = min(sizes, key=lambda s: s[0])
        if lo[0] == 0:
            ratio = math.inf if hi[0] > 0 else 1.0
        else:
            ratio = hi[0] / lo[0]
        if ratio > worst:
            worst = ratio
            witness = (frozenset(subset), hi[1], lo[1])
    if witness is None:
        worst = 1.0
    return QVerification(passes=worst <= q_claim, worst_ratio=worst, witness=witness)
