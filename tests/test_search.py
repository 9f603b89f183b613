"""The pruned exact search and the greedy baseline against the full loops
they replace: same policy, same utility bits."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.constraints import (
    BudgetConstraint,
    CompositeConstraint,
    ConflictFreeConstraint,
    IndependenceSystem,
    PartitionConstraint,
)
from taskalloc.core import GroundElement, Policy, TableOracle, marginal_gain
from taskalloc.solvers import exact_oracle, sequential_greedy


def product_exact(oracle, constraints):
    """Every agent-to-target-or-none mapping in lexicographic order, each
    checked for independence; a strictly better utility replaces the
    incumbent."""
    n, m = oracle.n_agents, oracle.n_targets
    best_policy: Policy = frozenset()
    best_utility = 0.0
    for assignment in product(range(m + 1), repeat=n):
        policy = frozenset(
            GroundElement(i, j) for i, j in enumerate(assignment, start=1) if j != 0
        )
        if constraints.is_independent(policy):
            u = oracle.evaluate(policy)
            if u > best_utility:
                best_policy, best_utility = policy, u
    return best_policy, best_utility


def full_scan_greedy(oracle, constraints):
    """The greedy loop that rescans every pair of the ground set each step."""
    candidates = oracle.ground_set()
    policy: Policy = frozenset()
    while True:
        best_el, best_gain = None, 0.0
        for el in candidates:
            if el in policy:
                continue
            if not constraints.is_independent(policy | {el}):
                continue
            g = marginal_gain(oracle, policy, el)
            if g > best_gain:
                best_el, best_gain = el, g
        if best_el is None:
            break
        policy = policy | {best_el}
    return policy, oracle.evaluate(policy)


class DownClosed(IndependenceSystem):
    """The policies contained in one of a few given policies: a random
    hereditary system with no structure of its own."""

    def __init__(self, n_agents, n_targets, maximal):
        self.n_agents, self.n_targets = n_agents, n_targets
        self.maximal = [frozenset(policy) for policy in maximal]

    def is_independent(self, policy):
        return any(policy <= top for top in self.maximal)


class Counting(IndependenceSystem):
    """Another system, counting the independence checks made on it."""

    def __init__(self, inner):
        self.inner = inner
        self.n_agents, self.n_targets = inner.n_agents, inner.n_targets
        self.calls = 0

    def is_independent(self, policy):
        self.calls += 1
        return self.inner.is_independent(policy)


KINDS = ("partition", "conflict-free", "budget", "composite", "down-closed")


@st.composite
def instances(draw):
    """A random oracle on at most 4 x 4 pairs, under one of the constraint
    kinds.  Values and probabilities are often 0 or repeat, so that distinct
    policies tie and the tie-breaks are tested."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    values = draw(st.lists(st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.0, 3.0)),
                           min_size=m, max_size=m))
    probs = draw(st.lists(st.lists(unit, min_size=m, max_size=m), min_size=n, max_size=n))
    oracle = TableOracle(values, probs)
    costs = draw(st.lists(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    budgets = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    kind = draw(st.sampled_from(KINDS))
    if kind == "partition":
        constraints = PartitionConstraint(n, m)
    elif kind == "conflict-free":
        constraints = ConflictFreeConstraint(n, m)
    elif kind == "budget":
        constraints = BudgetConstraint(budgets, costs)
    elif kind == "composite":
        constraints = CompositeConstraint([ConflictFreeConstraint(n, m),
                                           BudgetConstraint(budgets, costs)])
    else:
        ground = st.sampled_from(oracle.ground_set())
        maximal = draw(st.lists(st.frozensets(ground, max_size=n * m), min_size=1, max_size=4))
        constraints = DownClosed(n, m, maximal)
    return oracle, constraints


@settings(max_examples=400, deadline=None)
@given(instances())
def test_exact_search_matches_full_enumeration(instance):
    oracle, constraints = instance
    policy, utility = product_exact(oracle, constraints)
    res = exact_oracle(oracle, constraints)
    assert res.policy == policy
    assert res.utility.hex() == utility.hex()


@settings(max_examples=200, deadline=None)
@given(instances())
def test_greedy_matches_full_scan(instance):
    oracle, constraints = instance
    policy, utility = full_scan_greedy(oracle, constraints)
    res = sequential_greedy(oracle, constraints)
    assert res.policy == policy
    assert res.utility.hex() == utility.hex()


def test_dependent_pairs_prune_their_subtrees():
    """No pair fits any budget: each of the N x M single pairs is checked
    once on the all-none prefix and nothing below it, not (M + 1) ** N
    mappings."""
    n, m = 4, 3
    oracle = TableOracle([1.0] * m, [[0.5] * m] * n)
    counting = Counting(BudgetConstraint([0.5] * n, [[1.0] * m] * n))
    res = exact_oracle(oracle, counting)
    assert counting.calls == n * m
    assert (res.policy, res.utility) == (frozenset(), 0.0)
