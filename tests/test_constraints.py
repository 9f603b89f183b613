"""Unit tests for independence systems and the q-parameter estimate."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import constraints, solvers
from taskalloc.constraints import (
    Q_VERIFY_CAP,
    BudgetConstraint,
    CompositeConstraint,
    ConflictFreeConstraint,
    IndependenceSystem,
    MatchingConstraint,
    PartitionConstraint,
    estimate_q,
    verify_q_property,
)
from taskalloc.core import ContractViolation, GroundElement, SizeLimitExceeded, make_policy
from taskalloc.harness import random_bound_instance
from taskalloc.solvers import allowed_pairs, exact_oracle


class TestPartitionConstraint:
    def test_accepts_one_target_per_agent(self):
        c = PartitionConstraint(2, 3)
        assert c.is_independent(make_policy([(1, 2), (2, 2)]))

    def test_rejects_double_assignment(self):
        c = PartitionConstraint(2, 3)
        assert not c.is_independent(make_policy([(1, 1), (1, 2)]))

    def test_hereditary(self):
        c = PartitionConstraint(3, 3)
        full = make_policy([(1, 1), (2, 2), (3, 3)])
        assert c.is_independent(full)
        for el in full:
            assert c.is_independent(full - {el})

    def test_empty_is_independent(self):
        assert PartitionConstraint(2, 2).is_independent(frozenset())


class TestConflictFreeConstraint:
    def test_rejects_shared_target(self):
        c = ConflictFreeConstraint(3, 2)
        assert not c.is_independent(make_policy([(1, 1), (2, 1)]))

    def test_accepts_distinct_targets(self):
        c = ConflictFreeConstraint(3, 3)
        assert c.is_independent(make_policy([(1, 1), (2, 3)]))


class TestBudgetConstraint:
    def test_within_budget(self):
        c = BudgetConstraint([1.0, 1.0], [[0.6, 0.6], [0.6, 0.6]])
        assert c.is_independent(make_policy([(1, 1)]))

    def test_over_budget(self):
        c = BudgetConstraint([1.0], [[0.6, 0.6]])
        assert not c.is_independent(make_policy([(1, 1), (1, 2)]))

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(ContractViolation):
            BudgetConstraint([1.0], [[0.0]])

    def test_infinite_cost_never_within_budget(self):
        c = BudgetConstraint([math.inf, math.inf], [[math.inf, 1.0], [1.0, 1.0]])
        assert not c.is_independent(make_policy([(1, 1)]))
        assert not c.is_independent(make_policy([(1, 1), (2, 2)]))
        assert c.is_independent(make_policy([(1, 2), (2, 1)]))

    def test_rejects_negative_budget(self):
        with pytest.raises(ContractViolation):
            BudgetConstraint([-0.5], [[1.0]])

    def test_rejects_cost_rows_not_matching_budgets(self):
        with pytest.raises(ContractViolation, match="budget count"):
            BudgetConstraint([1.0, 1.0], [[0.5]])

    def test_rejects_a_ragged_cost_table(self):
        with pytest.raises(ContractViolation, match="same length"):
            BudgetConstraint([1.0, 1.0], [[0.5, 0.5], [0.5]])

    def test_rejects_a_nan_budget(self):
        # Under it even the empty policy would be rejected.
        with pytest.raises(ContractViolation, match="NaN"):
            BudgetConstraint([math.nan], [[1.0]])


class TestCompositeConstraint:
    def test_conjunction(self):
        c = CompositeConstraint([
            PartitionConstraint(2, 2),
            ConflictFreeConstraint(2, 2),
        ])
        assert c.is_independent(make_policy([(1, 1), (2, 2)]))
        assert not c.is_independent(make_policy([(1, 1), (2, 1)]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            CompositeConstraint([
                PartitionConstraint(2, 2), PartitionConstraint(3, 2),
            ])

    def test_empty_parts_rejected(self):
        with pytest.raises(ContractViolation):
            CompositeConstraint([])


def three_parts(costs, budgets):
    """The allocation system as the conjunction of its three parts."""
    n, m = len(costs), len(costs[0])
    return CompositeConstraint([
        PartitionConstraint(n, m),
        ConflictFreeConstraint(n, m),
        BudgetConstraint(budgets, costs),
    ])


def verdict(system, policy):
    try:
        return system.is_independent(policy)
    except ContractViolation:
        return "raises"


@st.composite
def systems(draw):
    """Costs and budgets of N, M <= 5 agents and targets: zero, infinite
    and finite budgets; infinite costs, costs equal to their agent's budget
    and finite ones."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    budgets = [draw(st.sampled_from([0.0, math.inf, 0.5, 1.0, 1.5])) for _ in range(n)]
    costs = []
    for b in budgets:
        row = []
        for _ in range(m):
            kind = draw(st.sampled_from(["inf", "budget", "finite"]))
            if kind == "inf":
                row.append(math.inf)
            elif kind == "budget" and b > 0:
                row.append(b)
            else:
                row.append(draw(st.sampled_from([0.25, 0.5, 1.0, 1.25, 2.0])))
        costs.append(row)
    return costs, budgets


@st.composite
def policies(draw, n, m):
    """Sets of pairs whose ids run one past the ground set on both sides,
    so repeated agents and targets and out-of-range ids all occur.  Three
    draws in four keep only the in-range pairs, so most policies get a
    verdict rather than raise."""
    pairs = draw(st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, m + 1)),
                          max_size=6))
    if draw(st.integers(0, 3)):
        pairs = [(i, j) for i, j in pairs if 1 <= i <= n and 1 <= j <= m]
    return make_policy(pairs)


class TestMatchingConstraint:
    def test_keeps_the_three_parts(self):
        c = MatchingConstraint([[1.0, 2.0, 0.5], [1.0, 1.0, 1.0]], [1.0, 2.0])
        assert isinstance(c, CompositeConstraint)
        assert [type(p) for p in c.parts] == [
            PartitionConstraint, ConflictFreeConstraint, BudgetConstraint]
        assert (c.n_agents, c.n_targets) == (2, 3)

    def test_rejects_a_repeated_agent(self):
        c = MatchingConstraint([[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0])
        assert not c.is_independent(make_policy([(1, 1), (1, 2)]))

    def test_rejects_a_repeated_target(self):
        c = MatchingConstraint([[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0])
        assert not c.is_independent(make_policy([(1, 1), (2, 1)]))
        assert c.is_independent(make_policy([(1, 1), (2, 2)]))

    def test_infinite_cost_never_within_an_infinite_budget(self):
        c = MatchingConstraint([[math.inf, 1.0], [1.0, 1.0]], [math.inf, math.inf])
        assert not c.is_independent(make_policy([(1, 1)]))
        assert c.is_independent(make_policy([(1, 2), (2, 1)]))

    def test_cost_equal_to_budget_is_within_it(self):
        c = MatchingConstraint([[1.0, 1.5]], [1.0])
        assert c.is_independent(make_policy([(1, 1)]))
        assert not c.is_independent(make_policy([(1, 2)]))

    def test_out_of_range_raises_before_any_verdict(self):
        c = MatchingConstraint([[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0])
        with pytest.raises(ContractViolation, match="outside ground set"):
            c.is_independent(make_policy([(1, 1), (1, 2), (2, 3)]))
        with pytest.raises(ContractViolation, match="outside ground set"):
            c.is_independent(make_policy([(0, 1)]))

    def test_rejects_a_nan_budget(self):
        # Under it the budget part would reject even the empty policy.
        with pytest.raises(ContractViolation, match="NaN"):
            MatchingConstraint([[1.0]], [math.nan])

    def test_rejects_a_ragged_cost_table(self):
        with pytest.raises(ContractViolation, match="same length"):
            MatchingConstraint([[0.5, 0.5], [0.5]], [1.0, 1.0])

    def test_driver_and_system_share_the_allowed_pair_rule(self):
        assert solvers.allowed_pairs is constraints.allowed_pairs

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_verdict_as_the_three_parts(self, data):
        costs, budgets = data.draw(systems())
        policy = data.draw(policies(len(costs), len(costs[0])))
        assert (verdict(MatchingConstraint(costs, budgets), policy)
                == verdict(three_parts(costs, budgets), policy)), (costs, budgets, policy)

    @settings(max_examples=100, deadline=None)
    @given(systems())
    def test_single_pairs_follow_the_allowed_pair_rule(self, system):
        costs, budgets = system
        c = MatchingConstraint(costs, budgets)
        allowed = allowed_pairs(np.array(costs), np.array(budgets))
        for (i, j), ok in np.ndenumerate(allowed):
            assert c.is_independent(make_policy([(i + 1, j + 1)])) == ok, (costs, budgets, i, j)

    def test_exact_optimum_same_under_the_three_parts(self):
        for seed in range(200):
            inst = random_bound_instance(seed)
            assert isinstance(inst.constraints, MatchingConstraint)
            got = exact_oracle(inst.oracle, inst.constraints)
            ref = exact_oracle(inst.oracle, three_parts(inst.costs, inst.budgets))
            assert got.policy == ref.policy, f"seed {seed}"
            assert repr(got.utility) == repr(ref.utility), f"seed {seed}"


HEREDITY_SYSTEMS = {
    "partition": lambda costs, budgets: PartitionConstraint(len(costs), len(costs[0])),
    "conflict-free": lambda costs, budgets: ConflictFreeConstraint(len(costs), len(costs[0])),
    "budget": lambda costs, budgets: BudgetConstraint(budgets, costs),
    "three parts": three_parts,
    "matching": MatchingConstraint,
}


@pytest.mark.parametrize("name", HEREDITY_SYSTEMS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_system_is_hereditary_or_refused(name, data):
    """Each system either refuses its costs and budgets, or holds the empty
    policy and every subset of each independent policy.  Budgets include 0,
    inf and NaN, and costs inf, on every policy of up to 3 x 3 pairs."""
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    budgets = data.draw(st.lists(st.sampled_from([0.0, math.inf, math.nan, 0.5, 1.0, 1.5]),
                                 min_size=n, max_size=n))
    costs = data.draw(st.lists(st.lists(st.sampled_from([math.inf, 0.25, 0.5, 1.0, 2.0]),
                                        min_size=m, max_size=m), min_size=n, max_size=n))
    try:
        system = HEREDITY_SYSTEMS[name](costs, budgets)
    except ContractViolation:
        return
    ground = [GroundElement(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    independent = {frozenset(s): system.is_independent(frozenset(s))
                   for k in range(len(ground) + 1) for s in combinations(ground, k)}
    assert independent[frozenset()], (costs, budgets)
    for policy, ok in independent.items():
        if ok:
            for el in policy:
                assert independent[policy - {el}], (costs, budgets, policy, el)


class TestEstimateQ:
    def test_uniform_costs(self):
        assert estimate_q([[1.0, 1.0], [1.0, 1.0]]).q == 2

    def test_ratio_and_witnesses(self):
        est = estimate_q([[0.5, 2.0], [1.0, 1.5]])
        assert est.q == math.ceil(1.0 + 2.0 / 0.5)
        assert est.argmax == (1, 2) and est.argmin == (1, 1)

    def test_rejects_zero_cost(self):
        with pytest.raises(ContractViolation):
            estimate_q([[1.0, 0.0]])

    def test_rejects_empty_table(self):
        with pytest.raises(ContractViolation):
            estimate_q([])

    def test_infinite_costs_left_out(self):
        est = estimate_q([[math.inf, 2.0], [0.5, math.inf]])
        assert est.q == math.ceil(1.0 + 2.0 / 0.5)
        assert est.argmax == (1, 2) and est.argmin == (2, 1)

    def test_no_finite_cost_gives_q_one(self):
        assert estimate_q([[math.inf, math.inf]]).q == 1


class TestVerifyQProperty:
    def test_partition_alone_is_matroid(self):
        system = PartitionConstraint(2, 3)
        ground = [GroundElement(i, j) for i in (1, 2) for j in (1, 2, 3)]
        result = verify_q_property(system, ground, q_claim=1.0)
        assert result.passes and result.worst_ratio == 1.0

    def test_budget_system_respects_q(self):
        costs = [[0.5, 1.4], [0.9, 1.2]]
        budgets = [1.5, 1.5]
        system = CompositeConstraint([
            PartitionConstraint(2, 2),
            ConflictFreeConstraint(2, 2),
            BudgetConstraint(budgets, costs),
        ])
        ground = [GroundElement(i, j) for i in (1, 2) for j in (1, 2)]
        result = verify_q_property(system, ground, q_claim=estimate_q(costs).q)
        assert result.passes

    def test_failing_claim_reports_witness(self):
        # Budget 1.0 admits one expensive or two cheap pairs for agent 1,
        # giving a basis-size ratio of 2 on the right subset.
        costs = [[0.5, 0.5, 1.0]]
        system = BudgetConstraint([1.0], costs)
        ground = [GroundElement(1, j) for j in (1, 2, 3)]
        result = verify_q_property(system, ground, q_claim=1.0)
        assert not result.passes
        assert result.worst_ratio == 2.0
        assert result.witness is not None

    def test_nothing_affordable_has_ratio_one(self):
        # Each pair alone is over budget, so every subset's one basis is empty.
        system = BudgetConstraint([1.0], [[2.0, 3.0]])
        ground = [GroundElement(1, j) for j in (1, 2)]
        result = verify_q_property(system, ground, q_claim=1.0)
        assert result.passes and result.worst_ratio == 1.0
        assert result.witness[1] == result.witness[2] == frozenset()

    def test_subset_without_a_basis_is_refused(self):
        # Not hereditary: {a, b} is independent but {a} is not, so the
        # search's one leaf {b} is not maximal and {a, b} has no basis:
        # the q claim could not be checked there.
        a, b = GroundElement(1, 1), GroundElement(1, 2)

        class NotHereditary(IndependenceSystem):
            n_agents, n_targets = 1, 2

            def is_independent(self, policy):
                return policy != {a}

        with pytest.raises(ContractViolation, match=r"subset \[GroundElement\(agent=1, "
                           r"target=1\), GroundElement\(agent=1, target=2\)\]"):
            verify_q_property(NotHereditary(), [a, b], q_claim=1.0)

    def test_empty_ground_set_passes(self):
        result = verify_q_property(PartitionConstraint(1, 1), [], q_claim=1.0)
        assert result.passes and result.worst_ratio == 1.0 and result.witness is None

    def test_ground_set_over_the_cap_refused(self):
        m = Q_VERIFY_CAP + 1
        ground = [GroundElement(1, j) for j in range(1, m + 1)]
        with pytest.raises(SizeLimitExceeded):
            verify_q_property(PartitionConstraint(1, m), ground, q_claim=1.0)
