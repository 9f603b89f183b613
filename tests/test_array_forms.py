"""Both array forms of ``dgba_run``, certified at the sizes they serve.

Seeded plain complete static ``TableOracle`` worlds with N = M in {9, 20,
50}, with and without budgets, drawn from the ranges of
``random_bound_instance``.  ``dgba_run`` gives a ``StaticScenario`` the
complete-graph views and a subclass of it the L x N array views; both
runs must agree, keep the constraints and, where scipy is installed,
reach half the maximum-weight matching.  Every failure names its seed.
Relations that any correct implementation keeps are checked on all three
forms of DGBA's views, each driven directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.core import TableOracle
from taskalloc.solvers import (
    AgentViews,
    ArrayViews,
    CompleteGraphViews,
    StaticScenario,
    dgba_run,
    run_rounds,
)

SIZES = (9, 20, 50)
SEEDS = range(3)


class Subclassed(StaticScenario):
    """Changes nothing, but a subclass may: ``dgba_run`` gives it ``ArrayViews``."""


def world(n, budgeted, seed):
    """Values 2.0-2.5, probabilities 0.1-0.9, costs 0.5-1.5 and, if
    ``budgeted``, budgets 0.6-1.5, else none."""
    rng = np.random.default_rng([seed, n, int(budgeted)])
    oracle = TableOracle(rng.uniform(2.0, 2.5, n), rng.uniform(0.1, 0.9, (n, n)))
    costs = rng.uniform(0.5, 1.5, (n, n))
    budgets = rng.uniform(0.6, 1.5, n) if budgeted else np.full(n, np.inf)
    return oracle, costs, budgets


def runs(n, budgeted):
    """Per seed: the seed, the world and the complete-graph form's run."""
    for seed in SEEDS:
        oracle, costs, budgets = world(n, budgeted, seed)
        yield seed, (oracle, costs, budgets), dgba_run(StaticScenario(oracle, costs, budgets))


@pytest.mark.parametrize("budgeted", [False, True], ids=["unbudgeted", "budgeted"])
@pytest.mark.parametrize("n", SIZES)
def test_both_array_forms_agree_and_keep_the_constraints(n, budgeted):
    for seed, (oracle, costs, budgets), got in runs(n, budgeted):
        ref = dgba_run(Subclassed(oracle, costs, budgets))
        assert got.policy == ref.policy, f"seed {seed}"
        assert repr(got.utility) == repr(ref.utility), f"seed {seed}"
        assert (got.messages, got.rounds) == (ref.messages, ref.rounds), f"seed {seed}"
        targets = [el.target for el in got.policy]
        assert len(set(targets)) == len(targets), f"seed {seed}: a target held twice"
        assert all(costs[el.agent - 1, el.target - 1] <= budgets[el.agent - 1]
                   for el in got.policy), f"seed {seed}: a pair over its agent's budget"


@pytest.mark.parametrize("budgeted", [False, True], ids=["unbudgeted", "budgeted"])
@pytest.mark.parametrize("n", SIZES)
def test_utility_is_at_least_half_the_maximum_weight_matching(n, budgeted):
    # The matching of value * prob over the allowed pairs is a conflict-free
    # policy, so at most the optimum: DGBA's half-optimum guarantee covers it.
    optimize = pytest.importorskip("scipy.optimize")
    for seed, (oracle, costs, budgets), got in runs(n, budgeted):
        weights = np.where(costs <= budgets[:, None],
                           np.asarray(oracle.values) * oracle.prob_table, 0.0)
        rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
        matching = weights[rows, cols].sum()
        assert got.utility >= 0.5 * matching, f"seed {seed}: {got.utility} < {matching} / 2"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 24), m=st.integers(1, 24),
       budgeted=st.booleans(), levels=st.booleans())
@pytest.mark.parametrize("views_type", [AgentViews, ArrayViews, CompleteGraphViews])
def test_doubling_every_value_doubles_the_utility_exactly(views_type, seed, n, m, budgeted,
                                                          levels):
    # A power-of-two scale is exact in binary floating point, so every gain
    # and bid doubles to the bit and each tie-break compares as before.
    # ``levels`` draws from few values, so that equal gains and bids occur.
    rng = np.random.default_rng(seed)
    if levels:
        values, probs = rng.choice([1.0, 2.0], m), rng.choice([0.2, 0.5, 0.8], (n, m))
    else:
        values, probs = rng.uniform(2.0, 2.5, m), rng.uniform(0.1, 0.9, (n, m))
    costs = rng.uniform(0.5, 1.5, (n, m))
    budgets = rng.uniform(0.6, 1.5, n) if budgeted else None
    ref = run_rounds(views_type, StaticScenario(TableOracle(values, probs), costs, budgets))
    got = run_rounds(views_type, StaticScenario(TableOracle(2.0 * values, probs), costs, budgets))
    assert got.policy == ref.policy, f"seed {seed}"
    assert got.utility == 2.0 * ref.utility, f"seed {seed}"
    assert (got.messages, got.rounds) == (ref.messages, ref.rounds), f"seed {seed}"
