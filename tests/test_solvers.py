"""Tests for the bundle protocol, its baselines, and trace checks."""

import math

import numpy as np
import pytest

from taskalloc.constraints import (
    BudgetConstraint,
    CompositeConstraint,
    ConflictFreeConstraint,
    PartitionConstraint,
)
from taskalloc.core import (
    ContractViolation,
    GroundElement,
    ModularOracle,
    SizeLimitExceeded,
    TableOracle,
    make_policy,
)
from taskalloc.solvers import (
    PHASES,
    AgentRuntime,
    BundleState,
    ConfigurationError,
    StaticScenario,
    auction_baseline,
    check_allocation_trace,
    dgba_communication_phase,
    dgba_run,
    exact_oracle,
    graph_components,
    sequential_greedy,
)
from taskalloc.scenario import ScenarioConfig, sample_scenario

P = math.exp(-0.8)


def two_agent_oracle():
    """Both agents strong on target 1; agent 2 weaker on target 2."""
    return TableOracle([2.0, 1.0], [[P, P], [P, math.exp(-1.6)]])


class TestDgbaTwoAgentInstance:
    """Hand-traced run: both agents claim target 1 in round one, agent 1
    wins on the higher bid (tie broken by id since bids are equal), agent 2
    falls back to target 2 in round two."""

    def test_final_policy(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        assert res.policy == make_policy([(1, 1), (2, 2)])

    def test_final_utility(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        assert res.utility == pytest.approx(1.1005544462290984, abs=1e-12)

    def test_rounds_and_messages(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        assert res.rounds == 2
        # Two agents, complete graph: 2 messages per round.
        assert res.messages == 4

    def test_utility_series_non_decreasing(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        series = [rec.utility for rec in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))

    def test_trace_checks_pass(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        assert check_allocation_trace(res.trace, res.policy).ok

    def test_phase_times_recorded(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        assert set(res.phase_times) == {
            "assignment", "communication", "implementation",
            "components", "bookkeeping",
        }

    def test_suboptimal_but_within_half(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        opt = exact_oracle(two_agent_oracle(), PartitionConstraint(2, 2))
        assert opt.policy == make_policy([(1, 1), (2, 1)])
        assert res.utility >= 0.5 * opt.utility


class TestDgbaGraphEffects:
    def test_isolated_agents_self_finalize(self):
        scen = StaticScenario(two_agent_oracle(), adjacency=np.zeros((2, 2)))
        res = dgba_run(scen)
        assert res.messages == 0
        # Nobody hears anybody: both claim the best target unopposed.
        assert sorted(el.target for el in res.policy) == [1, 1]

    def test_star_needs_no_more_rounds_than_agents(self):
        rng = np.random.default_rng(3)
        n = 5
        orc = TableOracle(rng.uniform(1, 2, n), rng.uniform(0.2, 0.9, (n, n)))
        star = np.zeros((n, n))
        star[0, 1:] = star[1:, 0] = 1.0
        res = dgba_run(StaticScenario(orc, adjacency=star))
        complete = dgba_run(StaticScenario(orc))
        assert res.rounds >= complete.rounds
        assert res.rounds <= 2 * n + 2
        assert check_allocation_trace(res.trace, res.policy).ok

    def test_asymmetric_adjacency_rejected(self):
        adj = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractViolation):
            dgba_run(StaticScenario(two_agent_oracle(), adjacency=adj))

    def test_self_loop_rejected(self):
        adj = np.eye(2)
        with pytest.raises(ContractViolation):
            dgba_run(StaticScenario(two_agent_oracle(), adjacency=adj))


class TestTieBreaks:
    def test_equal_bids_go_to_lowest_agent_id(self):
        orc = TableOracle([1.0], [[0.5], [0.5], [0.5]])
        res = dgba_run(StaticScenario(orc))
        winners = [rec.newly_finalized for rec in res.trace]
        assert winners[0][0][0] == 1  # first round, first finalized agent

    def test_equal_gains_go_to_lowest_target_id(self):
        orc = TableOracle([1.0, 1.0], [[0.5, 0.5]])
        res = dgba_run(StaticScenario(orc))
        assert res.policy == make_policy([(1, 1)])


class TestBudgetsAndConstraints:
    def test_unaffordable_target_skipped(self):
        orc = two_agent_oracle()
        costs = [[5.0, 0.5], [0.5, 0.5]]
        scen = StaticScenario(orc, costs=costs, budgets=[1.0, 1.0])
        res = dgba_run(scen)
        assert GroundElement(1, 1) not in res.policy

    def test_exhausted_agent_finalizes_empty(self):
        orc = two_agent_oracle()
        costs = [[5.0, 5.0], [0.5, 0.5]]
        scen = StaticScenario(orc, costs=costs, budgets=[1.0, 1.0])
        res = dgba_run(scen)
        assert all(el.agent != 1 for el in res.policy)

    @pytest.mark.parametrize("solver", [dgba_run, auction_baseline])
    @pytest.mark.parametrize("n", [2, 9])
    def test_infinite_cost_pair_never_taken_without_budget(self, solver, n):
        # Each agent's best pair costs infinity; no budget bars it.
        if n == 2:
            orc = TableOracle([2.0, 1.0], [[0.9, 0.5], [0.4, 0.3]])
        else:
            orc = TableOracle(np.ones(n), np.random.default_rng(3).uniform(0.1, 0.9, (n, n)))
        costs = np.ones((n, n))
        costs[np.arange(n), orc.prob_table.argmax(axis=1)] = math.inf
        res = solver(StaticScenario(orc, costs=costs))
        assert res.policy
        assert all(costs[el.agent - 1, el.target - 1] < math.inf for el in res.policy)

    def test_result_checked_against_constraints(self):
        constraints = CompositeConstraint([
            PartitionConstraint(2, 2), ConflictFreeConstraint(2, 2),
        ])
        res = dgba_run(StaticScenario(two_agent_oracle()),
                       constraints=constraints)
        assert constraints.is_independent(res.policy)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            dgba_run(StaticScenario(two_agent_oracle()),
                     constraints=PartitionConstraint(3, 2))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            dgba_run(StaticScenario(two_agent_oracle()), horizon=0)


class TestCommunicationPhase:
    def test_neighbor_entries_copied(self):
        a = BundleState(w=[1, 0], b=[0.7, 0.0], f=[0, 0])
        b = BundleState(w=[0, 2], b=[0.0, 0.4], f=[0, 0])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        out, messages = dgba_communication_phase([a, b], adj)
        assert messages == 2
        assert out[0].w == [1, 2] and out[1].w == [1, 2]

    def test_higher_bid_wins_conflict(self):
        a = BundleState(w=[1, 0], b=[0.3, 0.0], f=[0, 0])
        b = BundleState(w=[0, 1], b=[0.0, 0.9], f=[0, 0])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        out, _ = dgba_communication_phase([a, b], adj)
        assert out[0].w[0] == 0          # loser reset in its own view
        assert out[1].f[1] == 1          # winner finalized

    def test_claim_yields_to_finalized_holder(self):
        a = BundleState(w=[1, 0], b=[0.9, 0.0], f=[1, 0])
        b = BundleState(w=[0, 1], b=[0.0, 0.95], f=[0, 0])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        out, _ = dgba_communication_phase([a, b], adj)
        assert out[1].w[1] == 0 and out[1].f[1] == 0

    def test_graph_components(self):
        adj = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ])
        labels = graph_components(adj)
        assert labels[0] == labels[1]
        assert len({labels[1], labels[2], labels[3]}) == 3


class TestBaselines:
    def test_sequential_greedy_optimal_on_modular(self):
        weights = [[3.0, 1.0], [1.0, 2.0]]
        orc = ModularOracle(weights)
        constraints = CompositeConstraint([
            PartitionConstraint(2, 2), ConflictFreeConstraint(2, 2),
        ])
        res = sequential_greedy(orc, constraints)
        opt = exact_oracle(orc, constraints)
        assert res.utility == pytest.approx(opt.utility, abs=1e-12)

    def test_exact_oracle_brute_force_small(self):
        orc = two_agent_oracle()
        res = exact_oracle(orc, PartitionConstraint(2, 2))
        assert res.utility == pytest.approx(1.3935228204795755, abs=1e-12)

    def test_exact_oracle_cap(self):
        orc = TableOracle([1.0] * 30, [[0.5] * 30] * 10)
        with pytest.raises(SizeLimitExceeded):
            exact_oracle(orc, PartitionConstraint(10, 30))

    def test_auction_reaches_conflict_free_allocation(self):
        res = auction_baseline(StaticScenario(two_agent_oracle()))
        targets = [el.target for el in res.policy]
        assert len(targets) == len(set(targets))
        assert res.utility == pytest.approx(1.1005544462290984, abs=1e-12)

    def test_auction_messages_grow_with_diameter(self):
        rng = np.random.default_rng(5)
        n = 5
        orc = TableOracle(rng.uniform(1, 2, n), rng.uniform(0.2, 0.9, (n, n)))
        line = np.zeros((n, n))
        for i in range(n - 1):
            line[i, i + 1] = line[i + 1, i] = 1.0
        res_line = auction_baseline(StaticScenario(orc, adjacency=line))
        res_full = auction_baseline(StaticScenario(orc))
        assert res_line.rounds >= res_full.rounds

    def test_auction_rejects_mismatched_oracle(self):
        class MisshapenScenario(StaticScenario):
            def oracle(self):
                return TableOracle([1.0, 1.0, 1.0], [[0.5] * 3] * 2)

        with pytest.raises(ConfigurationError):
            auction_baseline(MisshapenScenario(two_agent_oracle()))

    def test_auction_rejects_zero_horizon(self):
        with pytest.raises(ConfigurationError):
            auction_baseline(StaticScenario(two_agent_oracle()), horizon=0)

    def test_auction_shares_the_dgba_phase_clocks(self):
        res = auction_baseline(StaticScenario(two_agent_oracle()))
        assert set(res.phase_times) == set(PHASES)


def _sampled(n, draw):
    return sample_scenario(ScenarioConfig(n_agents=n, n_targets=n),
                           np.random.default_rng([11, n, draw]))


def _budgeted_line():
    rng = np.random.default_rng(5)
    n, m = 6, 4
    oracle = TableOracle(rng.uniform(1.0, 2.0, size=m), rng.uniform(0.2, 0.9, size=(n, m)))
    line = np.eye(n, k=1) + np.eye(n, k=-1)
    costs = rng.uniform(0.5, 1.5, size=(n, m))
    budgets = rng.uniform(0.6, 1.5, size=n)
    return StaticScenario(oracle, costs=costs, budgets=budgets, adjacency=line)


# Auction outputs recorded from the hand-written auction loop that the round
# driver replaced: policy, utility, messages, rounds, then the utility and
# the messages of every round.
AUCTION_PINS = [
    (lambda: _sampled(5, 0),
     [(1, 3), (2, 2), (3, 4), (4, 5), (5, 3)],
     2.2472521080944543, 66, 11,
     [2.188889969212798, 2.188889969212798, 2.2472521080944543],
     [24, 24, 18]),
    (lambda: _sampled(10, 1),
     [(1, 1), (2, 8), (3, 2), (4, 4), (5, 10), (6, 7), (7, 6), (8, 9), (9, 3), (10, 5)],
     5.861633857924618, 680, 20,
     [5.734469099304121, 5.734469099304121, 5.816629622661768, 5.816629622661768,
      5.861633857924618],
     [136, 136, 136, 136, 136]),
    (lambda: _sampled(40, 2),
     [(1, 38), (2, 36), (3, 8), (4, 35), (5, 31), (6, 34), (7, 25), (8, 18), (9, 4),
      (10, 11), (11, 40), (12, 17), (13, 37), (14, 14), (15, 1), (16, 23), (17, 39),
      (18, 26), (19, 15), (20, 19), (21, 27), (22, 22), (23, 3), (24, 2), (25, 21),
      (26, 32), (27, 9), (28, 16), (29, 7), (30, 28), (31, 5), (32, 24), (33, 30),
      (34, 6), (35, 20), (36, 13), (37, 10), (38, 29), (39, 33), (40, 12)],
     33.75369193982755, 18582, 39,
     [28.444155806190643, 28.444155806190643, 33.28824686098303, 33.28824686098303,
      33.73203653881308, 33.73203653881308, 33.747735381381396, 33.747735381381396,
      33.75369193982755],
     [2380, 2370, 1904, 1904, 1428, 1904, 1912, 2390, 2390]),
    (_budgeted_line,
     [(2, 2), (4, 4), (5, 3), (6, 1)],
     4.39327395010503, 230, 23,
     [4.081387525523201, 4.081387525523201, 4.39327395010503, 4.39327395010503,
      4.39327395010503],
     [60, 60, 40, 60, 10]),
]


def assert_pinned(res, policy, utility, messages, rounds, series, sent):
    assert sorted(tuple(el) for el in res.policy) == policy
    assert repr(res.utility) == repr(utility)
    assert (res.messages, res.rounds) == (messages, rounds)
    assert [rec.utility for rec in res.trace] == series
    assert [rec.messages for rec in res.trace] == sent


@pytest.mark.parametrize("make, policy, utility, messages, rounds, series, sent",
                         AUCTION_PINS, ids=["sat5", "sat10", "sat40", "line"])
def test_auction_outputs_pinned(make, policy, utility, messages, rounds, series, sent):
    assert_pinned(auction_baseline(make()), policy, utility, messages, rounds, series, sent)


# DGBA outputs on the AUCTION_PINS instances, recorded when the run's oracle
# was passed in from outside, frozen at t = 0.
DGBA_PINS = [
    ([(1, 3), (2, 2), (3, 4), (4, 5), (5, 3)],
     2.2472521080944543, 12, 2,
     [2.188889969212798, 2.2472521080944543],
     [6, 6]),
    ([(1, 4), (2, 5), (3, 2), (4, 4), (5, 10), (6, 7), (7, 6), (8, 9), (9, 3), (10, 5)],
     5.872245491072486, 68, 2,
     [5.734469099304121, 5.872245491072486],
     [34, 34]),
    ([(1, 38), (2, 36), (3, 8), (4, 35), (5, 31), (6, 34), (7, 25), (8, 18), (9, 4),
      (10, 11), (11, 40), (12, 17), (13, 37), (14, 40), (15, 1), (16, 23), (17, 39),
      (18, 26), (19, 15), (20, 19), (21, 27), (22, 22), (23, 3), (24, 2), (25, 21),
      (26, 32), (27, 9), (28, 16), (29, 7), (30, 28), (31, 5), (32, 24), (33, 30),
      (34, 6), (35, 9), (36, 13), (37, 21), (38, 29), (39, 33), (40, 12)],
     34.003036127891484, 1426, 3,
     [28.444155806190643, 33.385969093511434, 34.003036127891484],
     [476, 474, 476]),
    ([(1, 4), (2, 2), (4, 1), (5, 3), (6, 1)],
     4.657393839462168, 20, 2,
     [4.081387525523201, 4.657393839462168],
     [10, 10]),
]


@pytest.mark.parametrize("make, pins", zip([p[0] for p in AUCTION_PINS], DGBA_PINS),
                         ids=["sat5", "sat10", "sat40", "line"])
def test_dgba_outputs_pinned(make, pins):
    assert_pinned(dgba_run(make()), *pins)


@pytest.mark.parametrize("solver", [dgba_run, auction_baseline])
def test_moving_world_is_scored_by_its_start_oracle(solver):
    world = _sampled(40, 2)
    start = world.oracle()
    res = solver(world)
    assert len(res.trace) >= 2
    assert world.oracle().probs != start.probs  # the world did move
    for rec in res.trace:
        assert rec.utility == start.evaluate(rec.policy)


class TestTraceChecks:
    def test_detects_double_finalization(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        broken = list(res.trace) + [res.trace[-1]]
        check = check_allocation_trace(broken, res.policy)
        assert not check.ok
        assert any("finalized twice" in f for f in check.failures)

    def test_detects_missing_assignment(self):
        res = dgba_run(StaticScenario(two_agent_oracle()))
        smaller = res.policy - {next(iter(res.policy))}
        check = check_allocation_trace(res.trace, smaller)
        assert not check.ok
