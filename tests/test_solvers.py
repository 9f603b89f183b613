"""Tests for the bundle protocol, its baselines, and trace checks."""

import dataclasses
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
    AgentViews,
    ArrayViews,
    BundleState,
    ConfigurationError,
    StaticScenario,
    allowed_pairs,
    auction_baseline,
    check_allocation_trace,
    dgba_communication_phase,
    dgba_run,
    exact_oracle,
    graph_components,
    run_rounds,
    sequential_greedy,
)
from taskalloc.scenario import ScenarioConfig, sample_scenario
from test_rounds import trace_policies

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

    def test_allowed_pair_rule(self):
        inf, nan = math.inf, math.nan
        costs = np.array([[inf, -inf, nan, 1.0, 1.5],
                          [1.0, inf, -inf, nan, 0.0]])
        assert allowed_pairs(costs, np.array([1.0, inf])).tolist() == [
            # A cost equal to the budget is allowed; no non-finite cost is,
            # even under an infinite budget.
            [False, False, False, True, False],
            [True, False, False, False, True],
        ]

    def test_minus_infinite_cost_barred_in_both_dgba_forms(self):
        orc = TableOracle([2.0, 1.0], [[0.5, 0.4], [0.2, 0.6]])
        costs = [[-math.inf, 1.0], [1.0, 1.0]]
        for views_type in (AgentViews, ArrayViews):
            res = run_rounds(views_type, StaticScenario(orc, costs=costs, budgets=[2.0, 2.0]))
            assert res.policy == make_policy([(2, 2)])
            assert res.utility == pytest.approx(0.6)

    @pytest.mark.parametrize("tables", [
        {"costs": [[1.0], [1.0], [1.0]]},
        {"costs": np.ones((3, 4))},
        {"budgets": [1.0, 1.0]},
        {"budgets": [[1.0, 1.0, 1.0]]},
    ], ids=["costs-3x1", "costs-3x4", "budgets-2", "budgets-1x3"])
    def test_static_tables_must_match_the_oracle(self, tables):
        orc = TableOracle(np.ones(3), np.full((3, 3), 0.5))
        with pytest.raises(ConfigurationError):
            StaticScenario(orc, **tables)

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

    def test_infeasible_result_rejected(self):
        # Two isolated agents cannot see each other's claim on the one
        # target, so both take it, which the conflict-free rule forbids.
        scen = StaticScenario(TableOracle([1.0], [[0.5], [0.4]]), adjacency=np.zeros((2, 2)))
        with pytest.raises(ContractViolation, match="protocol produced an infeasible policy"):
            dgba_run(scen, constraints=ConflictFreeConstraint(2, 1))


class TestCommunicationPhase:
    def test_neighbor_entries_copied(self):
        a = BundleState(w=[1, 0], b=[0.7, 0.0], f=[0, 0])
        b = BundleState(w=[0, 2], b=[0.0, 0.4], f=[0, 0])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        dgba_communication_phase([a, b], adj > 0)
        assert a.w == [1, 2] and b.w == [1, 2]

    def test_two_linked_agents_send_two_messages_in_round_zero(self):
        # One message per directed edge per exchange, counted by the driver.
        assert dgba_run(StaticScenario(two_agent_oracle())).trace[0].messages == 2

    def test_higher_bid_wins_conflict(self):
        a = BundleState(w=[1, 0], b=[0.3, 0.0], f=[0, 0])
        b = BundleState(w=[0, 1], b=[0.0, 0.9], f=[0, 0])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        dgba_communication_phase([a, b], adj > 0)
        assert a.w[0] == 0          # loser reset in its own view
        assert b.f[1] == 1          # winner finalized

    def test_claim_yields_to_finalized_holder(self):
        a = BundleState(w=[1, 0], b=[0.9, 0.0], f=[1, 0])
        b = BundleState(w=[0, 1], b=[0.0, 0.95], f=[0, 0])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        dgba_communication_phase([a, b], adj > 0)
        assert b.w[1] == 0 and b.f[1] == 0

    def test_finalized_agent_stops_listening(self):
        a = BundleState(w=[1, 0], b=[0.9, 0.0], f=[1, 0])
        b = BundleState(w=[0, 2], b=[0.0, 0.4], f=[0, 0])
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        dgba_communication_phase([a, b], adj > 0)
        assert (a.w, a.b, a.f) == ([1, 0], [0.9, 0.0], [1, 0])
        assert (b.w, b.f) == ([1, 2], [1, 1])

    def test_graph_components(self):
        adj = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ])
        assert graph_components(adj) == [0, 0, 1, 2]
        # Labels run 0, 1, ... in the order of each component's lowest agent.
        assert graph_components(adj[::-1, ::-1]) == [0, 1, 2, 2]


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

    @pytest.mark.parametrize("solver", [dgba_run, auction_baseline])
    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_world_with_no_targets_finishes_empty(self, solver, n):
        res = solver(StaticScenario(TableOracle([], np.zeros((n, 0)))))
        assert res.policy == frozenset()
        assert repr(res.utility) == "0.0"
        assert [rec.utility for rec in res.trace] == [0.0]
        assert check_allocation_trace(res.trace, res.policy).ok

    @pytest.mark.parametrize("solver", [dgba_run, auction_baseline])
    def test_world_without_rounds_rejected(self, solver):
        class NoRounds(StaticScenario):
            def default_horizon(self):
                return 0

        with pytest.raises(ConfigurationError):
            solver(NoRounds(two_agent_oracle()))

    def test_auction_shares_the_dgba_phase_clocks(self):
        res = auction_baseline(StaticScenario(two_agent_oracle()))
        assert set(res.phase_times) == set(PHASES)


def _sampled(n, draw):
    return sample_scenario(ScenarioConfig(), n, n,
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
# the messages of every round.  Then the cumulative cost of every round and
# the final cost per agent, recorded from the same runs before the
# satellite world had one constructor.
AUCTION_PINS = [
    (lambda: _sampled(5, 0),
     [(1, 3), (2, 2), (3, 4), (4, 5), (5, 3)],
     2.2472521080944543, 66, 11,
     [2.188889969212798, 2.188889969212798, 2.2472521080944543],
     [24, 24, 18],
     [3.6455564344164535e-05, 7.283008976525062e-05, 0.00016391554091759006],
     [7.480960482570931e-05, 5.4791862274920205e-05, 2.561241152725967e-05,
      6.723804471911563e-06, 1.9778578177893e-06]),
    (lambda: _sampled(10, 1),
     [(1, 1), (2, 8), (3, 2), (4, 4), (5, 10), (6, 7), (7, 6), (8, 9), (9, 3), (10, 5)],
     5.861633857924618, 680, 20,
     [5.734469099304121, 5.734469099304121, 5.816629622661768, 5.816629622661768,
      5.861633857924618],
     [136, 136, 136, 136, 136],
     [0.00012955620302122932, 0.00025873411499377616, 0.0004584044524210839,
      0.0006575462286289803, 0.000895812303383092],
     [0.0002121583014260471, 3.965231923071851e-05, 3.209646031999958e-05,
      1.604120842186043e-05, 6.591627399256019e-05, 4.9782486405531445e-05,
      9.717310488401425e-05, 0.0001235258313257071, 0.00015915516507941893,
      0.0001003111522972346]),
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
     [2380, 2370, 1904, 1904, 1428, 1904, 1912, 2390, 2390],
     [0.00028642108027889017, 0.0005721644811237864, 0.001043945195064572,
      0.0015146436200211963, 0.002034305861106544, 0.002552779009600837,
      0.0031298172938874474, 0.00370553003962108, 0.004459671383108533],
     [7.654701571094308e-05, 9.923656845467497e-05, 8.605280285272035e-05,
      3.406726922684624e-05, 4.1449440974918686e-05, 1.058593411036943e-05,
      0.00014807482538445592, 9.935560045329959e-05, 5.996928994136265e-05,
      4.143756468472208e-05, 7.150953946274785e-05, 2.610476552750676e-05,
      4.941379289934652e-05, 0.00017975196938192293, 0.00017166171046397125,
      0.0003592060181558121, 0.0001741446891332683, 0.00020930249835112558,
      0.00019245388439292823, 7.741100073567143e-05, 8.823725158881441e-05,
      0.00017376324955317384, 5.880887131474453e-05, 6.43601557225001e-05,
      0.00014967385420589538, 0.00011875277435986219, 8.221696837677867e-05,
      0.00016397543119728205, 3.575178027720932e-05, 0.00017273235779067376,
      6.245993340210865e-05, 0.0001169659290035903, 8.797055283291717e-05,
      0.00011015051721779726, 0.00016831960077465978, 0.0001403755414175419,
      0.00017883548355485853, 0.00012760906459691938, 8.079794817182554e-05,
      7.017793745076592e-05]),
    (_budgeted_line,
     [(2, 2), (4, 4), (5, 3), (6, 1)],
     4.39327395010503, 230, 23,
     [4.081387525523201, 4.081387525523201, 4.39327395010503, 4.39327395010503,
      4.39327395010503],
     [60, 60, 40, 60, 10],
     [2.457588333961037, 2.457588333961037, 3.2773729882793234, 3.2773729882793234,
      3.2773729882793234],
     [0.0, 0.9366670521756527, 0.0, 0.8197846543182863, 1.006385001421571,
      0.5145362803638133]),
]


def assert_pinned(res, policy, utility, messages, rounds, series, sent, costs, spent):
    assert sorted(tuple(el) for el in res.policy) == policy
    assert repr(res.utility) == repr(utility)
    assert (res.messages, res.rounds) == (messages, rounds)
    assert [rec.utility for rec in res.trace] == series
    assert [rec.messages for rec in res.trace] == sent
    assert repr([float(rec.cumulative_cost) for rec in res.trace]) == repr(costs)
    assert repr([float(c) for c in res.per_agent_cost]) == repr(spent)


@pytest.mark.parametrize("make, pins", [(p[0], p[1:]) for p in AUCTION_PINS],
                         ids=["sat5", "sat10", "sat40", "line"])
def test_auction_outputs_pinned(make, pins):
    assert_pinned(auction_baseline(make()), *pins)


# DGBA outputs on the AUCTION_PINS instances, recorded when the run's oracle
# was passed in from outside, frozen at t = 0; the costs as for the auction.
DGBA_PINS = [
    ([(1, 3), (2, 2), (3, 4), (4, 5), (5, 3)],
     2.2472521080944543, 12, 2,
     [2.188889969212798, 2.2472521080944543],
     [6, 6],
     [3.6455564344164535e-05, 0.00012748737177586988],
     [4.992497436899248e-05, 5.46572820106193e-05, 1.709662300745653e-05,
      4.487749488373785e-06, 1.3207429004278144e-06]),
    ([(1, 4), (2, 5), (3, 2), (4, 4), (5, 10), (6, 7), (7, 6), (8, 9), (9, 3), (10, 5)],
     5.872245491072486, 68, 2,
     [5.734469099304121, 5.872245491072486],
     [34, 34],
     [0.00012955620302122932, 0.00029755956852526585],
     [2.7263199229050097e-05, 1.1562254302439575e-05, 1.2883696730391146e-05,
      6.4378278600407375e-06, 2.6467772290432284e-05, 1.9995717056996358e-05,
      3.90074346260219e-05, 4.9586093960500224e-05, 6.38601955906492e-05,
      4.0495376878744275e-05]),
    ([(1, 38), (2, 36), (3, 8), (4, 35), (5, 31), (6, 34), (7, 25), (8, 18), (9, 4),
      (10, 11), (11, 40), (12, 17), (13, 37), (14, 40), (15, 1), (16, 23), (17, 39),
      (18, 26), (19, 15), (20, 19), (21, 27), (22, 22), (23, 3), (24, 2), (25, 21),
      (26, 32), (27, 9), (28, 16), (29, 7), (30, 28), (31, 5), (32, 24), (33, 30),
      (34, 6), (35, 9), (36, 13), (37, 21), (38, 29), (39, 33), (40, 12)],
     34.003036127891484, 1426, 3,
     [28.444155806190643, 33.385969093511434, 34.003036127891484],
     [476, 474, 476],
     [0.00028642108027889017, 0.0007964579287997598, 0.0013671930753415226],
     [2.1924026983850168e-05, 2.8420355276130735e-05, 2.8884332361187932e-05,
      1.1452204217129584e-05, 1.3910111820338078e-05, 3.5583047498917034e-06,
      4.963877007827692e-05, 2.8543604030000823e-05, 2.0105542072533556e-05,
      1.3878168691332638e-05, 2.398836819855422e-05, 8.757772396018565e-06,
      1.6581576508157808e-05, 7.599700349760594e-05, 4.914972343382436e-05,
      0.00010288077676633507, 5.8547107072673055e-05, 7.018169209297677e-05,
      6.453950857596402e-05, 2.5972099245478346e-05, 2.963383877556635e-05,
      5.828847275979143e-05, 1.9744096074721603e-05, 2.159899978202487e-05,
      4.2872307925325895e-05, 3.994284246364911e-05, 2.7605753673659598e-05,
      5.5087814901116987e-05, 1.0242414006926436e-05, 5.810166264503928e-05,
      1.7913406481108097e-05, 3.352386328943276e-05, 2.9573156161865682e-05,
      3.698294165639006e-05, 2.9331277303233047e-05, 4.711062243830461e-05,
      1.6371662598125418e-05, 3.663067809501942e-05, 1.6160511580123656e-05,
      2.356570466183786e-05]),
    ([(1, 4), (2, 2), (4, 1), (5, 3), (6, 1)],
     4.657393839462168, 20, 2,
     [4.081387525523201, 4.657393839462168],
     [10, 10],
     [2.457588333961037, 3.9073321183082412],
     [0.5011996835868286, 0.9366670521756527, 0.0, 0.9485441007603762,
      1.006385001421571, 0.5145362803638133]),
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
    for rec, policy in zip(res.trace, trace_policies(res.trace)):
        assert rec.utility == start.evaluate(policy)


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

    @staticmethod
    def four_agent_run():
        """A complete-graph run whose first round finalizes several agents."""
        rng = np.random.default_rng(5)
        res = dgba_run(StaticScenario(TableOracle(rng.uniform(1.0, 2.0, 4),
                                                  rng.uniform(0.1, 0.9, (4, 4)))))
        assert check_allocation_trace(res.trace, res.policy).ok
        assert len(res.trace[0].newly_finalized) > 1
        return res

    def test_detects_component_increment_mismatch(self):
        res = self.four_agent_run()
        rec = res.trace[0]
        (group,) = rec.groups
        wrong = group.increment + 0.5
        trace = [dataclasses.replace(rec, groups=(dataclasses.replace(group, increment=wrong),))]
        check = check_allocation_trace(trace + res.trace[1:], res.policy)
        assert check.failures == [
            f"round 0: component increment {wrong!r} != "
            f"sum of gains {group.sum_deltas!r} for agents {group.agents}"
        ]

    def test_detects_round_increment_mismatch(self):
        res = self.four_agent_run()
        rec = res.trace[0]
        wrong = rec.increment + 0.5
        trace = [dataclasses.replace(rec, increment=wrong)]
        check = check_allocation_trace(trace + res.trace[1:], res.policy)
        agents = tuple(a for a, _j, _d in rec.newly_finalized)
        assert check.failures == [
            f"round 0: round increment {wrong!r} != "
            f"sum of gains {rec.groups[0].sum_deltas!r} for agents {agents}"
        ]

    @pytest.mark.parametrize("field", ["component", "round"])
    def test_increment_off_by_more_than_the_tolerance_fails(self, field):
        res = self.four_agent_run()
        rec = res.trace[0]
        (group,) = rec.groups

        def off_by(gap):
            if field == "round":
                return dataclasses.replace(rec, increment=rec.increment + gap)
            return dataclasses.replace(rec, groups=(
                dataclasses.replace(group, increment=group.increment + gap),))

        assert check_allocation_trace([off_by(1e-10)] + res.trace[1:], res.policy).ok
        check = check_allocation_trace([off_by(1e-8)] + res.trace[1:], res.policy)
        assert [f.split(":")[1].split()[0] for f in check.failures] == [field]
