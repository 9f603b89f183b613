"""The implementations of the round driver's views, run side by side.

``AgentViews`` (per-agent lists and kernels) is the reference;
``ArrayViews`` (the live agents' views as rows of arrays) and, on complete
graphs, ``CompleteGraphViews`` (the broadcast alone) must reproduce it.
All are driven directly, whatever world ``dgba_run`` would pick them for.
The flooding auction's ``AuctionViews`` must reproduce ``LoopAuction``,
the same auction written as per-agent loops over dicts and sets.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import solvers
from taskalloc.core import (
    ContractViolation,
    GroundElement,
    ModularOracle,
    TableOracle,
    UtilityOracle,
    marginal_gain,
)
from taskalloc.scenario import ScenarioConfig, sample_scenario
from taskalloc.solvers import (
    AgentViews,
    ArrayViews,
    AuctionViews,
    CompleteGraphViews,
    StaticScenario,
    allowed_pairs,
    auction_baseline,
    dgba_run,
    graph_components,
    run_rounds,
)
from test_rounds import trace_policies


class DeadlineScenario(StaticScenario):
    """Static utilities and costs; the communication graph cycles through
    ``graphs`` round by round, and targets become unreachable from given
    rounds on: their cost columns are infinite from then."""

    def __init__(self, oracle, costs, budgets, graphs, unreachable_from):
        super().__init__(oracle, costs=costs, budgets=budgets)
        self.graphs = graphs
        self.unreachable_from = np.asarray(unreachable_from)
        self.round = 0

    def adjacency(self):
        return self.graphs[self.round % len(self.graphs)]

    def pair_costs(self, agents=None):
        costs = super().pair_costs(agents).copy()
        costs[:, self.unreachable_from <= self.round] = math.inf
        return costs

    def advance(self, claims):
        self.round += 1


def graphs(kind, n, rng):
    if kind == "complete":
        return [np.ones((n, n)) - np.eye(n)]
    if kind == "disconnected":
        return [np.zeros((n, n))]
    if kind in ("path", "ring"):
        # Long diameter: flooding needs up to n sweeps to settle.
        order = rng.permutation(n)
        ends = list(zip(order[:-1], order[1:]))
        if kind == "ring" and n > 2:
            ends.append((order[-1], order[0]))
        adjacency = np.zeros((n, n))
        for a, b in ends:
            adjacency[a, b] = adjacency[b, a] = 1.0
        return [adjacency]
    # Sparse and changing: stale views make agents yield to finalized claims.
    out = []
    for density in rng.uniform(0.05, 0.5, size=3):
        upper = np.triu(rng.random((n, n)) < density, k=1)
        out.append((upper | upper.T).astype(float))
    return out


class PlainTableOracle(UtilityOracle):
    """``TableOracle``'s arithmetic in an oracle that is not one, so the
    views tabulate its bids the generic way."""

    def __init__(self, values, probs):
        self.table = TableOracle(values, probs)
        self.n_agents, self.n_targets = self.table.n_agents, self.table.n_targets

    def evaluate_target(self, target, policy):
        return self.table.evaluate_target(target, policy)

    def marginal_gains_for_agent(self, policy, agent, targets):
        return self.table.marginal_gains_for_agent(policy, agent, targets)


KINDS = ("complete", "sparse", "disconnected", "path", "ring")


@st.composite
def instances(draw, kinds=KINDS):
    """Arguments of a DeadlineScenario on a graph of one of ``kinds``; each
    run builds its own."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Few distinct levels make equal gains and equal bids common.
    probs = rng.choice([0.2, 0.5, 0.8], size=(n, m))
    oracle_type = draw(st.sampled_from([TableOracle, PlainTableOracle, ModularOracle]))
    if oracle_type is ModularOracle:
        oracle = ModularOracle(probs.tolist())
    else:
        oracle = oracle_type(rng.choice([1.0, 2.0], size=m), probs)
    costs = rng.uniform(0.5, 1.5, size=(n, m))
    budgets = rng.uniform(0.6, 1.5, size=n) if draw(st.booleans()) else None
    kind = draw(st.sampled_from(kinds))
    return (oracle, costs, budgets, graphs(kind, n, rng),
            rng.integers(0, 2 * n + 3, size=m).tolist())


def bits(floats):
    return np.asarray(floats, dtype=float).view(np.uint64).tolist()


def assert_same_views(agent, array, live):
    """The array form holds the views of the agents ``live`` (0-based,
    ascending), each equal to that agent's bundle, and every agent's
    self-entries, bids to the last bit: an available target has no other
    holder in the view, so the array form's bid table (value * prob for a
    TableOracle, ``marginal_gains_for_agent`` on the empty policy
    otherwise) gives the gain the per-agent kernel computes on the agent's
    view.  A finalized agent's view is not state: no one reads it."""
    bundles = agent.bundles
    assert array.live.tolist() == live
    assert array.w.tolist() == [[int(v) for v in bundles[k].w] for k in live]
    assert [bits(row) for row in array.b] == [bits(bundles[k].b) for k in live]
    assert array.f.tolist() == [[bool(v) for v in bundles[k].f] for k in live]
    assert array.self_w.tolist() == [int(x.w[k]) for k, x in enumerate(bundles)]
    assert bits(array.self_b) == bits([x.b[k] for k, x in enumerate(bundles)])
    assert array.self_f.tolist() == [bool(x.f[k]) for k, x in enumerate(bundles)]


@settings(max_examples=60, deadline=None)
@given(instances())
def test_phase_kernels_agree_round_by_round(args):
    scenario = DeadlineScenario(*args)
    oracle = scenario.oracle()
    budgets = scenario.budgets()
    agent, array = AgentViews(oracle), ArrayViews(oracle)
    done = agent.self_entries()[1]
    for _ in range(scenario.default_horizon()):
        # The round driver's queries and rule, given to both views.
        rows = np.flatnonzero(np.logical_not(done))
        allowed = allowed_pairs(scenario.pair_costs(rows), budgets[rows])
        agent.assign(rows, allowed)
        array.assign(rows, allowed)
        # Agents left without options finalized here, but drop out of the
        # live rows only at the end of the exchange.
        assert_same_views(agent, array, rows.tolist())
        adjacency = scenario.adjacency()
        components = graph_components(adjacency)
        assert (agent.communicate(adjacency > 0, components)
                == array.communicate(adjacency > 0, components))
        claims, done = agent.self_entries()
        assert_same_views(agent, array, [k for k, d in enumerate(done) if not d])
        # A live agent lost or withdrew its claim: its own entries are 0,
        # so phase I need not clear them.
        own = np.arange(array.live.size), array.live
        assert not array.w[own].any() and not array.b[own].any()
        assert [v.tolist() for v in array.self_entries()] == [claims.tolist(), done.tolist()]
        if all(done):
            break
        scenario.advance(claims)


def assert_same_broadcast(agent, complete, live):
    """The complete-graph form holds every agent's self-entries, bids to
    the last bit, and as ``held`` the targets that each agent of ``live``
    (0-based) holds in its view other than its own claim."""
    bundles = agent.bundles
    assert complete.self_w.tolist() == [int(x.w[k]) for k, x in enumerate(bundles)]
    assert bits(complete.self_b) == bits([x.b[k] for k, x in enumerate(bundles)])
    assert complete.self_f.tolist() == [bool(x.f[k]) for k, x in enumerate(bundles)]
    held = (np.flatnonzero(complete.held) + 1).tolist()
    for k in live:
        assert sorted({j for i, j in enumerate(bundles[k].w) if j and i != k}) == held


@settings(max_examples=60, deadline=None)
@given(instances(kinds=["complete"]))
def test_complete_graph_views_agree_round_by_round(args):
    scenario = DeadlineScenario(*args)
    oracle = scenario.oracle()
    budgets = scenario.budgets()
    agent, complete = AgentViews(oracle), CompleteGraphViews(oracle)
    done = agent.self_entries()[1]
    for _ in range(scenario.default_horizon()):
        rows = np.flatnonzero(np.logical_not(done))
        allowed = allowed_pairs(scenario.pair_costs(rows), budgets[rows])
        agent.assign(rows, allowed)
        complete.assign(rows, allowed)
        assert_same_broadcast(agent, complete, rows.tolist())
        adjacency = scenario.adjacency()
        components = graph_components(adjacency)
        assert (agent.communicate(adjacency > 0, components)
                == complete.communicate(adjacency > 0, components))
        claims, done = agent.self_entries()
        assert_same_broadcast(agent, complete, [k for k, d in enumerate(done) if not d])
        assert [v.tolist() for v in complete.self_entries()] == [claims.tolist(), done.tolist()]
        if all(done):
            break
        scenario.advance(claims)


def test_complete_graph_views_resolve_each_target_as_the_agent_views_do():
    # Agent 1 holds target 1, finalized.  Agent 2 claims it anyway, with
    # the highest bid, and agents 3 and 4 claim target 2 with equal bids.
    # Phase I masks held targets, so on a complete graph it never makes
    # agent 2's claim; the self-entries are set by hand.  Agent 2
    # withdraws, and agent 3, the lower id, wins target 2.
    oracle = TableOracle([1.0, 1.0], np.full((4, 2), 0.5))
    agent, complete = AgentViews(oracle), CompleteGraphViews(oracle)
    entries = [(1, 0.5, True), (1, 0.9, False), (2, 0.5, False), (2, 0.5, False)]
    for k, (w, b, f) in enumerate(entries):
        bundle = agent.bundles[k]
        bundle.w[k], bundle.b[k], bundle.f[k] = w, b, int(f)
    complete.self_w[:], complete.self_b[:], complete.self_f[:] = zip(*entries)
    complete.held[:] = [True, False]
    linked = ~np.eye(4, dtype=bool)
    assert agent.communicate(linked, [0] * 4) == complete.communicate(linked, [0] * 4) == 1
    assert_same_broadcast(agent, complete, [1, 3])
    assert [v.tolist() for v in complete.self_entries()] == [
        [1, 0, 2, 0], [True, False, True, False]]


def test_complete_graph_views_refuse_a_graph_that_is_not_complete():
    views = CompleteGraphViews(TableOracle(np.ones(3), np.full((3, 3), 0.5)))
    views.assign(np.arange(3), np.ones((3, 3), dtype=bool))
    linked = ~np.eye(3, dtype=bool)
    linked[0, 1] = linked[1, 0] = False
    with pytest.raises(ContractViolation, match="every pair of agents linked"):
        views.communicate(linked, [0, 0, 0])


def test_dgba_run_picks_complete_graph_views_for_plain_complete_static_worlds(monkeypatch):
    picked = []
    run = solvers.run_rounds

    def recorded(views_type, scenario, constraints=None):
        picked.append(views_type)
        return run(views_type, scenario, constraints)

    class Plain(StaticScenario):
        """A subclass that changes nothing, but may: not static."""

    monkeypatch.setattr(solvers, "run_rounds", recorded)
    rng = np.random.default_rng(9)

    def oracle(n):
        return TableOracle(rng.uniform(1.0, 2.0, n), rng.uniform(0.1, 0.9, (n, n)))

    complete = 1.0 - np.eye(9)
    one_missing = complete.copy()
    one_missing[3, 7] = one_missing[7, 3] = 0.0
    cases = [
        (StaticScenario(oracle(9)), CompleteGraphViews),
        (StaticScenario(oracle(9), adjacency=2.5 * complete), CompleteGraphViews),
        (Plain(oracle(9)), ArrayViews),
        (StaticScenario(oracle(9), adjacency=one_missing), ArrayViews),
        # Links are the entries > 0, so a negative weight is a missing link.
        (StaticScenario(oracle(9), adjacency=rescaled(one_missing, 1.0, -3.0)), ArrayViews),
        (StaticScenario(oracle(8)), AgentViews),
    ]
    for scenario, want in cases:
        got = dgba_run(scenario)
        assert picked.pop() is want
        assert_same_run(got, run(AgentViews, scenario))


@pytest.mark.parametrize("kind", ["sparse", "ring", "disconnected"])
def test_array_views_hold_only_the_live_rows(kind):
    # Whenever the driver reads the self-entries (before round 0 and after
    # every round), the rows are exactly the agents not done.  More agents
    # than targets, so some finalize without a claim.
    rng = np.random.default_rng(16)
    n, m = 24, 18
    live_counts = []

    class CheckedViews(ArrayViews):
        def self_entries(self):
            claims, done = super().self_entries()
            live = [k for k, d in enumerate(done) if not d]
            assert self.live.tolist() == live
            assert [view.shape for view in (self.w, self.b, self.f)] == [(len(live), n)] * 3
            live_counts.append(len(live))
            return claims, done

    oracle = TableOracle(rng.uniform(1.0, 2.0, m), rng.uniform(0.1, 0.9, (n, m)))
    res = run_rounds(CheckedViews, DeadlineScenario(
        oracle, rng.uniform(0.5, 1.5, (n, m)), None, graphs(kind, n, rng),
        rng.integers(0, 2 * n + 3, size=m).tolist()))
    assert len(live_counts) == len(res.trace) + 1
    assert live_counts[0] == n and live_counts[-1] == 0
    if kind != "disconnected":  # there every agent finalizes in round 0
        assert any(0 < count < n for count in live_counts)


def test_a_large_table_run_leaves_the_list_form_unbuilt():
    # The array views and the driver's tally read ``prob_table`` only.
    rng = np.random.default_rng(200)
    oracle = TableOracle(rng.uniform(2.0, 2.5, 200), rng.uniform(0.1, 0.9, (200, 200)))
    res = dgba_run(StaticScenario(oracle))
    assert "probs" not in vars(oracle)
    assert repr(res.utility) == repr(oracle.evaluate(res.policy))


def assert_same_run(got, ref):
    assert got.policy == ref.policy
    assert repr(got.utility) == repr(ref.utility)
    assert (got.messages, got.rounds) == (ref.messages, ref.rounds)
    assert got.trace == ref.trace
    assert got.per_agent_cost.tolist() == ref.per_agent_cost.tolist()


@settings(max_examples=60, deadline=None)
@given(instances())
def test_runs_agree(args):
    assert_same_run(run_rounds(ArrayViews, DeadlineScenario(*args)),
                    run_rounds(AgentViews, DeadlineScenario(*args)))


def round_edges(graphs, trace):
    """Directed edges of each record's round graph: ``DeadlineScenario``
    shows ``graphs[t % len(graphs)]`` in round t."""
    return [int(np.count_nonzero(graphs[rec.round % len(graphs)] > 0)) for rec in trace]


@settings(max_examples=60, deadline=None)
@given(instances())
def test_dgba_sends_one_message_per_directed_edge_per_round(args):
    graphs = args[3]
    for views_type in (AgentViews, ArrayViews):
        trace = run_rounds(views_type, DeadlineScenario(*args)).trace
        assert [rec.messages for rec in trace] == round_edges(graphs, trace)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_auction_sends_one_message_per_directed_edge_per_sweep(args):
    res = auction_baseline(DeadlineScenario(*args))
    sweeps = 0
    for rec, edges in zip(res.trace, round_edges(args[3], res.trace)):
        if edges:
            assert rec.messages % edges == 0
            sweeps += rec.messages // edges
        else:  # no table can change: the one sweep that sees no change
            assert rec.messages == 0
            sweeps += 1
    assert sweeps == res.rounds


def rescaled(graph, scale, absent):
    """``graph``'s links weighted by ``scale``, its off-diagonal zeros set
    to ``absent``."""
    out = np.where(graph > 0, scale * graph, absent)
    np.fill_diagonal(out, 0.0)
    return out


@settings(max_examples=30, deadline=None)
@given(instances())
def test_only_the_link_pattern_of_a_graph_counts(args):
    oracle, costs, budgets, graphs, unreachable_from = args
    for views_type in (AgentViews, ArrayViews, AuctionViews):
        ref = run_rounds(views_type, DeadlineScenario(*args))
        for scale, absent in ((2.5, 0.0), (1.0, -3.0)):
            weighted = [rescaled(g, scale, absent) for g in graphs]
            assert_same_run(run_rounds(views_type, DeadlineScenario(
                oracle, costs, budgets, weighted, unreachable_from)), ref)


@pytest.mark.parametrize("views_type", [AgentViews, ArrayViews, AuctionViews])
@pytest.mark.parametrize("n, adjacency, pinned", [
    (0, None, (0, 0, 1)),
    (12, np.zeros((12, 12)), (1, 0, 1)),
], ids=["no-agents", "edgeless-12"])
def test_edge_case_counts_pinned(views_type, n, adjacency, pinned):
    # (rounds, messages, records): no agent, no round; no edge, no message.
    probs = np.random.default_rng(0).uniform(0.1, 0.9, (n, 3))
    res = run_rounds(views_type, StaticScenario(TableOracle(np.ones(3), probs),
                                                adjacency=adjacency))
    assert (res.rounds, res.messages, len(res.trace)) == pinned


def assert_deltas_are_marginal_gains(oracle, trace):
    before = frozenset()
    for record, policy in zip(trace, trace_policies(trace)):
        assert [repr(d) for _i, _j, d in record.newly_finalized] == [
            repr(marginal_gain(oracle, before, GroundElement(i, j)))
            for i, j, _d in record.newly_finalized]
        before = policy


@settings(max_examples=60, deadline=None)
@given(instances())
def test_trace_deltas_are_marginal_gains_to_the_bit(args):
    scenario = DeadlineScenario(*args)
    oracle = scenario.oracle()
    for views_type in (AgentViews, AuctionViews):
        assert_deltas_are_marginal_gains(
            oracle, run_rounds(views_type, DeadlineScenario(*args)).trace)


def test_trace_deltas_are_marginal_gains_past_three_holders():
    # On this 20 x 5 satellite draw a target gets a third holder, and a
    # three-factor gain depends on the iteration order of the policy it is
    # taken on: the record before that round must hold the driver's policy.
    def draw():
        return sample_scenario(ScenarioConfig(), 20, 5,
                               np.random.default_rng([99, 20, 5, 143]))

    oracle = draw().oracle()
    for views_type in (AgentViews, ArrayViews, AuctionViews):
        assert_deltas_are_marginal_gains(oracle, run_rounds(views_type, draw()).trace)


class LoopAuction:
    """The flooding auction one agent and one target at a time: bids are
    ``evaluate_target`` of the single pair, tables are dicts of
    target -> (bid, -agent) and sets of won targets.  A pair is allowed
    when its cost is finite and within the agent's budget at the start:
    the rule is applied here from the one-row cost query of ``scenario``
    (bind it with ``functools.partial``), and the driver's ``allowed``
    must equal it entry by entry."""

    def __init__(self, scenario, oracle):
        n = scenario.n_agents
        self.scenario, self.oracle = scenario, oracle
        self.budgets = scenario.budgets().tolist()
        self.target = [0] * n
        self.done = [False] * n
        self.taken = [set() for _ in range(n)]
        self.bids = {}

    def self_entries(self):
        return np.array(self.target), np.array(self.done)

    def assign(self, rows, allowed):
        scenario, oracle = self.scenario, self.oracle
        assert rows.tolist() == [i for i in range(scenario.n_agents) if not self.done[i]]
        self.bids = {}
        for i, driver_row in zip(rows.tolist(), allowed.tolist()):
            costs = scenario.pair_costs()[i].tolist()
            ok = [math.isfinite(c) and c <= self.budgets[i] for c in costs]
            assert driver_row == ok
            best_j, best_bid = 0, 0.0
            for j in range(1, scenario.n_targets + 1):
                if j in self.taken[i] or not ok[j - 1]:
                    continue
                v = oracle.evaluate_target(j, frozenset({GroundElement(i + 1, j)}))
                if v > best_bid:
                    best_j, best_bid = j, v
            if best_j == 0:
                self.done[i] = True
            else:
                self.bids[i] = (best_j, best_bid)

    def communicate(self, linked, components):
        n = len(self.target)
        table = [{} for _ in range(n)]
        for i, (j, v) in self.bids.items():
            table[i][j] = (v, -i)
        sweeps = 0
        changed = True
        while changed:
            sweeps += 1
            changed = False
            sent, heard = [dict(t) for t in table], [set(s) for s in self.taken]
            for i in range(n):
                for k in range(n):
                    if linked[i][k]:
                        for j, entry in sent[k].items():
                            if j not in table[i] or entry > table[i][j]:
                                table[i][j] = entry
                                changed = True
                        if not heard[k] <= self.taken[i]:
                            self.taken[i] |= heard[k]
                            changed = True
        for i, (j, _v) in self.bids.items():
            if j not in self.taken[i] and table[i][j][1] == -i:
                self.target[i] = j
                self.done[i] = True
                self.taken[i].add(j)
        return sweeps


@settings(max_examples=60, deadline=None)
@given(instances())
def test_auction_matches_the_loop_reference(args):
    scenario = DeadlineScenario(*args)
    assert_same_run(auction_baseline(DeadlineScenario(*args)),
                    run_rounds(functools.partial(LoopAuction, scenario), scenario))


def test_auction_follows_a_graph_that_changes_mid_run():
    # All agents rank the targets alike.  Round 0 (complete graph): agent
    # 1 wins target 1.  Round 1 (a path): the others, not yet told, bid on
    # target 1 again and flood along the path to learn it is won.  Round 2
    # (no edges): each of them wins target 2 in its own component.
    n = 8
    adjacency = np.ones((n, n)) - np.eye(n)
    probs = np.outer(np.linspace(0.9, 0.5, n), np.linspace(0.9, 0.6, 3))
    args = (TableOracle([1.0, 1.0, 1.0], probs), None, None,
            [adjacency, path(n), np.zeros((n, n)), adjacency], [99] * 3)
    got = auction_baseline(DeadlineScenario(*args))
    scenario = DeadlineScenario(*args)
    assert_same_run(got, run_rounds(functools.partial(LoopAuction, scenario), scenario))
    assert [len(rec.newly_finalized) for rec in got.trace] == [1, 0, n - 1]


def settle(adjacency, bidders):
    """One auction round on a single target that only ``bidders`` value:
    (messages, sweeps) and the won targets of ``AuctionViews``, checked
    against ``LoopAuction``.  The messages are those the round driver
    records for round 0 of a run on the same scenario."""
    n = len(adjacency)
    probs = [[1.0 if i in bidders else 0.0] for i in range(n)]
    scenario = StaticScenario(TableOracle([1.0], probs), adjacency=adjacency)
    rows, allowed = np.arange(n), np.ones((n, 1), dtype=bool)
    out = []
    for views in (AuctionViews(scenario.oracle()), LoopAuction(scenario, scenario.oracle())):
        views.assign(rows, allowed)
        sweeps = views.communicate(adjacency > 0, graph_components(adjacency))
        out.append((sweeps, views.self_entries()[0].tolist()))
    assert out[0] == out[1]
    sweeps, won = out[0]
    return (run_rounds(AuctionViews, scenario).trace[0].messages, sweeps), won


def path(n):
    adjacency = np.zeros((n, n))
    for k in range(n - 1):
        adjacency[k, k + 1] = adjacency[k + 1, k] = 1.0
    return adjacency


def test_flooding_a_path_from_one_end_takes_one_sweep_per_agent():
    for n in (1, 2, 5, 12):
        (messages, sweeps), won = settle(path(n), {0})
        assert (messages, sweeps) == (n * 2 * (n - 1), n)
        assert won == [1] + [0] * (n - 1)


def test_flooding_a_star_from_its_centre_takes_two_sweeps():
    n = 7
    adjacency = np.zeros((n, n))
    adjacency[0, 1:] = adjacency[1:, 0] = 1.0
    (messages, sweeps), won = settle(adjacency, {0})
    assert (messages, sweeps) == (2 * 2 * (n - 1), 2)
    assert won == [1] + [0] * (n - 1)


def test_flooding_disjoint_components_settles_at_the_deeper_one():
    # A 5-path bid on from one end (4 hops) beside a 3-path bid on from
    # its middle (1 hop): the deeper component sets the sweep count, and
    # each component's bidder wins the target for itself.
    adjacency = np.zeros((8, 8))
    adjacency[:5, :5] = path(5)
    adjacency[5:, 5:] = path(3)
    (messages, sweeps), won = settle(adjacency, {0, 6})
    assert (messages, sweeps) == (5 * 2 * (4 + 2), 5)
    assert won == [1, 0, 0, 0, 0, 0, 1, 0]


def test_auction_flooding_reads_the_values_of_linked_not_its_identity():
    # A round on the complete graph with no bidder, then one on a 6-path
    # bid on from one end: the second round takes one sweep per agent
    # whether ``linked`` is a new array or the last one overwritten.
    n = 6
    complete = np.ones((n, n)) - np.eye(n)
    for in_place in (False, True):
        views = AuctionViews(TableOracle([1.0], [[1.0]] + [[0.0]] * (n - 1)))
        linked = complete > 0
        views.assign(np.arange(0), np.ones((0, 1), dtype=bool))
        sweeps = [views.communicate(linked, graph_components(complete))]
        if in_place:
            linked[...] = path(n) > 0
        else:
            linked = path(n) > 0
        views.assign(np.arange(n), np.ones((n, 1), dtype=bool))
        sweeps.append(views.communicate(linked, graph_components(path(n))))
        assert sweeps == [1, n]
        assert list(views.self_entries()[0]) == [1] + [0] * (n - 1)


@pytest.mark.parametrize("views_type", [AgentViews, ArrayViews, AuctionViews, CompleteGraphViews])
def test_self_entries_are_fresh_vectors(views_type):
    # The driver keeps the last round's vectors beside the new ones, so
    # later assign and communicate calls must leave them as returned.
    returned = []

    class Kept(views_type):
        def self_entries(self):
            claims, done = super().self_entries()
            assert (claims.dtype.kind, done.dtype) == ("i", np.dtype(bool))
            returned.append((claims, done, claims.tolist(), done.tolist()))
            return claims, done

    rng = np.random.default_rng(20)
    n, m = 12, 8
    kind = "complete" if views_type is CompleteGraphViews else "sparse"
    oracle = TableOracle(rng.uniform(1.0, 2.0, m), rng.uniform(0.1, 0.9, (n, m)))
    res = run_rounds(Kept, DeadlineScenario(
        oracle, rng.uniform(0.5, 1.5, (n, m)), None, graphs(kind, n, rng),
        rng.integers(0, 2 * n + 3, size=m).tolist()))
    assert len(returned) == len(res.trace) + 1 > 2
    assert [(c.tolist(), d.tolist()) for c, d, _, _ in returned] == [
        (c, d) for _, _, c, d in returned]
    assert len({tuple(d) for _, _, _, d in returned}) > 2  # done changed twice


def test_array_views_refuse_rows_that_are_not_the_live_agents():
    views = ArrayViews(TableOracle(np.ones(3), np.full((3, 3), 0.5)))
    with pytest.raises(ContractViolation, match="phase I rows are not the live agents"):
        views.assign(np.arange(2), np.ones((2, 3), dtype=bool))


def test_auction_refuses_component_labels_the_graph_does_not_have():
    # Labelled one component, but with no edge no sweep can spread the
    # top bid to the other bidder.
    views = AuctionViews(TableOracle([1.0], [[0.5], [0.4]]))
    views.assign(np.arange(2), np.ones((2, 1), dtype=bool))
    with pytest.raises(ContractViolation, match="component labels do not match the graph"):
        views.communicate(np.zeros((2, 2), dtype=bool), [0, 0])
