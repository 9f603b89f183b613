"""The implementations of the round driver's views, run side by side.

``AgentViews`` (per-agent lists and kernels) is the reference;
``ArrayViews`` (team-wide N x N arrays) must reproduce it.  Both are driven
directly, whatever team size ``dgba_run`` would pick them for.  The
flooding auction's ``AuctionViews`` must reproduce ``LoopAuction``, the
same auction written as per-agent loops over dicts and sets.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.core import GroundElement, ModularOracle, TableOracle
from taskalloc.solvers import (
    AgentViews,
    ArrayViews,
    StaticScenario,
    auction_baseline,
    run_rounds,
)


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

    def pair_costs(self):
        costs = super().pair_costs().copy()
        costs[:, self.unreachable_from <= self.round] = math.inf
        return costs

    def advance(self, claims):
        self.round += 1


def graphs(kind, n, rng):
    if kind == "complete":
        return [np.ones((n, n)) - np.eye(n)]
    if kind == "disconnected":
        return [np.zeros((n, n))]
    # Sparse and changing: stale views make agents yield to finalized claims.
    out = []
    for density in rng.uniform(0.05, 0.5, size=3):
        upper = np.triu(rng.random((n, n)) < density, k=1)
        out.append((upper | upper.T).astype(float))
    return out


@st.composite
def instances(draw):
    """Arguments of a DeadlineScenario; each run builds its own."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Few distinct levels make equal gains and equal bids common.
    probs = rng.choice([0.2, 0.5, 0.8], size=(n, m))
    if draw(st.booleans()):
        oracle = TableOracle(rng.choice([1.0, 2.0], size=m), probs)
    else:
        oracle = ModularOracle(probs.tolist())
    costs = rng.uniform(0.5, 1.5, size=(n, m))
    budgets = rng.uniform(0.6, 1.5, size=n) if draw(st.booleans()) else None
    kind = draw(st.sampled_from(["complete", "sparse", "disconnected"]))
    return (oracle, costs, budgets, graphs(kind, n, rng),
            rng.integers(0, 2 * n + 3, size=m).tolist())


def assert_same_views(agent, array):
    """Equal views, bids to the last bit: an available target has no other
    holder in the view, so the array form's bid table (value * prob for a
    TableOracle, the marginal gain on the empty policy otherwise) gives the
    gain the per-agent kernel computes on the agent's view."""
    bundles = [a.bundle for a in agent.agents]
    assert array.w.tolist() == [[int(v) for v in x.w] for x in bundles]
    assert array.b.tolist() == [list(x.b) for x in bundles]
    assert array.f.tolist() == [[bool(v) for v in x.f] for x in bundles]


@settings(max_examples=60, deadline=None)
@given(instances())
def test_phase_kernels_agree_round_by_round(args):
    scenario = DeadlineScenario(*args)
    oracle = scenario.oracle()
    agent, array = AgentViews(scenario, oracle), ArrayViews(scenario, oracle)
    for _ in range(scenario.default_horizon()):
        agent.assign()
        array.assign()
        assert_same_views(agent, array)
        adjacency = scenario.adjacency()
        assert agent.communicate(adjacency) == array.communicate(adjacency)
        assert_same_views(agent, array)
        claims, done = agent.self_entries()
        assert array.self_entries() == (claims, done)
        if all(done):
            break
        scenario.advance(claims)


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


class LoopAuction:
    """The flooding auction one agent and one target at a time: bids are
    ``evaluate_target`` of the single pair, tables are dicts of
    target -> (bid, -agent) and sets of won targets.  A pair is allowed
    when its cost is finite and within the agent's budget at the start."""

    def __init__(self, scenario, oracle):
        n = scenario.n_agents
        self.scenario, self.oracle = scenario, oracle
        self.budgets = scenario.budgets().tolist()
        self.target = [0] * n
        self.done = [False] * n
        self.taken = [set() for _ in range(n)]
        self.bids = {}

    def self_entries(self):
        return list(self.target), list(self.done)

    def assign(self):
        scenario, oracle = self.scenario, self.oracle
        self.bids = {}
        for i in range(scenario.n_agents):
            if self.done[i]:
                continue
            costs = scenario.pair_cost_row(i + 1)
            best_j, best_bid = 0, 0.0
            for j in range(1, scenario.n_targets + 1):
                if (j in self.taken[i] or not math.isfinite(costs[j - 1])
                        or costs[j - 1] > self.budgets[i]):
                    continue
                v = oracle.evaluate_target(j, frozenset({GroundElement(i + 1, j)}))
                if v > best_bid:
                    best_j, best_bid = j, v
            if best_j == 0:
                self.done[i] = True
            else:
                self.bids[i] = (best_j, best_bid)

    def communicate(self, adjacency):
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
                    if adjacency[i][k] > 0:
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
        return sweeps * int(np.count_nonzero(np.asarray(adjacency) > 0)), sweeps


@settings(max_examples=60, deadline=None)
@given(instances())
def test_auction_matches_the_loop_reference(args):
    assert_same_run(auction_baseline(DeadlineScenario(*args)),
                    run_rounds(LoopAuction, DeadlineScenario(*args)))
