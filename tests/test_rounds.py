"""The round driver's bookkeeping and graph handling, against references.

``reference_records`` recomputes every ``RoundRecord`` the plain way, from
each round's claims in agent order, calling none of the driver's own
helpers: the policy as a fresh frozenset, its utility by
``oracle.evaluate``, each new pair's delta by ``marginal_gain``, the groups
by the component labels of the round's graph, in order of each group's
lowest agent, and each group's utility by ``oracle.evaluate``.  The driver
must give the same bits, whether it kept a ``TableOracle``'s
per-target tallies or fell back to the plain path after a target got three
holders.
"""

import math
from collections import Counter

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
    marginal_gain,
)
from taskalloc.harness import random_bound_instance
from taskalloc.scenario import SatelliteScenario, ScenarioConfig, sample_scenario
from taskalloc.solvers import (
    AgentViews,
    ArrayViews,
    CompleteGraphViews,
    AuctionViews,
    ConfigurationError,
    DecisionGroup,
    StaticScenario,
    auction_baseline,
    dgba_run,
    graph_components,
    run_rounds,
)

VIEWS = (AgentViews, ArrayViews, AuctionViews)
# The views types for worlds whose graph stays complete (or turns
# malformed); ``CompleteGraphViews`` refuses any other graph.
ON_COMPLETE_GRAPHS = VIEWS + (CompleteGraphViews,)


def agent_order_policy(claims, done):
    return frozenset(GroundElement(k + 1, j) for k, j in enumerate(claims) if done[k] and j != 0)


def trace_policies(trace):
    """The policy after each record: the ``newly_finalized`` pairs so far,
    inserted in agent order by a generator, as ``agent_order_policy``
    inserts them."""
    held = {}
    for rec in trace:
        held.update((a, j) for a, j, _d in rec.newly_finalized)
        yield frozenset(GroundElement(a, held[a]) for a in sorted(held))


def recorded_run(views_type, scenario):
    """``run_rounds`` with what the reference needs recorded per round: the
    views' self-entries (once before round 0, then once per round), each
    adjacency the scenario gave (one per round, or one per run for a plain
    ``StaticScenario``), and the summed cost, taken when the driver
    asks for its costs: the satellite world's accrued cost, or for a static
    world the cost table's entries at the agent-order policy's pairs."""
    entries, graphs, costs = [], [], []

    class Recorded(views_type):
        def self_entries(self):
            claims, done = super().self_entries()
            entries.append((claims.tolist(), done.tolist()))
            return claims, done

    adjacency, agent_costs = scenario.adjacency, scenario.agent_costs

    def recorded_adjacency():
        graph = adjacency()
        graphs.append(np.array(graph))
        return graph

    def recorded_costs(claims, done):
        if isinstance(scenario, SatelliteScenario):
            per_agent = scenario.accrued_cost.copy()
        else:
            per_agent = np.zeros(scenario.n_agents)
            for el in agent_order_policy(*entries[-1]):
                per_agent[el.agent - 1] += scenario.pair_costs()[el.agent - 1, el.target - 1]
        costs.append(float(np.sum(per_agent)))
        return agent_costs(claims, done)

    scenario.adjacency, scenario.agent_costs = recorded_adjacency, recorded_costs
    oracle = scenario.oracle()
    return oracle, run_rounds(Recorded, scenario), entries, graphs, costs


def reference_records(oracle, entries, graphs, costs):
    """(policy, newly_finalized, groups, increment, utility, cumulative_cost)
    of each round, computed the plain way."""
    out = []
    before, before_utility = frozenset(), 0.0
    done_before = entries[0][1]
    for t, (claims, done) in enumerate(entries[1:]):
        policy = agent_order_policy(claims, done)
        newly = [(k + 1, j, marginal_gain(oracle, before, GroundElement(k + 1, j)))
                 for k, j in enumerate(claims) if done[k] and not done_before[k] and j != 0]
        utility = oracle.evaluate(policy)
        labels = graph_components(graphs[t])
        groups = []
        for label in dict.fromkeys(labels[a - 1] for a, _j, _d in newly):
            members = [(a, j, d) for a, j, d in newly if labels[a - 1] == label]
            groups.append(DecisionGroup(
                agents=tuple(a for a, _j, _d in members),
                targets=tuple(j for _a, j, _d in members),
                sum_deltas=sum(d for _a, _j, d in members),
                increment=oracle.evaluate(before | frozenset(
                    GroundElement(a, j) for a, j, _d in members)) - before_utility))
        out.append((policy, newly, groups, utility - before_utility, utility, costs[t]))
        before, before_utility, done_before = policy, utility, done
    return out


def assert_records_match_reference(views_type, scenario):
    """Runs the scenario and checks every record field by ``repr``; returns
    the result."""
    oracle, res, entries, graphs, costs = recorded_run(views_type, scenario)
    if type(scenario) is StaticScenario:  # its graph is read once, in round 0
        assert len(graphs) == 1
        graphs = graphs * len(res.trace)
    assert len(entries) == len(res.trace) + 1 == len(graphs) + 1 == len(costs) + 1
    for rec, held, (policy, newly, groups, inc, utility, cost) in zip(
            res.trace, trace_policies(res.trace),
            reference_records(oracle, entries, graphs, costs)):
        assert held == policy
        assert repr(rec.newly_finalized) == repr(tuple(newly))
        assert repr(rec.groups) == repr(tuple(groups))
        assert repr(rec.increment) == repr(inc)
        assert repr(rec.utility) == repr(utility)
        assert repr(rec.cumulative_cost) == repr(cost)
    assert res.policy == held
    assert repr(res.utility) == repr(res.trace[-1].utility)
    return res


def most_holders(policy):
    return max(Counter(el.target for el in policy).values(), default=0)


@st.composite
def sparse_instances(draw):
    """A static TableOracle instance on a sparse graph with few bid levels,
    so agents out of each other's sight often take the same target."""
    n = draw(st.integers(2, 14))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.4), k=1)
    oracle = TableOracle(rng.choice([1.0, 2.0, 3.0], size=m),
                         rng.choice([0.15, 0.35, 0.6, 0.85], size=(n, m)))
    return oracle, (upper | upper.T).astype(float)


@settings(max_examples=80, deadline=None)
@given(sparse_instances())
def test_static_sparse_records_match_reference(instance):
    oracle, adjacency = instance
    for views_type in VIEWS:
        assert_records_match_reference(views_type, StaticScenario(oracle, adjacency=adjacency))


def _satellite(n, m, key, draw):
    return sample_scenario(ScenarioConfig(), n, m,
                           np.random.default_rng([key, n, m, draw]))


# 20 agents on 5 targets: some target gets a third holder, and the driver
# leaves the tallies for the plain path from that round on.  On the last
# draw, a ``before`` not rebuilt in agent order at that round changes the
# records' bits.
@pytest.mark.parametrize("key, draw", [(13, 0), (13, 1), (99, 143)])
def test_satellite_records_match_reference_past_three_holders(key, draw):
    for views_type in VIEWS:
        res = assert_records_match_reference(views_type, _satellite(20, 5, key, draw))
        if views_type is not AuctionViews:
            assert most_holders(res.policy) >= 3


def test_satellite_records_match_reference_on_a_moving_world():
    for views_type in (ArrayViews, AuctionViews):
        assert_records_match_reference(views_type, _satellite(40, 40, 13, 0))


def test_three_holders_in_a_later_round_match_reference():
    # Agents 1 and 2 are isolated and take target 1 in round 0; agents 3
    # and 4 share an edge and both bid on target 2, which agent 4 wins.
    # Later agent 3 takes target 1 as its third holder, so the plain path
    # takes over from a round whose ``before`` is not empty.
    oracle = TableOracle([1.0, 1.0], [[0.9, 0.1], [0.8, 0.1], [0.5, 0.6], [0.5, 0.9]])
    adjacency = np.zeros((4, 4))
    adjacency[2, 3] = adjacency[3, 2] = 1.0
    for views_type in VIEWS:
        res = assert_records_match_reference(
            views_type, StaticScenario(oracle, adjacency=adjacency))
        assert [a for a, _j, _d in res.trace[0].newly_finalized] == [1, 2, 4]
        assert most_holders(res.policy) == 3  # agent 3's, in a later round


def test_three_holders_in_one_round_match_reference():
    # Three isolated agents take the one target in round 0.  With these
    # probabilities, a product of the three miss factors taken in the
    # tally's order has other bits than ``evaluate``'s, so the driver must
    # leave the tallies at the third holder.
    oracle = TableOracle([1.0], [[0.26], [0.44], [0.13]])
    for views_type in VIEWS:
        res = assert_records_match_reference(
            views_type, StaticScenario(oracle, adjacency=np.zeros((3, 3))))
        assert most_holders(res.policy) == 3


def test_modular_oracle_records_match_reference():
    rng = np.random.default_rng(8)
    oracle = ModularOracle(rng.choice([0.5, 1.0, 1.5], size=(10, 4)).tolist())
    upper = np.triu(rng.random((10, 10)) < 0.2, k=1)
    for views_type in VIEWS:
        scenario = StaticScenario(oracle, adjacency=(upper | upper.T).astype(float))
        assert_records_match_reference(views_type, scenario)


def test_static_costs_match_reference():
    # A cost table and budgets that rule some pairs out, so the recorded
    # costs are those of the pairs held, not zeros.
    rng = np.random.default_rng(21)
    oracle = TableOracle(rng.uniform(1.0, 3.0, size=5), rng.uniform(0.1, 0.9, size=(12, 5)))
    costs = rng.uniform(0.5, 1.5, size=(12, 5))
    budgets = rng.uniform(0.6, 1.5, size=12)
    upper = np.triu(rng.random((12, 12)) < 0.3, k=1)
    for views_type in VIEWS:
        scenario = StaticScenario(oracle, costs=costs, budgets=budgets,
                                  adjacency=(upper | upper.T).astype(float))
        res = assert_records_match_reference(views_type, scenario)
        assert res.trace[-1].cumulative_cost > 0.0


class TurningGraph(StaticScenario):
    """Complete graph until ``bad_from``, then ``bad``; every agent wants
    the targets in the same order, so one agent finalizes per round."""

    def __init__(self, n, bad, bad_from=2):
        super().__init__(TableOracle(np.arange(n, 0, -1.0), np.full((n, n), 0.5)))
        self.bad, self.bad_from, self.round = bad, bad_from, 0

    def adjacency(self):
        return self.bad if self.round >= self.bad_from else super().adjacency()

    def advance(self, claims):
        self.round += 1


def _asymmetric(n):
    adjacency = np.ones((n, n)) - np.eye(n)
    adjacency[0, 1] = 0.0
    return adjacency


def _self_loop(n):
    adjacency = np.ones((n, n)) - np.eye(n)
    adjacency[1, 1] = 1.0
    return adjacency


@pytest.mark.parametrize("views_type", ON_COMPLETE_GRAPHS)
@pytest.mark.parametrize("bad", [_asymmetric, _self_loop])
def test_graph_turning_bad_at_round_two_is_rejected(views_type, bad):
    n = 10
    scenario = TurningGraph(n, bad(n))
    with pytest.raises(ContractViolation):
        run_rounds(views_type, scenario)
    assert scenario.round == 2


def _plain(n, bad, bad_from):
    """A plain ``StaticScenario`` with ``TurningGraph``'s oracle."""
    return StaticScenario(TurningGraph(n, bad, bad_from).oracle())


@pytest.mark.parametrize("solver, n, world", [
    (dgba_run, 4, TurningGraph), (dgba_run, 12, TurningGraph), (dgba_run, 12, _plain),
    (auction_baseline, 12, TurningGraph),
], ids=["agent-views", "array-views", "complete-graph-views", "auction"])
def test_static_graph_is_checked_once(monkeypatch, solver, n, world):
    calls = []
    check = solvers._check_adjacency

    def counted(adjacency, size):
        calls.append(size)
        return check(adjacency, size)

    monkeypatch.setattr(solvers, "_check_adjacency", counted)
    res = solver(world(n, None, bad_from=math.inf))
    assert len(res.trace) >= 3
    assert calls == [n]


class Recosted(StaticScenario):
    """A static world that answers its cost queries itself and counts the
    row queries; the round driver cannot tell that its costs never change."""

    row_queries = 0

    def pair_costs(self, agents=None):
        self.row_queries += agents is not None
        return super().pair_costs(agents)


@pytest.mark.parametrize("views_type", ON_COMPLETE_GRAPHS)
def test_static_allowed_mask_is_built_once(monkeypatch, views_type):
    calls = []
    rule = solvers.allowed_pairs

    def counted(costs, budgets):
        calls.append(costs.shape)
        return rule(costs, budgets)

    monkeypatch.setattr(solvers, "allowed_pairs", counted)
    # Costs and budgets that rule pairs out, so the mask decides bids.
    rng = np.random.default_rng(21)
    oracle = TableOracle(rng.uniform(1.0, 3.0, size=5), rng.uniform(0.1, 0.9, size=(12, 5)))
    arrays = dict(costs=rng.uniform(0.5, 1.5, size=(12, 5)), budgets=rng.uniform(0.6, 1.5, size=12))
    carried = run_rounds(views_type, StaticScenario(oracle, **arrays))
    assert len(carried.trace) >= 2
    assert calls == [(12, 5)]
    calls.clear()
    scenario = Recosted(oracle, **arrays)
    queried = run_rounds(views_type, scenario)
    assert len(calls) == scenario.row_queries == len(queried.trace)
    assert _run_record(queried) == _run_record(carried)


class EditedInPlace(TurningGraph):
    """Every round ``adjacency()`` returns one writable graph, complete at
    first, which ``edit`` changes in place after round 1.  With ``fresh``
    it returns a fresh copy of that graph instead."""

    def __init__(self, n, edit, fresh=False):
        super().__init__(n, None, bad_from=math.inf)
        self.graph = np.ones((n, n)) - np.eye(n)
        self.edit, self.fresh = edit, fresh

    def adjacency(self):
        return self.graph.copy() if self.fresh else self.graph

    def advance(self, claims):
        super().advance(claims)
        if self.round == 2:
            self.edit(self.graph)


def _cut_in_two(graph):
    half = len(graph) // 2
    graph[:half, half:] = graph[half:, :half] = 0.0


def _cut_one_way(graph):
    graph[0, 1] = 0.0


def _run_record(res):
    return repr((sorted(res.policy), res.utility, res.rounds, res.messages,
                 [(rec.newly_finalized, rec.groups, rec.messages) for rec in res.trace]))


@pytest.mark.parametrize("views_type", VIEWS)
def test_graph_edited_in_place_is_compared_by_value(views_type):
    n = 10
    scenario = EditedInPlace(n, _cut_one_way)
    with pytest.raises(ContractViolation):
        run_rounds(views_type, scenario)
    assert scenario.round == 2
    edited = run_rounds(views_type, EditedInPlace(n, _cut_in_two))
    fresh = run_rounds(views_type, EditedInPlace(n, _cut_in_two, fresh=True))
    assert _run_record(edited) == _run_record(fresh)
    # The cut matters: two components then take the same targets.
    unedited = run_rounds(views_type, EditedInPlace(n, lambda graph: None))
    assert edited.trace[2].messages < unedited.trace[2].messages
    assert _run_record(edited) != _run_record(unedited)


class Rewired(StaticScenario):
    """A static world that, after round 0, makes its own read-only graph
    writable, cuts the edge from agent 1 to agent 2 one way, and makes the
    graph read-only again: ``adjacency()`` returns the same array, which
    is now asymmetric."""

    def advance(self, claims):
        self._adjacency.flags.writeable = True
        self._adjacency[0, 1] = 0.0
        self._adjacency.flags.writeable = False


@pytest.mark.parametrize("views_type", VIEWS)
def test_subclass_rewiring_its_read_only_graph_is_refused(views_type):
    n = 10
    oracle = TableOracle(np.arange(n, 0, -1.0), np.full((n, n), 0.5))
    with pytest.raises(ContractViolation, match="symmetric"):
        run_rounds(views_type, Rewired(oracle))


def counted_adjacency(scenario):
    """Wraps ``scenario.adjacency`` in an instance attribute, which leaves
    the scenario's type as it is; returns the list its calls append to."""
    calls, query = [], scenario.adjacency

    def counted():
        calls.append(None)
        return query()

    scenario.adjacency = counted
    return calls


@pytest.mark.parametrize("views_type", ON_COMPLETE_GRAPHS)
def test_static_graph_is_read_once_and_others_each_round(views_type):
    turning = TurningGraph(10, None, bad_from=math.inf)
    plain = StaticScenario(turning.oracle())
    calls = counted_adjacency(plain)
    assert type(plain) is StaticScenario
    static = run_rounds(views_type, plain)
    assert len(static.trace) >= 3
    assert len(calls) == 1
    calls = counted_adjacency(turning)
    each_round = run_rounds(views_type, turning)
    assert len(calls) == len(each_round.trace)
    assert _run_record(each_round) == _run_record(static)


@pytest.mark.parametrize("views_type", VIEWS)
def test_static_scenario_keeps_its_own_arrays(views_type):
    rng = np.random.default_rng(21)
    oracle = TableOracle(rng.uniform(1.0, 3.0, size=5), rng.uniform(0.1, 0.9, size=(12, 5)))
    costs = rng.uniform(0.5, 1.5, size=(12, 5))
    budgets = rng.uniform(0.6, 1.5, size=12)
    upper = np.triu(rng.random((12, 12)) < 0.3, k=1)
    adjacency = (upper | upper.T).astype(float)
    want = _run_record(run_rounds(views_type, StaticScenario(
        oracle, costs=costs.copy(), budgets=budgets.copy(), adjacency=adjacency.copy())))
    scenario = StaticScenario(oracle, costs=costs, budgets=budgets, adjacency=adjacency)
    costs[:] = 0.0
    budgets[:] = 0.0
    adjacency[:] = 1.0 - np.eye(12)
    assert _run_record(run_rounds(views_type, scenario)) == want


def test_static_scenario_arrays_are_read_only():
    scenario = StaticScenario(TableOracle([1.0, 2.0], [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]))
    for table in (scenario.pair_costs(), scenario.budgets(), scenario.adjacency()):
        with pytest.raises(ValueError):
            table[0] = 1.0


@pytest.mark.parametrize("views_type", VIEWS)
def test_adjacency_of_the_wrong_shape_is_refused(views_type):
    oracle = TableOracle([1.0, 2.0], np.full((4, 2), 0.5))
    with pytest.raises(ConfigurationError, match="adjacency shape"):
        run_rounds(views_type, StaticScenario(oracle, adjacency=np.zeros((3, 3))))


@pytest.mark.parametrize("views_type", ON_COMPLETE_GRAPHS)
def test_phase_clocks_tile_the_run(monkeypatch, views_type):
    # Each clock read returns the next integer, so every read the driver
    # makes shows up as one unit; the phases must account for all of them.
    reads = []

    def counter():
        reads.append(float(len(reads)))
        return reads[-1]

    monkeypatch.setattr(solvers.time, "perf_counter", counter)
    inst = random_bound_instance(5)
    scenario = StaticScenario(inst.oracle, costs=inst.costs, budgets=inst.budgets)
    res = run_rounds(views_type, scenario, constraints=inst.constraints)
    assert len(res.trace) >= 2
    assert sum(res.phase_times.values()) == reads[-1] - reads[0]


def lowest_agent_labels(labels):
    """Component labels renumbered 0, 1, ... in order of first appearance,
    that is of each component's lowest agent."""
    first = {}
    return [first.setdefault(label, len(first)) for label in labels]


@pytest.mark.parametrize("n", [1, 3, 9, 40, 200])
@pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.5, 1.0])
def test_graph_components_match_scipy(n, density):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng([n, int(density * 100)])
    upper = np.triu(rng.random((n, n)) < density, k=1)
    adjacency = (upper | upper.T).astype(float)
    isolated = rng.random(n) < 0.2  # cut some agents off entirely
    adjacency[isolated] = adjacency[:, isolated] = 0.0
    _count, labels = csgraph.connected_components(adjacency, directed=False)
    assert graph_components(adjacency) == lowest_agent_labels(labels.tolist())
