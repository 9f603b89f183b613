"""Allocation solvers: the distributed bundles protocol and its baselines.

The main solver is a synchronous three-phase protocol.  Each agent keeps
three length-N vectors: ``w`` (its view of which target each agent holds,
0 = none), ``b`` (the marginal-utility bid backing each claim) and ``f``
(which agents are finalized).  Per round every unfinalized agent greedily
claims the available target of maximum marginal gain (phase I), agents
exchange self-entries with neighbors and resolve claims on the same target
in favor of the highest bid (phase II), and the world state advances
(phase III).  Once an agent's ``f`` self-entry is set it never changes.

One round driver, ``run_rounds``, runs the protocol over either of two
exact implementations of the views: ``AgentViews`` keeps one
``BundleState`` per agent and runs the per-agent phase kernels (the
reference, and the faster one for small teams); ``ArrayViews`` keeps the
whole team's views as N x N arrays, row i being agent i's view, and runs
each phase as a few array operations.  ``dgba_run`` picks by team size.

Baselines: a centralized sequential greedy, a brute-force exact search, and
a simplified flooding auction, which the same driver runs over its own
state (``AuctionViews``).  The auction baseline is NOT a faithful
reimplementation of published consensus-auction algorithms: agents bid
their best standalone (non-marginal) utility, winners are determined by
max-bid flooding until tables stabilize, and the set of taken targets is
shared globally once fixed.  It exists as a communication-heavy comparison
point, nothing more.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Optional, Sequence

import numpy as np

from .constraints import IndependenceSystem
from .core import (
    ContractViolation,
    GroundElement,
    Policy,
    SizeLimitExceeded,
    TableOracle,
    UtilityOracle,
    marginal_gain,
)


class ConfigurationError(ValueError):
    """Solver inputs disagree on ground dimensions or limits."""


EXACT_SEARCH_CAP = 10 ** 7

# Team size from which dgba_run keeps the views as N x N arrays rather than
# per-agent lists.  Median time per dgba_run on complete-graph TableOracle
# instances with N = M (Xeon, Python 3.11, numpy 2.4, one thread):
#   N          4      8      9     10     16
#   lists    308    456    470    540   1146 us
#   arrays   424    458    451    461    707 us
ARRAY_VIEWS_MIN_AGENTS = 9


@dataclass
class BundleState:
    """One agent's local view of the allocation (w), bids (b), finals (f),
    as the per-agent kernels keep it: plain lists touched entry by entry.
    """

    w: list  # int, entries in 0..M, 0 = unassigned
    b: list  # float, nonnegative bids
    f: list  # int, 1 = finalized

    @classmethod
    def empty(cls, n_agents: int) -> "BundleState":
        return cls(w=[0] * n_agents, b=[0.0] * n_agents, f=[0] * n_agents)

    def copy(self) -> "BundleState":
        return BundleState(list(self.w), list(self.b), list(self.f))


@dataclass
class AgentRuntime:
    """Protocol-facing state of one agent."""

    id: int  # 1-based
    bundle: BundleState
    budget: float  # at the start of the run


@dataclass
class DecisionGroup:
    """Agents of one communication component that finalized in one round."""

    agents: tuple[int, ...]
    targets: tuple[int, ...]
    sum_deltas: float
    increment: float  # utility gain of adding exactly this group


@dataclass
class RoundRecord:
    """Per-round trace entry emitted by a protocol run."""

    round: int
    policy: Policy
    newly_finalized: tuple[tuple[int, int, float], ...]  # (agent, target, delta)
    groups: tuple[DecisionGroup, ...]
    increment: float
    utility: float
    messages: int
    cumulative_cost: float


@dataclass
class SolverResult:
    policy: Policy
    utility: float
    per_agent_cost: np.ndarray
    rounds: int
    messages: int
    trace: list[RoundRecord] = field(default_factory=list)
    phase_times: dict = field(default_factory=dict)  # seconds per phase


class AllocationScenario:
    """World the solvers operate in.

    Static instances freeze everything; the satellite scenario advances
    real dynamics in phase III.  The solvers read the world through one
    cost query, ``pair_costs``, and one budget query, ``budgets``.  A pair
    the world cannot serve (in the satellite world, one whose rendezvous
    deadline has passed) costs infinity.
    """

    n_agents: int
    n_targets: int

    def oracle(self) -> UtilityOracle:
        raise NotImplementedError

    def pair_costs(self) -> np.ndarray:
        """Every pair cost as an N x M array, agent i and target j at
        [i - 1, j - 1].  The one cost query a scenario implements."""
        raise NotImplementedError

    def pair_cost_row(self, agent: int) -> list[float]:
        """All pair costs of one agent, indexable by target - 1."""
        return self.pair_costs()[agent - 1].tolist()

    def budgets(self) -> np.ndarray:
        """Each agent's remaining budget as an N-vector.  The one budget
        query a scenario implements."""
        raise NotImplementedError

    def adjacency(self) -> np.ndarray:
        raise NotImplementedError

    def advance(self, claims: Sequence[int]) -> None:
        """Advance world dynamics one step, agent k + 1 flying toward
        target ``claims[k]`` (0 = none); a no-op for static worlds."""

    def agent_costs(self, policy: Policy) -> np.ndarray:
        """Per agent, the pair costs of its pairs in the policy, summed in
        the policy's iteration order."""
        pairs = np.fromiter(chain.from_iterable(policy), dtype=np.intp,
                            count=2 * len(policy)) - 1
        agents = pairs[0::2]
        return np.bincount(agents, weights=self.pair_costs()[agents, pairs[1::2]],
                           minlength=self.n_agents)

    def default_horizon(self) -> int:
        return 2 * self.n_agents + 2


class StaticScenario(AllocationScenario):
    """Frozen positions: fixed oracle, cost table, budgets (all infinite
    unless given) and communication graph."""

    def __init__(self, oracle: UtilityOracle,
                 costs: Optional[Sequence[Sequence[float]]] = None,
                 budgets: Optional[Sequence[float]] = None,
                 adjacency: Optional[np.ndarray] = None):
        self.n_agents = oracle.n_agents
        self.n_targets = oracle.n_targets
        self._oracle = oracle
        self._costs = (np.zeros((self.n_agents, self.n_targets)) if costs is None
                       else np.asarray(costs, dtype=float))
        self._budgets = (np.full(self.n_agents, math.inf) if budgets is None
                         else np.asarray(budgets, dtype=float))
        if adjacency is None:
            adjacency = np.ones((self.n_agents, self.n_agents)) - np.eye(self.n_agents)
        self._adjacency = np.asarray(adjacency, dtype=float)

    def oracle(self) -> UtilityOracle:
        return self._oracle

    def pair_costs(self) -> np.ndarray:
        return self._costs

    def budgets(self) -> np.ndarray:
        return self._budgets

    def adjacency(self) -> np.ndarray:
        return self._adjacency


# ---------------------------------------------------------------------------
# Phase I: greedy assignment
# ---------------------------------------------------------------------------

def local_view_policy(bundle: BundleState, self_id: int) -> Policy:
    """Allocation as perceived by one agent, excluding its own claim."""
    return frozenset(
        GroundElement(i + 1, int(j))
        for i, j in enumerate(bundle.w)
        if j != 0 and i + 1 != self_id
    )


def allowed_pairs(costs: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """The allowed-pair rule over rows of agents: a pair may be taken when
    its cost is finite and at most the agent's budget.  The finiteness test
    is needed: under an infinite budget ``inf <= inf`` holds."""
    return (costs <= budgets[:, None]) & np.isfinite(costs)


def available_targets(scenario: AllocationScenario, agent: AgentRuntime) -> list[int]:
    """Targets an agent may still bid on: unclaimed in its view, and allowed
    by the rule of ``allowed_pairs`` (finite cost, within its budget)."""
    bundle = agent.bundle
    claimed = {int(j) for i, j in enumerate(bundle.w) if j != 0 and i + 1 != agent.id}
    costs = scenario.pair_cost_row(agent.id)
    return [j for j, c in enumerate(costs, start=1)
            if j not in claimed and c <= agent.budget and c < math.inf]


def dgba_assignment_phase(agent: AgentRuntime, oracle: UtilityOracle,
                          available: Sequence[int]) -> bool:
    """Greedy claim of the best available target; updates the agent's own
    bundle entries in place.

    Finalized agents and agents with nothing available are left untouched.
    Returns True if the agent placed (or kept) a claim, False if it had no
    option; the run loop finalizes optionless agents with an empty claim.
    """
    k = agent.id - 1
    bundle = agent.bundle
    if bundle.f[k]:
        return True
    if not available:
        bundle.w[k] = 0
        bundle.b[k] = 0.0
        return False
    policy = local_view_policy(bundle, agent.id)
    gains = oracle.marginal_gains_for_agent(policy, agent.id, available)
    # Ties break toward the lowest target id; iterate ascending with strict >.
    best_j, best_gain = 0, -1.0
    for j in available:
        g = gains[j]
        if g > best_gain:
            best_j, best_gain = j, g
    bundle.w[k] = best_j
    bundle.b[k] = best_gain
    return True


# ---------------------------------------------------------------------------
# Phase II: communication and conflict resolution
# ---------------------------------------------------------------------------

def _check_adjacency(adjacency: np.ndarray, n: int) -> np.ndarray:
    adjacency = np.asarray(adjacency)
    if adjacency.shape != (n, n):
        raise ConfigurationError("adjacency shape does not match agent count")
    if not np.array_equal(adjacency, adjacency.T):
        raise ContractViolation("communication graph must be symmetric")
    if np.any(np.diag(adjacency) != 0):
        raise ContractViolation("communication graph must have a zero diagonal")
    return adjacency


def dgba_communication_phase(bundles: Sequence[BundleState],
                             adjacency: np.ndarray) -> tuple[list[BundleState], int]:
    """One synchronous exchange-and-resolve step over all agents.

    Reads a frozen snapshot of every bundle and returns fresh bundles, so
    the result is independent of agent ordering.  Each agent copies the
    self-entries of its neighbors, then resolves the conflict set of agents
    claiming its own target: the highest bid wins (ties to the lowest agent
    id), losers are reset in the local view.  A claim on a target that some
    agent's view shows as already finalized is withdrawn rather than
    contested: finalized allocations are immutable.

    Resolution runs whether or not the agent has neighbors: an uncontested
    claim (in particular, a claim by an isolated agent) is a singleton
    conflict set that the claimant wins, so conflicts are resolved per
    connected component.  One message is one bundle triple sent over one
    edge in one direction.
    """
    n = len(bundles)
    adjacency = _check_adjacency(adjacency, n)

    # Snapshot of every agent's self-entries, broadcast during the exchange.
    self_w = [b.w[k] for k, b in enumerate(bundles)]
    self_b = [b.b[k] for k, b in enumerate(bundles)]
    self_f = [b.f[k] for k, b in enumerate(bundles)]
    adj_rows = adjacency.tolist()

    messages = 0
    out: list[BundleState] = []
    for i in range(n):
        row = adj_rows[i]
        new = bundles[i].copy()
        for j in range(n):
            if row[j] > 0:
                new.w[j] = self_w[j]
                new.b[j] = self_b[j]
                new.f[j] = self_f[j]
                messages += 1
        my_target = new.w[i]
        if not new.f[i] and my_target != 0:
            holders = [k for k in range(n) if new.w[k] == my_target]
            if any(new.f[k] for k in holders if k != i):
                # Yield to an already-finalized holder.
                new.w[i] = 0
                new.b[i] = 0.0
            else:
                conflict = [k for k in holders if not new.f[k]]
                winner = min(conflict, key=lambda k: (-new.b[k], k))
                new.f[winner] = 1
                for k in conflict:
                    if k != winner:
                        new.w[k] = 0
                        new.b[k] = 0.0
        out.append(new)
    return out, messages


def graph_components(adjacency: np.ndarray) -> list[int]:
    """Connected-component label per agent (labels are arbitrary ints).

    Each visited agent scans only the agents not labelled yet, so a dense
    graph costs O(N) scans after the first rather than O(N^2)."""
    linked = (np.asarray(adjacency) > 0).tolist()
    labels = [-1] * len(linked)
    unlabeled = set(range(len(linked)))
    current = 0
    for start in range(len(linked)):
        if labels[start] != -1:
            continue
        labels[start] = current
        unlabeled.discard(start)
        stack = [start]
        while stack:
            row = linked[stack.pop()]
            reached = [v for v in unlabeled if row[v]]
            for v in reached:
                labels[v] = current
            unlabeled.difference_update(reached)
            stack.extend(reached)
        current += 1
    return labels


# ---------------------------------------------------------------------------
# Views: DGBA's two exact implementations, and the auction's state
# ---------------------------------------------------------------------------

def _pair_table(n: int, m: int, value) -> np.ndarray:
    """N x M array of ``value(GroundElement(i, j))``, pair (i, j) at
    [i - 1, j - 1]."""
    return np.array([[value(GroundElement(i, j)) for j in range(1, m + 1)]
                     for i in range(1, n + 1)], dtype=float).reshape(n, m)


class AgentViews:
    """Per-agent views: one ``BundleState`` per agent, updated by the
    per-agent phase kernels above.  The reference implementation."""

    def __init__(self, scenario: AllocationScenario, oracle: UtilityOracle):
        self.scenario, self.oracle = scenario, oracle
        n = scenario.n_agents
        self.agents = [
            AgentRuntime(id=i + 1, bundle=BundleState.empty(n), budget=budget)
            for i, budget in enumerate(scenario.budgets().tolist())
        ]

    def self_entries(self) -> tuple[list[int], list[bool]]:
        """Each agent's own claim (0 = none) and whether it is finalized."""
        return ([int(a.bundle.w[a.id - 1]) for a in self.agents],
                [bool(a.bundle.f[a.id - 1]) for a in self.agents])

    def assign(self) -> None:
        """Phase I.  Finalized agents skip the candidate scan entirely;
        agents with nothing available finalize with an empty claim."""
        for agent in self.agents:
            if agent.bundle.f[agent.id - 1]:
                continue
            avail = available_targets(self.scenario, agent)
            if not dgba_assignment_phase(agent, self.oracle, avail):
                agent.bundle.f[agent.id - 1] = 1

    def communicate(self, adjacency: np.ndarray) -> tuple[int, int]:
        """Phase II, one exchange; returns the messages sent and 1."""
        bundles, messages = dgba_communication_phase(
            [a.bundle for a in self.agents], adjacency)
        for agent, bundle in zip(self.agents, bundles):
            agent.bundle = bundle
        return messages, 1


class ArrayViews:
    """Team-wide views as N x N arrays: row i of ``w`` (int32 targets),
    ``b`` (float bids) and ``f`` (bool finals) is agent i's view.  Each
    phase is a few array operations over the rows of unfinalized agents,
    with the same results as ``AgentViews``, bids included to the last
    bit."""

    def __init__(self, scenario: AllocationScenario, oracle: UtilityOracle):
        self.scenario = scenario
        n, m = scenario.n_agents, scenario.n_targets
        self.w = np.zeros((n, n), dtype=np.int32)
        self.b = np.zeros((n, n))
        self.f = np.zeros((n, n), dtype=bool)
        self.budgets = scenario.budgets()
        # Bid of each pair.  No one else holds an available target in the
        # agent's view, so its marginal gain is the gain on the empty
        # policy: for a TableOracle value * prob, the product
        # marginal_gains_for_agent forms.
        if isinstance(oracle, TableOracle):
            self.gains = np.asarray(oracle.values) * oracle.prob_table
        else:
            self.gains = _pair_table(n, m, lambda el: marginal_gain(oracle, frozenset(), el))

    def self_entries(self) -> tuple[list[int], list[bool]]:
        return self.w.diagonal().tolist(), self.f.diagonal().tolist()

    def assign(self) -> None:
        """Phase I with the rules of ``AgentViews.assign``."""
        rows = np.flatnonzero(~self.f.diagonal())
        if rows.size == 0:
            return
        r = np.arange(rows.size)
        # Targets other agents hold in each view; column 0 collects "none".
        held = self.w[rows]
        held[r, rows] = 0
        claimed = np.zeros((rows.size, self.scenario.n_targets + 1), dtype=bool)
        claimed[r[:, None], held] = True
        avail = ~claimed[:, 1:]
        avail &= allowed_pairs(self.scenario.pair_costs()[rows], self.budgets[rows])
        has_option = avail.any(axis=1)
        idle = rows[~has_option]
        self.w[idle, idle] = 0
        self.b[idle, idle] = 0.0
        self.f[idle, idle] = True
        rows, avail = rows[has_option], avail[has_option]
        if rows.size == 0:
            return
        gains = np.where(avail, self.gains[rows], -np.inf)
        best = gains.argmax(axis=1)  # first maximum: lowest target id
        self.w[rows, rows] = best + 1
        self.b[rows, rows] = gains[np.arange(rows.size), best]

    def communicate(self, adjacency: np.ndarray) -> tuple[int, int]:
        """Phase II with the rules of ``dgba_communication_phase``."""
        n = len(self.w)
        linked = _check_adjacency(adjacency, n) > 0
        for view in (self.w, self.b, self.f):
            np.copyto(view, view.diagonal().copy(), where=linked)
        rows = np.flatnonzero(~self.f.diagonal() & (self.w.diagonal() != 0))
        holders = self.w[rows] == self.w[rows, rows][:, None]
        # Withdraw claims on a target some holder has finalized in the view.
        yields = (holders & self.f[rows]).any(axis=1)
        out = rows[yields]
        self.w[out, out] = 0
        self.b[out, out] = 0.0
        rows, conflict = rows[~yields], holders[~yields]
        # Highest bid wins, ties to the lowest agent id; losers are reset.
        winner = np.where(conflict, self.b[rows], -np.inf).argmax(axis=1)
        self.f[rows, winner] = True
        conflict[np.arange(rows.size), winner] = False
        lost_row, lost = np.nonzero(conflict)
        self.w[rows[lost_row], lost] = 0
        self.b[rows[lost_row], lost] = 0.0
        return int(np.count_nonzero(linked)), 1


class AuctionViews:
    """The flooding auction's state: each agent's won target (0 = none),
    whether it is done, and, as row i of the N x M ``taken``, the won
    targets agent i has heard of.  Knowledge of won targets spreads only
    through the flooding, so disconnected components can duplicate
    targets."""

    def __init__(self, scenario: AllocationScenario, oracle: UtilityOracle):
        self.scenario = scenario
        n, m = scenario.n_agents, scenario.n_targets
        self.target = np.zeros(n, dtype=np.intp)
        self.done = np.zeros(n, dtype=bool)
        self.taken = np.zeros((n, m), dtype=bool)
        self.budgets = scenario.budgets()
        # Standalone utility of each pair: evaluate_target of the pair
        # alone, for a TableOracle value * (1 - (1 - prob)).
        if isinstance(oracle, TableOracle):
            self.alone = np.asarray(oracle.values) * (1.0 - (1.0 - oracle.prob_table))
        else:
            self.alone = _pair_table(
                n, m, lambda el: oracle.evaluate_target(el.target, frozenset({el})))
        # This round's bids, as bidder, target index and rank.
        self.bidders = self.bid_targets = self.ranks = np.zeros(0, dtype=np.intp)

    def self_entries(self) -> tuple[list[int], list[bool]]:
        return self.target.tolist(), self.done.tolist()

    def assign(self) -> None:
        """Bidding.  Every agent not done bids its best standalone utility
        (the pair's utility on its own, ignoring what the allocation
        already covers; ties to the lowest target id) on a target it has
        not heard is won and that ``allowed_pairs`` allows.  An agent with
        no positive bid is done, with no target."""
        rows = np.flatnonzero(~self.done)
        ok = ~self.taken[rows]
        ok &= allowed_pairs(self.scenario.pair_costs()[rows], self.budgets[rows])
        bids = np.where(ok, self.alone[rows], 0.0)
        best = bids.argmax(axis=1)  # first maximum: lowest target id
        bid = bids[np.arange(rows.size), best]
        placed = bid > 0.0
        self.done[rows[~placed]] = True
        self.bidders, self.bid_targets = rows[placed], best[placed]
        # Rank 0 is the highest bid; ties go to the lowest agent id.
        self.ranks = np.empty(placed.sum(), dtype=np.intp)
        self.ranks[np.argsort(-bid[placed], kind="stable")] = np.arange(self.ranks.size)

    def communicate(self, adjacency: np.ndarray) -> tuple[int, int]:
        """Flooding.  Each sweep sends every agent's tables over every edge
        and keeps, per agent and target, the best bid heard and whether the
        target is heard to be won; sweeps repeat until no table changes.
        Each bidder whose own table then names it top bidder on a target
        not heard to be won wins it.  Returns the messages sent and the
        sweeps made."""
        n, m = self.taken.shape
        linked = _check_adjacency(adjacency, n) > 0
        around = [np.flatnonzero(row) for row in linked | np.eye(n, dtype=bool)]
        # Per agent: the best bid rank heard per target (n = none), then per
        # target 0 if heard to be won, else 1.  A sweep keeps the minimum of
        # each entry over the agent and its neighbours.
        tables = np.hstack([np.full((n, m), n), ~self.taken])
        tables[self.bidders, self.bid_targets] = self.ranks
        sweeps = 0
        while True:
            sweeps += 1
            flooded = np.array([tables[k].min(axis=0) for k in around])
            if np.array_equal(flooded, tables):
                break
            tables = flooded
        self.taken = tables[:, m:] == 0
        bids = self.bidders, self.bid_targets
        won = (tables[bids] == self.ranks) & ~self.taken[bids]
        winners, targets = self.bidders[won], self.bid_targets[won]
        self.target[winners] = targets + 1
        self.done[winners] = True
        self.taken[winners, targets] = True
        return sweeps * int(np.count_nonzero(linked)), sweeps


# ---------------------------------------------------------------------------
# The full protocol run
# ---------------------------------------------------------------------------

def _round_groups(oracle: UtilityOracle, before: Policy, before_utility: float,
                  newly: list[tuple[int, int, float]],
                  components: list[int]) -> tuple[DecisionGroup, ...]:
    """Newly finalized agents grouped by component; ``before_utility`` is
    ``oracle.evaluate(before)``."""
    groups: dict[int, list[tuple[int, int, float]]] = {}
    for agent, target, delta in newly:
        groups.setdefault(components[agent - 1], []).append((agent, target, delta))
    out = []
    for members in groups.values():
        added = frozenset(GroundElement(a, t) for a, t, _ in members)
        inc = oracle.evaluate(before | added) - before_utility
        out.append(DecisionGroup(
            agents=tuple(a for a, _, _ in members),
            targets=tuple(t for _, t, _ in members),
            sum_deltas=sum(d for _, _, d in members),
            increment=inc,
        ))
    return tuple(out)


PHASES = ("assignment", "communication", "implementation", "components", "bookkeeping")


def dgba_run(scenario: AllocationScenario,
             constraints: Optional[IndependenceSystem] = None,
             horizon: Optional[int] = None) -> SolverResult:
    """Run the distributed bundles protocol to completion.

    Phases run in lockstep each round: assignment, communication, then
    implementation (world dynamics and a fresh adjacency).  The run stops
    once every agent is finalized.

    Bids, trace deltas and the utility series all use the scenario's
    oracle as it is when the run starts, so the per-round increment
    identities hold even while the world moves underneath.

    Teams of ``ARRAY_VIEWS_MIN_AGENTS`` or more keep their views as arrays
    (``ArrayViews``), smaller ones per agent (``AgentViews``); the results
    are the same either way.
    """
    views = ArrayViews if scenario.n_agents >= ARRAY_VIEWS_MIN_AGENTS else AgentViews
    return run_rounds(views, scenario, constraints, horizon)


def run_rounds(views_type, scenario: AllocationScenario,
               constraints: Optional[IndependenceSystem] = None,
               horizon: Optional[int] = None) -> SolverResult:
    """The round driver of both distributed solvers, over the given views
    type: ``AgentViews`` or ``ArrayViews`` for ``dgba_run``,
    ``AuctionViews`` for ``auction_baseline``.  The scenario's oracle is
    read once, before round 0, and scores every round.

    The views protocol: ``views_type(scenario, oracle)`` is built once,
    before round 0; it reads ``scenario.budgets()`` there and may tabulate
    its bids.  Each round ``assign()`` does phase I on the round's pair
    costs, under the rule of ``allowed_pairs``; ``communicate(adjacency)``
    does phase II and returns the messages sent and the exchanges made
    (``rounds`` counts the exchanges); ``self_entries()`` gives each
    agent's claim (0 = none), which phase III passes to
    ``scenario.advance``, and whether it is done.

    ``phase_times`` holds seconds per phase: the three protocol phases
    (``assignment`` includes building the views, ``implementation`` the
    oracle read), ``components`` (labelling the communication graph, done
    again only when it changes) and ``bookkeeping`` (trace records,
    utilities and costs).
    """
    clock = time.perf_counter
    phase_times = dict.fromkeys(PHASES, 0.0)
    tick = clock()
    oracle = scenario.oracle()
    phase_times["implementation"] += clock() - tick
    if constraints is not None and (
        constraints.n_agents != scenario.n_agents
        or constraints.n_targets != scenario.n_targets
    ):
        raise ConfigurationError("constraint dimensions do not match scenario")
    if (oracle.n_agents, oracle.n_targets) != (scenario.n_agents, scenario.n_targets):
        raise ConfigurationError("oracle dimensions do not match scenario")
    if horizon is None:
        horizon = scenario.default_horizon()
    if horizon < 1:
        raise ConfigurationError("horizon must be at least 1")

    tick = clock()
    views = views_type(scenario, oracle)
    done = views.self_entries()[1]
    phase_times["assignment"] += clock() - tick
    trace: list[RoundRecord] = []
    total_messages = 0
    protocol_rounds = 0
    policy = frozenset()
    utility = 0.0
    graph = components = None

    for t in range(horizon):
        tick = clock()
        adjacency = scenario.adjacency()
        tock = clock()
        phase_times["implementation"] += tock - tick
        if graph is None or not np.array_equal(adjacency, graph):
            components = graph_components(adjacency)
            graph = np.array(adjacency)
        tick = clock()
        phase_times["components"] += tick - tock
        before, before_utility, done_before = policy, utility, done
        round_messages = 0

        if not all(done):
            views.assign()  # Phase I
            tock = clock()
            phase_times["assignment"] += tock - tick
            round_messages, exchanges = views.communicate(adjacency)  # Phase II
            total_messages += round_messages
            protocol_rounds += exchanges
            tick = clock()
            phase_times["communication"] += tick - tock

        # Phase III: world dynamics.
        claims, done = views.self_entries()
        scenario.advance(claims)
        tock = clock()
        phase_times["implementation"] += tock - tick

        policy = frozenset(
            GroundElement(k + 1, j) for k, j in enumerate(claims) if done[k] and j != 0
        )
        newly = [
            (k + 1, j, marginal_gain(oracle, before, GroundElement(k + 1, j)))
            for k, j in enumerate(claims)
            if done[k] and not done_before[k] and j != 0
        ]
        utility = oracle.evaluate(policy)
        per_agent_cost = scenario.agent_costs(policy)
        trace.append(RoundRecord(
            round=t,
            policy=policy,
            newly_finalized=tuple(newly),
            groups=_round_groups(oracle, before, before_utility, newly, components),
            increment=utility - before_utility,
            utility=utility,
            messages=round_messages,
            cumulative_cost=float(np.sum(per_agent_cost)),
        ))
        phase_times["bookkeeping"] += clock() - tock

        if all(done):
            break

    tick = clock()
    if constraints is not None and not constraints.is_independent(policy):
        raise ContractViolation("protocol produced an infeasible policy")
    phase_times["bookkeeping"] += clock() - tick
    return SolverResult(
        policy=policy,
        utility=utility,
        per_agent_cost=per_agent_cost,
        rounds=protocol_rounds,
        messages=total_messages,
        trace=trace,
        phase_times=phase_times,
    )


# ---------------------------------------------------------------------------
# Baselines and exact search
# ---------------------------------------------------------------------------

def sequential_greedy(oracle: UtilityOracle,
                      constraints: IndependenceSystem) -> SolverResult:
    """Centralized greedy: repeatedly add the feasible pair of globally
    maximum marginal gain until no feasible pair improves the utility.
    Ties break lexicographically on (agent, target), the order of
    ``oracle.ground_set()``."""
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
    return SolverResult(
        policy=policy,
        utility=oracle.evaluate(policy),
        per_agent_cost=np.zeros(oracle.n_agents),
        rounds=len(policy),
        messages=0,
    )


def exact_oracle(oracle: UtilityOracle,
                 constraints: IndependenceSystem) -> SolverResult:
    """Brute-force optimum over every agent-to-target-or-none mapping.

    Deterministic: mappings are scanned in lexicographic order and only a
    strictly better utility replaces the incumbent.
    """
    n, m = oracle.n_agents, oracle.n_targets
    if (m + 1) ** n > EXACT_SEARCH_CAP:
        raise SizeLimitExceeded(
            f"({m} + 1) ** {n} mappings exceed the exact-search cap"
        )
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
    return SolverResult(
        policy=best_policy,
        utility=best_utility,
        per_agent_cost=np.zeros(n),
        rounds=0,
        messages=0,
    )


def auction_baseline(scenario: AllocationScenario,
                     constraints: Optional[IndependenceSystem] = None,
                     horizon: Optional[int] = None) -> SolverResult:
    """Simplified flooding auction used as a communication-cost yardstick.

    Per round, every unassigned agent bids its best standalone utility (the
    target's value times the pair's success probability, ignoring what the
    current allocation already covers), bids and the set of already-won
    targets are flooded over the current graph until every agent's local
    tables stabilize, and each target's top bidder within a component is
    fixed.  The rounds run on the driver of ``dgba_run`` (``run_rounds``
    over ``AuctionViews``).  ``rounds`` counts flooding sweeps, so it grows
    with graph diameter.
    """
    return run_rounds(AuctionViews, scenario, constraints, horizon)


# ---------------------------------------------------------------------------
# Trace property checks
# ---------------------------------------------------------------------------

@dataclass
class TraceCheck:
    ok: bool
    failures: list[str]


def check_allocation_trace(trace: Sequence[RoundRecord], final_policy: Policy,
                           tol: float = 1e-9) -> TraceCheck:
    """Verify the decision-set properties of a protocol trace.

    Checks that (1) no agent finalizes twice, (2) the finalized agents are
    exactly those holding a pair in the final policy, and (3) per round and
    per communication component, the utility gained by the component's new
    assignments equals the sum of their recorded marginal gains.  The
    increment identities are checked whenever the new assignments involved
    have distinct targets; simultaneous same-target claims by agents that
    cannot see each other's claims (possible beyond one hop on sparse
    graphs) overlap and the sum overcounts.  On a complete graph targets
    are always distinct, giving the full global property.
    """
    failures: list[str] = []
    seen: set[int] = set()
    for rec in trace:
        for agent, _j, _d in rec.newly_finalized:
            if agent in seen:
                failures.append(f"round {rec.round}: agent {agent} finalized twice")
            seen.add(agent)
        for g in rec.groups:
            if len(set(g.targets)) != len(g.targets):
                continue
            if abs(g.increment - g.sum_deltas) > tol:
                failures.append(
                    f"round {rec.round}: component increment {g.increment!r} != "
                    f"sum of gains {g.sum_deltas!r} for agents {g.agents}"
                )
        targets = [j for _a, j, _d in rec.newly_finalized]
        if len(targets) == len(set(targets)):
            total = sum(g.sum_deltas for g in rec.groups)
            if abs(rec.increment - total) > tol:
                failures.append(
                    f"round {rec.round}: round increment {rec.increment!r} != "
                    f"sum of gains {total!r}"
                )
    assigned = {el.agent for el in final_policy}
    if seen != assigned:
        failures.append(
            f"finalized agents {sorted(seen)} != assigned agents {sorted(assigned)}"
        )
    return TraceCheck(ok=not failures, failures=failures)
