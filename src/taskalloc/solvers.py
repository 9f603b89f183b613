"""Allocation solvers: the distributed bundles protocol and its baselines.

The main solver is a synchronous three-phase protocol.  Each agent keeps
three length-N vectors: ``w`` (its view of which target each agent holds,
0 = none), ``b`` (the marginal-utility bid backing each claim) and ``f``
(which agents are finalized).  Per round every unfinalized agent greedily
claims the available target of maximum marginal gain (phase I), agents
exchange self-entries with neighbors and resolve claims on the same target
in favor of the highest bid (phase II), and the world state advances
(phase III).  Once an agent's ``f`` self-entry is set it never changes.

One round driver, ``run_rounds``, runs the protocol over any of three
exact implementations of the views: ``AgentViews`` keeps one
``BundleState`` per agent and runs the per-agent phase kernels (the
reference, and the faster one for small teams); ``ArrayViews`` keeps the
views of the agents not yet finalized as the rows of L x N arrays, and
runs each phase as a few array operations; ``CompleteGraphViews``, for a
complete graph only, keeps no view rows at all, because there every live
view is the broadcast with one conflict resolved.  A finalized agent
stops listening: no one reads its view again.  ``dgba_run`` picks by team
size and, for a world that cannot change, by its graph.

Baselines: a centralized sequential greedy, a pruned exact search, and
a simplified flooding auction, which the same driver runs over its own
state (``AuctionViews``).  The auction baseline is NOT a faithful
reimplementation of published consensus-auction algorithms: an agent's
bid on a pair is the pair's gain on the empty policy, which is its
standalone utility (not its marginal gain on what is already allocated),
winners are determined by max-bid flooding until tables stabilize, and the
set of taken targets is shared globally once fixed.  It exists as a
communication-heavy comparison point, nothing more.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
    check_bounds,
    marginal_gain,
)


class ConfigurationError(ValueError):
    """Solver inputs disagree on ground dimensions or limits."""


EXACT_SEARCH_CAP = 10 ** 7
TRACE_TOL = 1e-9  # largest increment-to-gains gap check_allocation_trace accepts

# Team size from which dgba_run keeps the views as arrays
# (``ArrayViews``, or ``CompleteGraphViews`` on a plain static world whose
# graph is complete) rather than per-agent lists.  Median time per run of
# lists and ``ArrayViews`` on complete-graph TableOracle instances with
# N = M, medians of three interleaved runs (shared 2-CPU Xeon, Python
# 3.11, numpy 2.4, one thread).  N = 8 is a tie here; on other instances
# arrays led there by up to 12%, and lists led at N = 7:
#   N          4      6      8      9     10     12     16
#   lists    182    206    404    327    434    605    777 us
#   arrays   211    216    405    321    396    411    428 us
# On the same machine ``CompleteGraphViews`` took 0.88-0.92 of
# ``ArrayViews``' time per run at N = 6-12 (five instances per N), so on
# the worlds it serves the crossover is no higher.
ARRAY_VIEWS_MIN_AGENTS = 9


@dataclass
class BundleState:
    """One agent's local view of the allocation (w), bids (b), finals (f),
    as the per-agent kernels keep it: plain lists touched entry by entry.
    """

    w: list  # int, entries in 0..M, 0 = unassigned
    b: list  # float, nonnegative bids
    f: list  # int, 1 = finalized


@dataclass
class DecisionGroup:
    """Agents of one communication component that finalized in one round."""

    agents: tuple[int, ...]
    targets: tuple[int, ...]
    sum_deltas: float
    increment: float  # utility gain of adding exactly this group


@dataclass
class RoundRecord:
    """Per-round trace entry: what one round of a protocol run changed.  The
    policy after round t is the union of ``newly_finalized`` over 0..t."""

    round: int
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
    deadline has passed) costs infinity.  In a protocol run only the round
    driver makes these queries: ``budgets`` once, and each round
    ``pair_costs`` for the rows of the agents still bidding and
    ``adjacency``.  A world whose type is exactly ``StaticScenario`` is
    asked for its whole cost table and its graph once per run instead.
    The satellite world computes only the rows it is asked for.
    """

    n_agents: int
    n_targets: int

    def oracle(self) -> UtilityOracle:
        raise NotImplementedError

    def pair_costs(self, agents: Optional[np.ndarray] = None) -> np.ndarray:
        """Every pair cost as an N x M array, agent i and target j at
        [i - 1, j - 1]; with ``agents``, an array of 0-based agent indices,
        only their rows, in that order.  The one cost query a scenario
        implements."""
        raise NotImplementedError

    def pair_cost_row(self, agent: int) -> list[float]:
        """All pair costs of one agent, indexable by target - 1.  Nothing in
        the library calls it, and only its own test does
        (``test_scenario.py::test_pair_cost_row_is_a_row_of_pair_costs``);
        it stays only because the benchmark's tracer wraps
        ``SatelliteScenario.pair_cost_row`` (ROADMAP item 6), and goes,
        with that test, together with that wrap."""
        return self.pair_costs()[agent - 1].tolist()

    def budgets(self) -> np.ndarray:
        """Each agent's remaining budget as an N-vector.  The one budget
        query a scenario implements."""
        raise NotImplementedError

    def adjacency(self) -> np.ndarray:
        raise NotImplementedError

    def advance(self, claims: np.ndarray) -> None:
        """Advance world dynamics one step, agent k + 1 flying toward
        target ``claims[k]`` (0 = none); a no-op for static worlds."""

    def agent_costs(self, claims: np.ndarray, done: np.ndarray) -> np.ndarray:
        """Per agent, the cost of the pair it holds: ``pair_costs()`` at its
        claim if it is finalized with one, else 0.0.  ``claims`` and
        ``done`` are the driver's N-vectors, int and bool, as the views'
        ``self_entries()`` return them."""
        rows = np.flatnonzero(done & (claims != 0))
        costs = np.zeros(self.n_agents)
        costs[rows] = self.pair_costs()[rows, claims[rows] - 1]
        return costs

    def default_horizon(self) -> int:
        """The most rounds a run on this world takes (a static one: 2N + 2)."""
        return 2 * self.n_agents + 2


class StaticScenario(AllocationScenario):
    """Frozen positions: fixed oracle, N x M cost table (all zero unless
    given), N budgets (all infinite unless given) and communication graph
    (complete unless given).  The scenario keeps its own copies of the
    arrays it is given and makes them read-only, so the queries return the
    same unchanging arrays every time.  ``complete`` says whether every
    pair of distinct agents is linked; it is decided here, once, and only
    ``dgba_run`` reads it, for a world of exactly this type."""

    def __init__(self, oracle: UtilityOracle,
                 costs: Optional[Sequence[Sequence[float]]] = None,
                 budgets: Optional[Sequence[float]] = None,
                 adjacency: Optional[np.ndarray] = None):
        n, m = self.n_agents, self.n_targets = oracle.n_agents, oracle.n_targets
        self._oracle = oracle
        self._costs = np.zeros((n, m)) if costs is None else np.array(costs, dtype=float)
        self._budgets = np.full(n, math.inf) if budgets is None else np.array(budgets, dtype=float)
        if (self._costs.shape, self._budgets.shape) != ((n, m), (n,)):
            raise ConfigurationError("cost table or budgets do not match the oracle's N x M")
        if adjacency is None:
            self._adjacency, self.complete = 1.0 - np.eye(n), True
        else:
            self._adjacency = np.array(adjacency, dtype=float)
            # Links are the entries > 0; a run refuses a nonzero diagonal.
            self.complete = np.count_nonzero(self._adjacency > 0) == n * (n - 1)
        for table in (self._costs, self._budgets, self._adjacency):
            table.flags.writeable = False

    def oracle(self) -> UtilityOracle:
        return self._oracle

    def pair_costs(self, agents: Optional[np.ndarray] = None) -> np.ndarray:
        return self._costs if agents is None else self._costs.take(agents, axis=0)

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


def available_targets(bundle: BundleState, self_id: int,
                      allowed: Sequence[bool]) -> list[int]:
    """Targets an agent may still bid on, ascending: those its row of
    ``allowed_pairs`` allows (``allowed[j - 1]`` for target j) that no
    other agent holds in its view."""
    claimed = {j for i, j in enumerate(bundle.w) if j != 0 and i + 1 != self_id}
    return [j for j, ok in enumerate(allowed, start=1) if ok and j not in claimed]


def dgba_assignment_phase(bundle: BundleState, self_id: int, oracle: UtilityOracle,
                          available: Sequence[int]) -> bool:
    """Greedy claim of the best available target by an unfinalized agent,
    in its own bundle entries.  Returns True if the agent placed a claim,
    False if it had no option (its claim is then cleared); the views
    finalize optionless agents with an empty claim."""
    k = self_id - 1
    if not available:
        bundle.w[k] = 0
        bundle.b[k] = 0.0
        return False
    policy = local_view_policy(bundle, self_id)
    gains = oracle.marginal_gains_for_agent(policy, self_id, available)
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


def dgba_communication_phase(bundles: Sequence[BundleState], linked: np.ndarray) -> None:
    """One synchronous exchange-and-resolve step over all agents, updating
    their bundles in place.

    Every agent's self-entries are read into a snapshot first, and each
    agent's update reads only that snapshot and its own bundle, so the
    result is independent of agent ordering.  An agent finalized before
    the exchange no longer listens: its bundle is left as it is, since no
    one reads it again.  Each other agent copies the
    self-entries of its neighbors (``linked[i][j]`` true), then resolves
    the conflict set of agents claiming its own target: the highest bid
    wins (ties to the lowest agent id), losers are reset in the local view.
    A claim on a target that some agent's view shows as already finalized
    is withdrawn rather than contested: finalized allocations are immutable.

    Resolution runs whether or not the agent has neighbors: an uncontested
    claim (in particular, a claim by an isolated agent) is a singleton
    conflict set that the claimant wins, so conflicts are resolved per
    connected component.  The kernel neither checks the graph nor counts
    messages: ``run_rounds`` does both, once per distinct graph.
    """
    n = len(bundles)
    # Snapshot of every agent's self-entries, broadcast during the exchange.
    self_w = [b.w[k] for k, b in enumerate(bundles)]
    self_b = [b.b[k] for k, b in enumerate(bundles)]
    self_f = [b.f[k] for k, b in enumerate(bundles)]

    for i, row in enumerate(linked.tolist()):
        if self_f[i]:
            continue
        w, b, f = bundles[i].w, bundles[i].b, bundles[i].f
        for j in range(n):
            if row[j]:
                w[j], b[j], f[j] = self_w[j], self_b[j], self_f[j]
        my_target = w[i]
        if my_target != 0:
            holders = [k for k in range(n) if w[k] == my_target]
            if any(f[k] for k in holders if k != i):
                # Yield to an already-finalized holder.
                w[i] = 0
                b[i] = 0.0
            else:
                conflict = [k for k in holders if not f[k]]
                winner = min(conflict, key=lambda k: (-b[k], k))
                f[winner] = 1
                for k in conflict:
                    if k != winner:
                        w[k] = 0
                        b[k] = 0.0


def graph_components(adjacency: np.ndarray) -> list[int]:
    """Connected-component label per agent: 0, 1, ... in the order of each
    component's lowest agent, every label in use.

    Each visited agent's row is masked to the agents not labelled yet, and
    the search stops once none is left, so a complete graph costs one row
    scan."""
    linked = np.asarray(adjacency) > 0
    labels = np.zeros(len(linked), dtype=np.intp)
    unlabeled = np.ones(len(linked), dtype=bool)
    left, current = len(linked), 0
    while left:
        stack = [int(unlabeled.argmax())]  # the lowest unlabelled agent
        unlabeled[stack[0]] = False
        labels[stack[0]] = current
        left -= 1
        while stack and left:
            reached = np.flatnonzero(linked[stack.pop()] & unlabeled)
            unlabeled[reached] = False
            labels[reached] = current
            left -= reached.size
            stack.extend(reached.tolist())
        current += 1
    return labels.tolist()


# ---------------------------------------------------------------------------
# Views: DGBA's three exact implementations, and the auction's state
# ---------------------------------------------------------------------------

def _gain_table(oracle: UtilityOracle, none: float) -> np.ndarray:
    """Each pair's marginal gain on the empty policy, as
    ``marginal_gains_for_agent`` gives it, pair (i, j) at [i - 1, j] of an
    N x (M + 1) array whose column 0 ("none") holds ``none``; for a
    ``TableOracle`` the product value * prob.  On a normalized oracle it is
    the pair's standalone utility.  Both array views bid from it, so a row
    of it is a row of bids by target id."""
    n, m = oracle.n_agents, oracle.n_targets
    table = np.empty((n, m + 1))
    table[:, 0] = none
    if isinstance(oracle, TableOracle):
        np.multiply(np.asarray(oracle.values), oracle.prob_table, out=table[:, 1:])
    else:
        targets = range(1, m + 1)
        for i in range(n):
            row = oracle.marginal_gains_for_agent(frozenset(), i + 1, targets)
            table[i, 1:] = [row[j] for j in targets]
    return table


class AgentViews:
    """Per-agent views: one ``BundleState`` per agent, updated by the
    per-agent phase kernels above.  The reference implementation."""

    def __init__(self, oracle: UtilityOracle):
        self.oracle = oracle
        n = oracle.n_agents
        self.bundles = [BundleState(w=[0] * n, b=[0.0] * n, f=[0] * n) for _ in range(n)]

    def self_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Each agent's own claim (0 = none) and whether it is finalized,
        as fresh N-vectors, int and bool."""
        return (np.array([b.w[k] for k, b in enumerate(self.bundles)], dtype=np.intp),
                np.array([b.f[k] for k, b in enumerate(self.bundles)], dtype=bool))

    def assign(self, rows: np.ndarray, allowed: np.ndarray) -> None:
        """Phase I for the unfinalized agents ``rows`` (0-based), agent
        ``rows[r]`` allowed the targets of ``allowed[r]``.  Agents with
        nothing available finalize with an empty claim."""
        for k, row in zip(rows.tolist(), allowed.tolist()):
            bundle = self.bundles[k]
            avail = available_targets(bundle, k + 1, row)
            if not dgba_assignment_phase(bundle, k + 1, self.oracle, avail):
                bundle.f[k] = 1

    def communicate(self, linked: np.ndarray, components: Sequence[int]) -> int:
        """Phase II: one exchange over the links, updating each agent's
        bundle in place (``dgba_communication_phase``); returns 1, the
        exchanges made."""
        dgba_communication_phase(self.bundles, linked)
        return 1


class ArrayViews:
    """Team-wide views of the live agents, those not finalized by the last
    exchange: ``live`` holds their 0-based ids in ascending order, and row
    r of the L x N arrays ``w`` (int32 targets), ``b`` (float bids) and
    ``f`` (bool finals) is agent ``live[r]``'s view.  ``self_w``,
    ``self_b`` and ``self_f`` hold every agent's self-entries as
    N-vectors: what the exchange broadcasts and ``self_entries`` reports.
    A finalized agent's view is never read again, so phase II drops its
    row; the arrays shrink as agents finalize.  Phase I bids from the
    N x (M + 1) table ``bids``, built once, with -inf for "none".  Each
    phase is a few array operations with the same results as
    ``AgentViews``, bids included to the last bit."""

    def __init__(self, oracle: UtilityOracle):
        n = oracle.n_agents
        self.live = np.arange(n)
        self.w = np.zeros((n, n), dtype=np.int32)
        self.b = np.zeros((n, n))
        self.f = np.zeros((n, n), dtype=bool)
        self.self_w = np.zeros(n, dtype=np.int32)
        self.self_b = np.zeros(n)
        self.self_f = np.zeros(n, dtype=bool)
        # Bids by target id.  No one else holds an available target in the
        # agent's view, so its marginal gain is the gain on the empty policy;
        # column 0 ("none") is -inf, the first maximum only of a row with
        # nothing available.
        self.bids = _gain_table(oracle, -np.inf)

    def self_entries(self) -> tuple[np.ndarray, np.ndarray]:
        return self.self_w.astype(np.intp), self.self_f.copy()

    def assign(self, rows: np.ndarray, allowed: np.ndarray) -> None:
        """Phase I with the rules and arguments of ``AgentViews.assign``;
        ``rows`` are the live agents, as the driver passes them."""
        if rows.size != self.live.size:
            raise ContractViolation("phase I rows are not the live agents")
        r = np.arange(rows.size)
        # Each row's bids, -inf where the target is not allowed or another
        # agent holds it in the view.  A live agent's own entry is 0 (after
        # each exchange a live agent has lost or withdrawn its claim), and
        # the held "none" entries land on column 0, which is -inf already.
        # Before the first exchange no view holds a claim, and nothing is
        # masked.
        bids = self.bids[rows]
        np.copyto(bids[:, 1:], -np.inf, where=~allowed)
        if self.w.any():
            bids[r[:, None], self.w] = -np.inf
        best = bids.argmax(axis=1)  # first maximum: lowest target id
        bid = bids[r, best]
        idle = best == 0  # nothing available: finalize with an empty claim
        bid[idle] = 0.0
        for view, own in ((self.w, best), (self.b, bid), (self.f, idle)):
            view[r, rows] = own
        self.self_w[rows], self.self_b[rows], self.self_f[rows] = best, bid, idle

    def communicate(self, linked: np.ndarray, components: Sequence[int]) -> int:
        """Phase II with the rules of ``dgba_communication_phase``, then the
        rows of the agents that finalized are dropped; returns 1, the
        exchanges made."""
        live = self.live
        heard = linked[live]
        np.copyto(self.w, self.self_w, where=heard)
        np.copyto(self.b, self.self_b, where=heard)
        np.copyto(self.f, self.self_f, where=heard)
        # Resolution runs over whole rows: each row's holders of its own
        # claim, with the rows of idle agents (claiming 0) cleared.
        own = self.self_w[live]
        claiming = own != 0
        holders = self.w == own[:, None]
        holders[~claiming] = False
        # Withdraw claims on a target some holder has finalized in the view.
        yields = (holders & self.f).any(axis=1)
        holders[yields] = False
        y = np.flatnonzero(yields)
        self.w[y, live[y]] = 0
        self.b[y, live[y]] = 0.0
        # Highest bid wins, ties to the lowest agent id; losers are reset.
        winner = np.where(holders, self.b, -np.inf).argmax(axis=1)
        r = np.flatnonzero(claiming & ~yields)
        self.f[r, winner[r]] = True
        holders[r, winner[r]] = False
        np.copyto(self.w, 0, where=holders)
        np.copyto(self.b, 0.0, where=holders)
        # Only an agent's own row changes its self-entries.
        r = np.arange(live.size)
        self.self_w[live] = self.w[r, live]
        self.self_b[live] = self.b[r, live]
        self.self_f[live] = finals = self.f[r, live]
        if finals.any():
            keep = ~finals
            self.live = live[keep]
            self.w, self.b, self.f = self.w[keep], self.b[keep], self.f[keep]
        return 1


class CompleteGraphViews:
    """Team-wide views on a complete graph, kept as the broadcast alone:
    the N-vectors ``self_w``, ``self_b`` and ``self_f`` of every agent's
    self-entries, the M-vector ``held`` (the targets held in every live
    agent's view) and the bid table ``bids`` of ``ArrayViews``.  The
    state is 3N + M entries besides the bid table, whatever L is.

    It is exact because every live agent hears every other agent in each
    exchange: after phase II a live agent's view is the broadcast with only
    its own target's conflict resolved.  A live agent has lost or withdrawn
    its claim by then, so its own entry is 0, and the targets held in its
    view are exactly the nonzero broadcast claims, the same set for every
    live agent.  Each phase gives the self-entries of ``AgentViews``, bids
    to the last bit; ``communicate`` refuses a graph that is not complete.
    """

    def __init__(self, oracle: UtilityOracle):
        n = oracle.n_agents
        self.self_w = np.zeros(n, dtype=np.int32)
        self.self_b = np.zeros(n)
        self.self_f = np.zeros(n, dtype=bool)
        self.held = np.zeros(oracle.n_targets, dtype=bool)
        self.bids = _gain_table(oracle, -np.inf)

    def self_entries(self) -> tuple[np.ndarray, np.ndarray]:
        return self.self_w.astype(np.intp), self.self_f.copy()

    def assign(self, rows: np.ndarray, allowed: np.ndarray) -> None:
        """Phase I with the rules and arguments of ``AgentViews.assign``:
        each row's bids, -inf where the target is not allowed or is held,
        and the first maximum, so ties go to the lowest target id."""
        bids = self.bids[rows]
        np.copyto(bids[:, 1:], -np.inf, where=~allowed | self.held)
        claim = bids.argmax(axis=1)
        bid = bids[np.arange(rows.size), claim]
        idle = claim == 0  # nothing available: finalize with an empty claim
        bid[idle] = 0.0
        self.self_w[rows], self.self_b[rows], self.self_f[rows] = claim, bid, idle

    def communicate(self, linked: np.ndarray, components: Sequence[int]) -> int:
        """Phase II with the rules of ``dgba_communication_phase``, each
        target resolved once over its claimers; returns 1, the exchanges
        made."""
        n = self.self_w.size
        if np.count_nonzero(linked) != n * (n - 1):
            raise ContractViolation("complete-graph views need every pair of agents linked")
        claimers = np.flatnonzero((self.self_w != 0) & ~self.self_f)
        targets = self.self_w[claimers]
        # A claim on a target a finalized agent holds is withdrawn.  Of the
        # rest, per target, the highest bid wins, ties to the lowest agent id.
        contest = ~self.held[targets - 1]
        agents, targets = claimers[contest], targets[contest]
        order = np.lexsort((agents, -self.self_b[agents], targets))
        ranked = targets[order]
        first = np.ones(ranked.size, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        self.self_f[agents[order[first]]] = True
        losers = claimers[~self.self_f[claimers]]
        self.self_w[losers] = 0
        self.self_b[losers] = 0.0
        self.held[targets - 1] = True
        return 1


class AuctionViews:
    """The flooding auction's state: each agent's won target (0 = none),
    whether it is done, and, as row i of the N x M ``taken``, the won
    targets agent i has heard of.  Knowledge of won targets spreads only
    through the flooding, so disconnected components can duplicate
    targets.  Nothing of the graph is kept between rounds: each
    ``communicate`` call reads the links and labels it is given."""

    def __init__(self, oracle: UtilityOracle):
        n, m = oracle.n_agents, oracle.n_targets
        self.target = np.zeros(n, dtype=np.intp)
        self.done = np.zeros(n, dtype=bool)
        self.taken = np.zeros((n, m), dtype=bool)
        # Bids by target id: each pair's gain on the empty policy, and 0.0
        # for "none" (column 0), so a row with no positive bid picks it.
        self.bids = _gain_table(oracle, 0.0)
        # This round's bids, as bidder, target index and rank.
        self.bidders = self.bid_targets = self.ranks = np.zeros(0, dtype=np.intp)

    def self_entries(self) -> tuple[np.ndarray, np.ndarray]:
        return self.target.copy(), self.done.copy()

    def assign(self, rows: np.ndarray, allowed: np.ndarray) -> None:
        """Bidding.  Every agent not done (``rows``) bids its best pair's
        gain on the empty policy, which is the pair's standalone utility
        (ignoring what the allocation already covers; ties to the lowest
        target id), on a target it has not heard is won and that its row
        of ``allowed`` allows.  An agent with no positive bid is done, with
        no target."""
        # Each row's bids, 0.0 where the target is not allowed or heard to
        # be won.
        bids = self.bids[rows]
        np.copyto(bids[:, 1:], 0.0, where=~allowed | self.taken[rows])
        best = bids.argmax(axis=1)  # first maximum: lowest target id
        bid = bids[np.arange(rows.size), best]
        placed = best != 0
        self.done[rows[~placed]] = True
        self.bidders, self.bid_targets = rows[placed], best[placed] - 1
        # Rank 0 is the highest bid; ties go to the lowest agent id.
        self.ranks = np.empty(placed.sum(), dtype=np.intp)
        self.ranks[np.argsort(-bid[placed], kind="stable")] = np.arange(self.ranks.size)

    def communicate(self, linked: np.ndarray, components: Sequence[int]) -> int:
        """Flooding.  Each sweep sends every agent's tables over every edge
        and keeps, per agent and target, the best bid heard and whether the
        target is heard to be won; sweeps repeat until no table changes.
        Each bidder whose own table then names it top bidder on a target
        not heard to be won wins it.  Returns the sweeps made.  Each call
        derives what it needs of the graph from its arguments alone.

        The sweeps are not run one by one.  After k sweeps an agent's entry
        is the minimum over its k-hop ball, so on a symmetric graph the
        tables settle on each entry's minimum over the agent's component
        (``components`` labels them as ``graph_components`` does).  They
        settle after D sweeps, D being the largest hop distance from an
        agent to the nearest agent that starts with that minimum; one more
        sweep sees no change, so the loop made D + 1 sweeps.  D is found by
        growing the set of entries that hold their final value one hop at a
        time."""
        n, m = self.taken.shape
        labels = np.asarray(components)
        order = np.argsort(labels, kind="stable")
        starts = np.searchsorted(labels[order], np.arange(labels.max() + 1))
        reach = (linked | np.eye(n, dtype=bool)).astype(float)
        # Per agent: the best bid rank heard per target (n = none), then per
        # target 0 if heard to be won, else 1.  A sweep keeps the minimum of
        # each entry over the agent and its neighbours.
        tables = np.hstack([np.full((n, m), n), ~self.taken])
        tables[self.bidders, self.bid_targets] = self.ranks
        final = np.minimum.reduceat(tables[order], starts, axis=0)[labels]
        # Only the columns some agent does not yet hold take part.
        know = tables == final
        know = know[:, ~know.all(axis=0)].astype(float)
        sweeps = 1
        while not know.all():
            if sweeps > n:  # every hop distance in a component is below n
                raise ContractViolation("component labels do not match the graph")
            know = ((reach @ know) > 0).astype(float)
            sweeps += 1
        self.taken = final[:, m:] == 0
        bids = self.bidders, self.bid_targets
        won = (final[bids] == self.ranks) & ~self.taken[bids]
        winners, targets = self.bidders[won], self.bid_targets[won]
        self.target[winners] = targets + 1
        self.done[winners] = True
        self.taken[winners, targets] = True
        return sweeps


# ---------------------------------------------------------------------------
# The full protocol run
# ---------------------------------------------------------------------------

def _round_groups(newly: list[tuple[int, int, float]], components: list[int],
                  before_utility: float, after) -> tuple[DecisionGroup, ...]:
    """Newly finalized agents grouped by component; ``before_utility`` is
    the utility before the round and ``after(members)`` the utility with
    only the group's (agent, target, delta) pairs added."""
    groups: dict[int, list[tuple[int, int, float]]] = {}
    for agent, target, delta in newly:
        groups.setdefault(components[agent - 1], []).append((agent, target, delta))
    return tuple(DecisionGroup(
        agents=tuple(a for a, _, _ in members),
        targets=tuple(t for _, t, _ in members),
        sum_deltas=sum(d for _, _, d in members),
        increment=after(members) - before_utility,
    ) for members in groups.values())


class _TableTally:
    """A ``TableOracle`` policy's per-target miss products and utilities,
    kept across rounds so that a round touches only its new pairs' targets.
    They have the bits of ``target_utilities`` while no target has three
    holders: a product of two miss factors commutes, but one of three
    depends on the policy's iteration order.  Probabilities are read from
    ``prob_table`` as Python floats, the bits of ``probs``."""

    def __init__(self, oracle: TableOracle):
        self.values, self.prob_table = oracle.values, oracle.prob_table
        self.miss = [1.0] * oracle.n_targets
        self.utils = oracle.target_utilities(frozenset())
        self.holders = [0] * oracle.n_targets

    def admit(self, pairs) -> bool:
        """Count the pairs' holders; False once some target has three."""
        for _, j in pairs:
            self.holders[j - 1] += 1
        return all(self.holders[j - 1] < 3 for _, j in pairs)

    def deltas(self, pairs) -> list[tuple[int, int, float]]:
        """Each pair's ``marginal_gain`` on the policy so far."""
        values, probs, miss, utils = self.values, self.prob_table, self.miss, self.utils
        return [(i, j, max(0.0, values[j - 1] * (1.0 - miss[j - 1] * (1.0 - probs.item(i - 1, j - 1)))
                           - utils[j - 1])) for i, j in pairs]

    def with_pairs(self, newly) -> tuple[list[float], list[float]]:
        """Per-target utilities and miss products with ``newly``'s pairs added."""
        utils, miss = list(self.utils), list(self.miss)
        for i, j, _ in newly:
            miss[j - 1] *= 1.0 - self.prob_table.item(i - 1, j - 1)
            utils[j - 1] = self.values[j - 1] * (1.0 - miss[j - 1])
        return utils, miss

    def add(self, newly) -> float:
        """Add the pairs for good; returns the utility, ``evaluate``'s sum."""
        self.utils, self.miss = self.with_pairs(newly)
        return sum(self.utils, 0.0)


def _held_pairs(claims: np.ndarray, mask: np.ndarray) -> list[GroundElement]:
    """The pairs of the agents in ``mask`` that hold a target, in agent
    order: the insertion order of every policy the driver builds."""
    rows = mask.nonzero()[0]
    return [GroundElement(k + 1, j) for k, j in zip(rows.tolist(), claims[rows].tolist()) if j]


# A run's phase clocks; ``components`` includes the work per distinct graph.
PHASES = ("assignment", "communication", "implementation", "components", "bookkeeping")


def _is_static(scenario: AllocationScenario) -> bool:
    """Whether a world cannot change during a run: its type is exactly
    ``StaticScenario``, no method of which changes its read-only costs,
    budgets or graph.  A subclass may, so it is not static."""
    return type(scenario) is StaticScenario


def dgba_run(scenario: AllocationScenario,
             constraints: Optional[IndependenceSystem] = None) -> SolverResult:
    """Run the distributed bundles protocol to completion.

    Phases run in lockstep each round: assignment, communication, then
    implementation (world dynamics and a fresh adjacency).  The run stops
    once every agent is finalized, or after the world's ``default_horizon()``.

    Bids, trace deltas and the utility series all use the scenario's
    oracle as it is when the run starts, so the per-round increment
    identities hold even while the world moves underneath.

    Teams of ``ARRAY_VIEWS_MIN_AGENTS`` or more keep their views as arrays,
    smaller ones per agent (``AgentViews``).  Of the array forms, a static
    world (type exactly ``StaticScenario``) whose graph is complete gets
    ``CompleteGraphViews``, which keeps the broadcast alone; every other
    world gets ``ArrayViews``.  The results are the same either way.
    """
    if scenario.n_agents < ARRAY_VIEWS_MIN_AGENTS:
        views = AgentViews
    elif _is_static(scenario) and scenario.complete:
        views = CompleteGraphViews
    else:
        views = ArrayViews
    return run_rounds(views, scenario, constraints)


def run_rounds(views_type, scenario: AllocationScenario,
               constraints: Optional[IndependenceSystem] = None) -> SolverResult:
    """The round driver of both distributed solvers, over the given views
    type: ``AgentViews``, ``ArrayViews`` or ``CompleteGraphViews`` for
    ``dgba_run``, ``AuctionViews`` for ``auction_baseline``.  The
    scenario's oracle is read once, before round 0, and scores every round,
    of ``scenario.default_horizon()`` at most.

    The driver alone queries the world and applies the allowed-pair rule;
    the views only keep protocol state and decide.  One test, made before
    round 0, says what the driver reads once: a world whose type is
    exactly ``StaticScenario`` is static (``_is_static``, which ``dgba_run``
    asks too), as no method of that class changes its read-only costs,
    budgets or graph.  A static world's N x M allowed mask is built once
    per run from ``pair_costs()``, and its graph is read once, in round 0.
    Any other world, a subclass included, is asked for its cost rows and
    its graph each round.  The views and the driver trade plain values,
    never state objects:

    - ``views_type(oracle)`` is built once, before round 0, and may
      tabulate its bids; the driver then reads ``scenario.budgets()``, once.
    - ``assign(rows, allowed)`` is phase I, in each round that still has
      bidders: ``rows`` are their 0-based ids, from the driver's ``done``
      vector, and row r of the boolean ``allowed`` is ``allowed_pairs`` of
      ``scenario.pair_costs(rows)`` and the start budgets for agent
      ``rows[r]`` (on a static world, that row of the mask built once).
    - ``communicate(linked, components)`` is phase II over the round's
      graph and returns the exchanges it made: 1 for DGBA, the flooding
      sweeps for the auction.  ``linked`` is the boolean N x N array
      ``graph > 0`` of a graph the driver has passed through
      ``_check_adjacency``, ``components`` the component label per agent
      (only the auction reads them).  The result depends on the values of
      the arguments only.
    - ``self_entries()`` returns fresh N-vectors: each agent's claim (int,
      0 = none) and whether it is done (bool).  Later calls to the views
      leave them as they are.

    The driver owns the graph: it checks, links, labels and counts the
    directed edges of each distinct graph once.  The graph of a world that
    is not static is compared by value each round with the driver's copy
    of the last one, so a graph edited in place is seen.  A message is one
    agent's state sent over one directed edge in one exchange, so a
    round's ``messages`` is its exchanges times the graph's edges, and
    ``rounds`` sums the exchanges.  The ``(claims, done)`` vectors are
    the driver's one allocation state, passed as they are to
    ``scenario.advance(claims)`` (phase III) and
    ``scenario.agent_costs(claims, done)``; records hold the pairs each
    round finalized, and policies are built from the claims in agent order.

    ``phase_times`` holds seconds per phase: the three protocol phases
    (``assignment`` includes building the views, the budget read and the
    cost queries, ``implementation`` the oracle read and the argument
    checks), ``components`` (checking, linking, labelling and counting
    each distinct communication graph) and ``bookkeeping`` (trace records,
    utilities and costs, kept by a ``_TableTally`` for a ``TableOracle``).
    ``lap`` charges the time since the previous clock read to the phase it
    ends, so the intervals tile the run.
    """
    clock = time.perf_counter
    phase_times = dict.fromkeys(PHASES, 0.0)
    last = clock()

    def lap(phase: str) -> None:
        nonlocal last
        now = clock()
        phase_times[phase] += now - last
        last = now

    oracle = scenario.oracle()
    if constraints is not None and (
        constraints.n_agents != scenario.n_agents
        or constraints.n_targets != scenario.n_targets
    ):
        raise ConfigurationError("constraint dimensions do not match scenario")
    if (oracle.n_agents, oracle.n_targets) != (scenario.n_agents, scenario.n_targets):
        raise ConfigurationError("oracle dimensions do not match scenario")
    max_rounds = scenario.default_horizon()
    if max_rounds < 1:
        raise ConfigurationError("default_horizon() must be at least 1")
    lap("implementation")

    views = views_type(oracle)
    budgets = scenario.budgets()
    # A plain StaticScenario cannot change: its mask is built once and its
    # rows indexed each round, and its graph is read once, in round 0.
    static = _is_static(scenario)
    allowed = allowed_pairs(scenario.pair_costs(), budgets) if static else None
    claims, done = views.self_entries()
    lap("assignment")
    tally = _TableTally(oracle) if isinstance(oracle, TableOracle) else None
    trace: list[RoundRecord] = []
    protocol_rounds = 0
    utility = 0.0
    graph = None
    lap("bookkeeping")

    for t in range(max_rounds):
        if t == 0 or not static:
            adjacency = scenario.adjacency()
            lap("implementation")
            if graph is None or not np.array_equal(adjacency, graph):
                checked = _check_adjacency(adjacency, scenario.n_agents)
                graph = checked if static else np.array(checked)
                linked = graph > 0
                edges = int(np.count_nonzero(linked))
                components = graph_components(linked)
            lap("components")
        before_utility, claims_before, done_before = utility, claims, done
        round_messages = 0
        # The agents still bidding (``nonzero`` costs less than
        # ``flatnonzero`` per call, which small teams feel).
        rows = (~done).nonzero()[0]

        if rows.size:  # Phase I
            views.assign(rows, allowed[rows] if allowed is not None
                         else allowed_pairs(scenario.pair_costs(rows), budgets[rows]))
            lap("assignment")
            exchanges = views.communicate(linked, components)  # Phase II
            protocol_rounds += exchanges
            round_messages = exchanges * edges
            lap("communication")

        # Phase III: world dynamics.
        claims, done = views.self_entries()
        scenario.advance(claims)
        lap("implementation")

        fresh = _held_pairs(claims, done & ~done_before)  # finalized this round
        if tally is not None:
            check_bounds(fresh, oracle.n_agents, oracle.n_targets)
            if not tally.admit(fresh):  # a third holder: the plain path from now on
                tally = None
        if tally is not None:
            newly = tally.deltas(fresh)
            after = lambda members: sum(tally.with_pairs(members)[0])
        else:
            # Three-factor gains depend on order: take them on agent-order policies.
            before = frozenset(_held_pairs(claims_before, done_before))
            policy = frozenset(_held_pairs(claims, done))
            newly = [(el.agent, el.target, marginal_gain(oracle, before, el)) for el in fresh]
            after = lambda members: oracle.evaluate(
                before | frozenset(GroundElement(a, j) for a, j, _ in members))
        groups = _round_groups(newly, components, before_utility, after)
        utility = tally.add(newly) if tally is not None else oracle.evaluate(policy)
        per_agent_cost = scenario.agent_costs(claims, done)
        trace.append(RoundRecord(
            round=t,
            newly_finalized=tuple(newly),
            groups=groups,
            increment=utility - before_utility,
            utility=utility,
            messages=round_messages,
            cumulative_cost=float(np.sum(per_agent_cost)),
        ))
        lap("bookkeeping")

        if done.all():
            break

    policy = frozenset(_held_pairs(claims, done))
    if constraints is not None and not constraints.is_independent(policy):
        raise ContractViolation("protocol produced an infeasible policy")
    lap("bookkeeping")
    return SolverResult(
        policy=policy,
        utility=utility,
        per_agent_cost=per_agent_cost,
        rounds=protocol_rounds,
        messages=sum(rec.messages for rec in trace),
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
    ``oracle.ground_set()``.

    Relies on heredity: a pair that would make the policy dependent keeps
    doing so as the policy grows, so it is dropped for the remaining steps,
    as is each pair once chosen."""
    candidates = list(oracle.ground_set())
    policy: Policy = frozenset()
    while True:
        best_el, best_gain = None, 0.0
        feasible = []
        for el in candidates:
            if not constraints.is_independent(policy | {el}):
                continue
            feasible.append(el)
            g = marginal_gain(oracle, policy, el)
            if g > best_gain:
                best_el, best_gain = el, g
        if best_el is None:
            break
        policy = policy | {best_el}
        candidates = [el for el in feasible if el != best_el]
    return SolverResult(
        policy=policy,
        utility=oracle.evaluate(policy),
        per_agent_cost=np.zeros(oracle.n_agents),
        rounds=len(policy),
        messages=0,
    )


def exact_oracle(oracle: UtilityOracle,
                 constraints: IndependenceSystem) -> SolverResult:
    """Exact optimum over every agent-to-target-or-none mapping.

    A depth-first search assigns agents 1..N in turn, each trying target 0
    (none) first and then 1..M, so the mappings are reached in lexicographic
    order and only a strictly better utility replaces the incumbent.  Each
    nonzero choice is checked for independence, and a dependent one prunes
    its whole subtree: the system is hereditary, so no mapping extending a
    dependent one is independent.  A choice of none leaves the policy as it
    was and needs no check.
    """
    n, m = oracle.n_agents, oracle.n_targets
    if (m + 1) ** n > EXACT_SEARCH_CAP:
        raise SizeLimitExceeded(
            f"({m} + 1) ** {n} mappings exceed the exact-search cap"
        )
    best_policy: Policy = frozenset()
    best_utility = 0.0
    assignment = [0] * n

    def extend(agent: int, prefix: Policy) -> None:
        nonlocal best_policy, best_utility
        if agent > n:
            policy = frozenset(
                GroundElement(i, j) for i, j in enumerate(assignment, start=1) if j != 0
            )
            u = oracle.evaluate(policy)
            if u > best_utility:
                best_policy, best_utility = policy, u
            return
        extend(agent + 1, prefix)
        for j in range(1, m + 1):
            grown = prefix | {GroundElement(agent, j)}
            if constraints.is_independent(grown):
                assignment[agent - 1] = j
                extend(agent + 1, grown)
        assignment[agent - 1] = 0

    extend(1, frozenset())
    return SolverResult(
        policy=best_policy,
        utility=best_utility,
        per_agent_cost=np.zeros(n),
        rounds=0,
        messages=0,
    )


def auction_baseline(scenario: AllocationScenario) -> SolverResult:
    """Simplified flooding auction used as a communication-cost yardstick.

    Per round, every unassigned agent bids its best standalone utility (the
    target's value times the pair's success probability, ignoring what the
    current allocation already covers), bids and the set of already-won
    targets are flooded over the current graph until every agent's local
    tables stabilize, and each target's top bidder within a component is
    fixed.  The rounds run on the driver of ``dgba_run`` (``run_rounds``
    over ``AuctionViews``, bounded by the world).  ``rounds`` counts
    flooding sweeps, so it grows with graph diameter.
    """
    return run_rounds(AuctionViews, scenario)


# ---------------------------------------------------------------------------
# Trace property checks
# ---------------------------------------------------------------------------

@dataclass
class TraceCheck:
    ok: bool
    failures: list[str]


def check_allocation_trace(trace: Sequence[RoundRecord], final_policy: Policy) -> TraceCheck:
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
            if abs(g.increment - g.sum_deltas) > TRACE_TOL:
                failures.append(
                    f"round {rec.round}: component increment {g.increment!r} != "
                    f"sum of gains {g.sum_deltas!r} for agents {g.agents}"
                )
        targets = [j for _a, j, _d in rec.newly_finalized]
        if len(targets) == len(set(targets)):
            total = sum(g.sum_deltas for g in rec.groups)
            if abs(rec.increment - total) > TRACE_TOL:
                agents = tuple(a for a, _j, _d in rec.newly_finalized)
                failures.append(
                    f"round {rec.round}: round increment {rec.increment!r} != "
                    f"sum of gains {total!r} for agents {agents}"
                )
    assigned = {el.agent for el in final_policy}
    if seen != assigned:
        failures.append(
            f"finalized agents {sorted(seen)} != assigned agents {sorted(assigned)}"
        )
    return TraceCheck(ok=not failures, failures=failures)
