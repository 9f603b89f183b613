"""Satellite observation scenario: dynamics, controller, utility, costs.

Agents are double integrators steered by a closed-form minimum-effort
rendezvous law toward a circle of given radius around their assigned
target; targets drift under linear velocity drag.  The observation utility
of a target is its information value times the probability that at least
one assigned agent survives the approach, with per-agent survival decaying
exponentially in distance.  Control effort (half the integral of squared
acceleration) is the cost charged against each agent's fuel budget.

Distances, times and accelerations are unitless; the spatial domain is an
axis-aligned box whose diagonal is the domain diameter used by the
communication-range rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ContractViolation, Policy, TableOracle
from .solvers import AllocationScenario


class NumericalBlowupError(RuntimeError):
    """Integration produced a non-finite state."""


# ---------------------------------------------------------------------------
# Utility model
# ---------------------------------------------------------------------------

def survival_probability(agent_pos, target_pos, decay: float) -> float:
    """exp(-decay * distance); 1 at zero distance, strictly decreasing."""
    if decay <= 0:
        raise ContractViolation("decay factor must be positive")
    d = float(np.linalg.norm(np.asarray(agent_pos, float) - np.asarray(target_pos, float)))
    return math.exp(-decay * d)


def observation_utility(policy: Policy,
                        agent_positions: Sequence,
                        target_positions: Sequence,
                        info_values: Sequence[float],
                        decays: Sequence[float]) -> tuple[float, list[float]]:
    """Total observation utility of a policy plus the per-target terms.

    Target j contributes value_j * (1 - prod over assigned agents of
    (1 - survival)).  The empty policy is worth exactly 0.
    """
    per_target = []
    for j, (q, rho, lam) in enumerate(zip(target_positions, info_values, decays), start=1):
        miss = 1.0
        for el in policy:
            if el.target == j:
                miss *= 1.0 - survival_probability(agent_positions[el.agent - 1], q, lam)
        per_target.append(rho * (1.0 - miss))
    return sum(per_target), per_target


def position_oracle(agent_positions: Sequence,
                    target_positions: Sequence,
                    info_values: Sequence[float],
                    decays: Sequence[float]) -> TableOracle:
    """Freeze the observation utility at the given positions: entry (i, j)
    of the table is ``survival_probability`` of agent i for target j."""
    lam = np.asarray(decays, dtype=float)
    if (lam <= 0).any():
        raise ContractViolation("decay factor must be positive")
    p = np.asarray(agent_positions, dtype=float).reshape(-1, 3)
    q = np.asarray(target_positions, dtype=float).reshape(-1, 3)
    exponents = -lam * _row_norms(p[:, None, :] - q[None, :, :])
    probs = np.fromiter(map(math.exp, exponents.ravel().tolist()),
                        dtype=float, count=exponents.size)
    return TableOracle(values=info_values, probs=probs.reshape(exponents.shape))


# The world is advanced as arrays, one pass over all bodies per step, and
# must give the same bits as the per-body helpers below (``step_agent``,
# ``rendezvous_point``, ``rendezvous_control``, ``survival_probability``).
# Three numpy forms do not:
#   - ``np.linalg.norm(x, axis=-1)`` sums the squares in another order than
#     the 1-D norm, a BLAS dot, and differs in about 12% of rows;
#     ``_row_norms`` takes the dot of each row through a stacked matmul.
#   - ``np.exp`` differs from ``math.exp`` in about 5% of cases, so
#     exponentials are taken per entry with ``math.exp``.
#   - numpy's ``t ** 2`` differs from Python's in about 0.07% of cases, so
#     the controller gains are formed from Python floats.
# The closed form of RK4 under a constant control is not bit-identical to
# the RK4 arithmetic either, so the steps keep that arithmetic.

def _row_dots(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of ``x`` (rows along the last axis), equal
    bit for bit to ``row @ row`` on that row alone."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Norm of each row of ``x``, equal bit for bit to ``np.linalg.norm``
    of that row alone."""
    return np.sqrt(_row_dots(x))


# ---------------------------------------------------------------------------
# Bodies
# ---------------------------------------------------------------------------

@dataclass
class AgentBody:
    """Kinematic and resource state of one satellite."""

    position: np.ndarray
    velocity: np.ndarray
    comm_factor: float
    fuel: float
    accrued_cost: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)


@dataclass
class TargetBody:
    """State and observation parameters of one target."""

    position: np.ndarray
    velocity: np.ndarray
    info_value: float      # > 0, reward for a completed observation
    decay: float           # survival-probability decay with distance
    end_time: float        # observation window closes here
    obs_duration: float    # time spent loitering on the circle
    obs_radius: float      # radius of the observation circle
    drag_coeff: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.final_time <= 0:
            raise ContractViolation("observation window closes before it opens")
        if self.obs_radius <= 0:
            raise ContractViolation("observation radius must be positive")

    @property
    def final_time(self) -> float:
        """Rendezvous deadline: window end minus the observation duration."""
        return self.end_time - self.obs_duration


def predict_target(target: TargetBody, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic drag propagation of a target state by ``horizon`` time units."""
    k = target.drag_coeff
    w0 = target.velocity
    if k > 0:
        decay = math.exp(-k * horizon)
        pos = target.position + w0 * (1.0 - decay) / k
        vel = w0 * decay
    else:
        pos = target.position + w0 * horizon
        vel = w0.copy()
    return pos, vel


def rendezvous_point(agent_pos, target: TargetBody,
                     time_now: float) -> tuple[np.ndarray, np.ndarray]:
    """Point on the observation circle to steer for, and its velocity.

    The target state is propagated to the rendezvous deadline and the
    aim point is the spot on the observation circle nearest the agent's
    current position (an arbitrary fixed axis breaks the dead-center case).
    """
    q_hat, w_hat = predict_target(target, target.final_time - time_now)
    offset = np.asarray(agent_pos, float) - q_hat
    norm = np.linalg.norm(offset)
    if norm < 1e-12:
        offset, norm = np.array([1.0, 0.0, 0.0]), 1.0
    return q_hat + target.obs_radius * offset / norm, w_hat


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------

def rendezvous_control(position, velocity, point, point_velocity,
                       time_now: float, deadline: float,
                       min_horizon: float = 1e-6) -> np.ndarray:
    """Minimum-effort acceleration steering to (point, point_velocity) by
    the deadline.  The time-to-go is floored at ``min_horizon`` so the
    gains stay finite as the deadline is reached."""
    p = np.asarray(position, float)
    v = np.asarray(velocity, float)
    r_hat = np.asarray(point, float)
    v_hat = np.asarray(point_velocity, float)
    tau = max(deadline - time_now, min_horizon)
    return 4.0 / tau * (v_hat - v) + 6.0 / tau ** 2 * (r_hat - p - v_hat * tau)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def _rk4(state: np.ndarray, deriv, dt: float) -> np.ndarray:
    k1 = deriv(state)
    k2 = deriv(state + 0.5 * dt * k1)
    k3 = deriv(state + 0.5 * dt * k2)
    k4 = deriv(state + dt * k3)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_agent(position, velocity, accel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-step RK4 advance of a double integrator under a control
    held constant over the step (for which RK4 is exact)."""
    u = np.asarray(accel, float)
    state = np.concatenate([position, velocity])
    out = _rk4(state, lambda s: np.concatenate([s[3:], u]), dt)
    return out[:3], out[3:]


def step_target(position, velocity, drag_coeff: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-step RK4 advance of a drag-decelerated drifting target."""
    k = drag_coeff
    state = np.concatenate([position, velocity])
    out = _rk4(state, lambda s: np.concatenate([s[3:], -k * s[3:]]), dt)
    return out[:3], out[3:]


def step_dynamics(agent_states: np.ndarray, controls: np.ndarray,
                  accrued_cost: np.ndarray, fuel: np.ndarray,
                  target_states: np.ndarray, drag_coeffs: Sequence[float],
                  dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance every body one RK4 step; returns the new agent and target
    states (rows of position then velocity, N x 6 and M x 6) and the control
    cost charged to each agent.

    Row for row this is ``step_agent`` and ``step_target``.  Controls (N x 3)
    are held constant over the step; the cost increment per agent is
    0.5 * |u|^2 * dt.  An agent whose cost increment would exceed its
    remaining fuel coasts instead (u = 0, no charge).
    """
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    u = np.asarray(controls, dtype=float)
    inc = 0.5 * _row_dots(u) * dt
    out_of_fuel = accrued_cost + inc > fuel
    u = np.where(out_of_fuel[:, None], 0.0, u)
    inc = np.where(out_of_fuel, 0.0, inc)
    agents = _rk4(agent_states, lambda s: np.concatenate([s[:, 3:], u], axis=1), dt)
    minus_k = -np.asarray(drag_coeffs, dtype=float)[:, None]
    targets = _rk4(target_states,
                   lambda s: np.concatenate([s[:, 3:], minus_k * s[:, 3:]], axis=1), dt)
    for kind, states in (("agent", agents), ("target", targets)):
        bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
        if bad.size:
            raise NumericalBlowupError(
                f"non-finite {kind} state after step: row {bad[0]} = {states[bad[0]]}"
            )
    return agents, targets, inc


# ---------------------------------------------------------------------------
# Communication graph
# ---------------------------------------------------------------------------

def build_comm_graph(positions: np.ndarray, comm_factors: Sequence[float],
                     domain_diameter: float) -> np.ndarray:
    """Range-limited adjacency: agents are linked when their distance is
    within the smaller of the two communication radii (factor times the
    domain diameter), which keeps the graph symmetric."""
    if domain_diameter <= 0:
        raise ContractViolation("domain diameter must be positive")
    p = np.asarray(positions, dtype=float).reshape(-1, 3)
    factors = np.asarray(comm_factors, dtype=float)
    reach = np.minimum(factors[:, None], factors[None, :]) * domain_diameter
    adj = (_row_norms(p[:, None, :] - p[None, :, :]) <= reach).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


# ---------------------------------------------------------------------------
# Pair costs
# ---------------------------------------------------------------------------

def minimum_effort_cost(position, velocity, point, point_velocity, horizon: float) -> float:
    """Closed-form optimal control effort for a double-integrator transfer.

    The optimal acceleration is affine in time; integrating its squared
    norm gives 0.5 * (|a|^2 T + a.b T^2 + |b|^2 T^3 / 3) with a, b solved
    from the boundary conditions.  Rest-to-rest reduces to 6 |dp|^2 / T^3.
    """
    if horizon <= 0:
        raise ContractViolation("transfer horizon must be positive")
    p = np.asarray(position, float)
    v = np.asarray(velocity, float)
    dv = np.asarray(point_velocity, float) - v
    dp = np.asarray(point, float) - p - v * horizon
    a = -2.0 * dv / horizon + 6.0 * dp / horizon ** 2
    b = (6.0 * dv * horizon - 12.0 * dp) / horizon ** 3
    return 0.5 * (float(a @ a) * horizon
                  + float(a @ b) * horizon ** 2
                  + float(b @ b) * horizon ** 3 / 3.0)


def loiter_cost(orbit_speed: float, obs_radius: float, duration: float) -> float:
    """Effort of holding a circular orbit: constant centripetal magnitude
    speed^2 / radius for the whole observation duration."""
    a = orbit_speed ** 2 / obs_radius
    return 0.5 * a * a * duration


@dataclass(frozen=True)
class PairCost:
    """Estimated fuel cost of one agent serving one target."""

    maneuver: float
    loiter: float
    feasible: bool

    @property
    def total(self) -> float:
        return self.maneuver + self.loiter if self.feasible else math.inf


def estimate_pair_cost(agent: AgentBody, target: TargetBody, time_now: float,
                       dt: float, orbit_speed: float = 0.5) -> PairCost:
    """Simulate the agent alone under the rendezvous controller to the
    target's deadline and integrate the control effort on the dt grid,
    then add the loiter effort through the end of the window.

    A deadline at or before ``time_now`` is infeasible.  The aim point is
    predicted once, here; replanning against moving targets happens at the
    scenario level each round.
    """
    t_final = target.final_time
    if t_final <= time_now:
        return PairCost(math.inf, math.inf, feasible=False)
    r_hat, v_hat = rendezvous_point(agent.position, target, time_now)
    p, v = agent.position.copy(), agent.velocity.copy()
    t = time_now
    cost = 0.0
    while t < t_final - 1e-12:
        h = min(dt, t_final - t)
        u = rendezvous_control(p, v, r_hat, v_hat, t, t_final)
        cost += 0.5 * float(u @ u) * h
        p, v = step_agent(p, v, u, h)
        t += h
    return PairCost(maneuver=cost,
                    loiter=loiter_cost(orbit_speed, target.obs_radius,
                                       target.obs_duration),
                    feasible=True)


# ---------------------------------------------------------------------------
# Scenario configuration and sampling
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """Sampling intervals and physical parameters of a random instance."""

    n_agents: int = 5
    n_targets: int = 5
    comm_factor: float = 0.3
    decay: float = 0.8
    drag_coeff: float = 0.05
    box_side: float = 6.0
    initial_speed: float = 0.2
    end_time_range: tuple[float, float] = (19.0, 20.0)
    obs_duration_range: tuple[float, float] = (2.0, 2.5)
    obs_radius_range: tuple[float, float] = (1.0, 1.15)
    info_value_range: tuple[float, float] = (2.0, 2.5)
    n_steps: int = 2000
    orbit_speed: float = 0.5
    fuel: Optional[float] = None       # None: 10x the median initial pair cost
    fuel_median_factor: float = 10.0

    @property
    def domain_diameter(self) -> float:
        return self.box_side * math.sqrt(3.0)


def sample_scenario(config: ScenarioConfig, rng: np.random.Generator) -> "SatelliteScenario":
    """Draw a random instance: uniform positions in the box, uniform small
    velocities, per-target parameters from the configured intervals."""
    def uniform3(lo, hi):
        return rng.uniform(lo, hi, size=3)

    agents = [
        AgentBody(
            position=uniform3(0.0, config.box_side),
            velocity=uniform3(-config.initial_speed, config.initial_speed),
            comm_factor=config.comm_factor,
            fuel=math.inf,
        )
        for _ in range(config.n_agents)
    ]
    targets = [
        TargetBody(
            position=uniform3(0.0, config.box_side),
            velocity=uniform3(-config.initial_speed, config.initial_speed),
            info_value=float(rng.uniform(*config.info_value_range)),
            decay=config.decay,
            end_time=float(rng.uniform(*config.end_time_range)),
            obs_duration=float(rng.uniform(*config.obs_duration_range)),
            obs_radius=float(rng.uniform(*config.obs_radius_range)),
            drag_coeff=config.drag_coeff,
        )
        for _ in range(config.n_targets)
    ]
    scenario = SatelliteScenario(agents, targets, config)
    if config.fuel is not None:
        budget = float(config.fuel)
    else:
        budget = config.fuel_median_factor * float(np.median(scenario.pair_costs()))
    scenario.fuel[:] = budget
    return scenario


class SatelliteScenario(AllocationScenario):
    """Live world the solvers allocate in.

    The utility oracle and pair-cost estimates are snapshots of the current
    round (costs are cached per round); phase III advances the dynamics:
    assigned agents fly the rendezvous law toward their target's
    observation circle until its rendezvous deadline, and coast after it,
    when out of fuel, or when unassigned.

    The world is held as arrays, agent i and target j in row i - 1 and
    j - 1: ``agent_states`` and ``target_states`` (position then velocity
    per row), the agents' ``comm_factors``, ``fuel`` and ``accrued_cost``,
    and the targets' fixed parameters.  Each step is one array pass over
    all bodies with the arithmetic of the per-body helpers.
    """

    def __init__(self, agents: Sequence[AgentBody], targets: Sequence[TargetBody],
                 config: ScenarioConfig):
        self.config = config
        self.n_agents = len(agents)
        self.n_targets = len(targets)
        self.agent_states = np.array(
            [np.concatenate([a.position, a.velocity]) for a in agents]
        ).reshape(-1, 6)
        self.comm_factors = np.array([a.comm_factor for a in agents], dtype=float)
        self.fuel = np.array([a.fuel for a in agents], dtype=float)
        self.accrued_cost = np.array([a.accrued_cost for a in agents], dtype=float)
        self.target_states = np.array(
            [np.concatenate([t.position, t.velocity]) for t in targets]
        ).reshape(-1, 6)
        self.info_values = [t.info_value for t in targets]
        self.decays = [t.decay for t in targets]
        self.drag_coeffs = [t.drag_coeff for t in targets]
        self.obs_radii = np.array([t.obs_radius for t in targets], dtype=float)
        # Python floats: the controller gains are formed from them.
        self.final_times = [float(t.final_time) for t in targets]
        self.dt = max(t.end_time for t in targets) / config.n_steps
        self._round = 0
        self._costs = None
        self._cost_round = -1
        self._loiter_costs = np.array([
            loiter_cost(config.orbit_speed, t.obs_radius, t.obs_duration)
            for t in targets
        ])

    # -- solver-facing surface -------------------------------------------

    @property
    def time(self) -> float:
        return self._round * self.dt

    def oracle(self) -> TableOracle:
        return position_oracle(self.agent_states[:, :3], self.target_states[:, :3],
                               self.info_values, self.decays)

    def pair_costs(self) -> np.ndarray:
        """Every pair's closed-form effort estimate at the current round,
        vectorized over agents and targets and cached for the round.  A
        target whose rendezvous deadline is at most one step away
        (``final - now <= dt``) can no longer be served: its column is all
        infinite."""
        if self._cost_round != self._round:
            self._costs = self._cost_matrix()
            self._cost_round = self._round
        return self._costs

    def _cost_matrix(self) -> np.ndarray:
        q_hat, w_hat, tau = self._predicted_targets()
        radius = self.obs_radii
        # Agents along axis 0, targets along axis 1, space along axis 2.
        p = self.agent_states[:, None, :3]
        v = self.agent_states[:, None, 3:]
        offset = p - q_hat
        norm = np.linalg.norm(offset, axis=2)
        safe = np.where(norm < 1e-12, 1.0, norm)
        unit = np.where(norm[..., None] < 1e-12,
                        np.array([1.0, 0.0, 0.0]), offset / safe[..., None])
        r_hat = q_hat + radius[:, None] * unit
        t_ok = np.maximum(tau, 1e-12)[:, None]
        dv = w_hat - v
        dp = r_hat - p - v * t_ok
        a = -2.0 * dv / t_ok + 6.0 * dp / t_ok ** 2
        b = (6.0 * dv * t_ok - 12.0 * dp) / t_ok ** 3
        t1 = t_ok[:, 0]
        costs = 0.5 * (np.sum(a * a, axis=2) * t1
                       + np.sum(a * b, axis=2) * t1 ** 2
                       + np.sum(b * b, axis=2) * t1 ** 3 / 3.0) + self._loiter_costs
        return np.where(tau <= self.dt, math.inf, costs)

    def budgets(self) -> np.ndarray:
        """Fuel not yet spent, per agent."""
        return self.fuel - self.accrued_cost

    def adjacency(self) -> np.ndarray:
        return build_comm_graph(self.agent_states[:, :3], self.comm_factors,
                                self.config.domain_diameter)

    def agent_costs(self, policy: Policy) -> np.ndarray:
        return self.accrued_cost.copy()

    def default_horizon(self) -> int:
        return self.config.n_steps

    def advance(self, claims: Sequence[int]) -> None:
        self.agent_states, self.target_states, inc = step_dynamics(
            self.agent_states, self._controls(claims), self.accrued_cost,
            self.fuel, self.target_states, self.drag_coeffs, self.dt,
        )
        self.accrued_cost = self.accrued_cost + inc
        self._round += 1

    # -- internals --------------------------------------------------------

    def _predicted_targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every target's state propagated to its rendezvous deadline, as
        ``predict_target`` computes it, and the time left to the deadline."""
        now = self.time
        horizon = [final - now for final in self.final_times]
        decay = [math.exp(-k * h) if k > 0 else 1.0
                 for k, h in zip(self.drag_coeffs, horizon)]
        q, w = self.target_states[:, :3], self.target_states[:, 3:]
        k = np.array(self.drag_coeffs)[:, None]
        tau = np.array(horizon)
        decay = np.array(decay)[:, None]
        pos = np.where(k > 0, q + w * (1.0 - decay) / np.where(k > 0, k, 1.0),
                       q + w * tau[:, None])
        return pos, w * decay, tau

    def _controls(self, claims: Sequence[int]) -> np.ndarray:
        """Rendezvous acceleration (N x 3) of each agent with a claim (agent
        k + 1 on target ``claims[k]``, 0 = none) before its target's
        rendezvous deadline, as ``rendezvous_point`` and
        ``rendezvous_control`` compute it; zero, so the agent coasts,
        otherwise."""
        controls = np.zeros((self.n_agents, 3))
        now = self.time
        pairs = [(i, j - 1) for i, j in enumerate(claims)
                 if j != 0 and now < self.final_times[j - 1]]
        if not pairs:
            return controls
        agents, targets = np.array(pairs).T
        q_hat, w_hat, _ = self._predicted_targets()
        q_hat, w_hat = q_hat[targets], w_hat[targets]
        p = self.agent_states[agents, :3]
        v = self.agent_states[agents, 3:]
        offset = p - q_hat
        norm = _row_norms(offset)
        centred = norm < 1e-12
        offset[centred] = [1.0, 0.0, 0.0]
        norm[centred] = 1.0
        r_hat = q_hat + self.obs_radii[targets, None] * offset / norm[:, None]
        tau = [max(self.final_times[j] - now, 1e-6) for j in targets.tolist()]
        gain_v = np.array([4.0 / t for t in tau])[:, None]
        gain_p = np.array([6.0 / t ** 2 for t in tau])[:, None]
        tau = np.array(tau)[:, None]
        controls[agents] = gain_v * (w_hat - v) + gain_p * (r_hat - p - w_hat * tau)
        return controls
