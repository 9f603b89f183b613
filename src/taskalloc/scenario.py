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
from dataclasses import dataclass, replace
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
    """Freeze the observation utility at the given positions."""
    probs = [
        [survival_probability(p, q, lam) for q, lam in zip(target_positions, decays)]
        for p in agent_positions
    ]
    return TableOracle(values=info_values, probs=probs)


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


def step_dynamics(agents: Sequence[AgentBody], targets: Sequence[TargetBody],
                  controls: Sequence, dt: float
                  ) -> tuple[list[AgentBody], list[TargetBody], list[float]]:
    """Advance every body one step and return fresh states plus the control
    cost charged to each agent.

    Controls are held constant over the step; the cost increment per agent
    is 0.5 * |u|^2 * dt.  An agent whose cost increment would exceed its
    remaining fuel coasts instead (u = 0, no charge).
    """
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    new_agents: list[AgentBody] = []
    increments: list[float] = []
    for agent, u in zip(agents, controls):
        u = np.zeros(3) if u is None else np.asarray(u, float)
        inc = 0.5 * float(u @ u) * dt
        if agent.accrued_cost + inc > agent.fuel:
            u, inc = np.zeros(3), 0.0
        p, v = step_agent(agent.position, agent.velocity, u, dt)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise NumericalBlowupError(
                f"non-finite agent state after step: p={p}, v={v}, u={u}"
            )
        new_agents.append(replace(agent, position=p, velocity=v,
                                  accrued_cost=agent.accrued_cost + inc))
        increments.append(inc)
    new_targets: list[TargetBody] = []
    for tgt in targets:
        q, w = step_target(tgt.position, tgt.velocity, tgt.drag_coeff, dt)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(w))):
            raise NumericalBlowupError(f"non-finite target state after step: q={q}")
        new_targets.append(replace(tgt, position=q, velocity=w))
    return new_agents, new_targets, increments


# ---------------------------------------------------------------------------
# Communication graph
# ---------------------------------------------------------------------------

def build_comm_graph(agents: Sequence[AgentBody], domain_diameter: float) -> np.ndarray:
    """Range-limited adjacency: agents are linked when their distance is
    within the smaller of the two communication radii (factor times the
    domain diameter), which keeps the graph symmetric."""
    if domain_diameter <= 0:
        raise ContractViolation("domain diameter must be positive")
    n = len(agents)
    adj = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            reach = min(agents[i].comm_factor, agents[k].comm_factor) * domain_diameter
            d = np.linalg.norm(agents[i].position - agents[k].position)
            if d <= reach:
                adj[i, k] = adj[k, i] = 1.0
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
    for a in scenario.agents:
        a.fuel = budget
    return scenario


class SatelliteScenario(AllocationScenario):
    """Live world the solvers allocate in.

    The utility oracle and pair-cost estimates are snapshots of the current
    round (costs are cached per round); phase III advances the dynamics:
    assigned agents fly the rendezvous law toward their target's
    observation circle until its rendezvous deadline, and coast after it,
    when out of fuel, or when unassigned.
    """

    def __init__(self, agents: Sequence[AgentBody], targets: Sequence[TargetBody],
                 config: ScenarioConfig):
        self.agents = list(agents)
        self.targets = list(targets)
        self.config = config
        self.n_agents = len(self.agents)
        self.n_targets = len(self.targets)
        max_end = max(t.end_time for t in self.targets)
        self.dt = max_end / config.n_steps
        self._round = 0
        self._costs = None
        self._cost_round = -1
        self._loiter_costs = np.array([
            loiter_cost(config.orbit_speed, t.obs_radius, t.obs_duration)
            for t in self.targets
        ])

    # -- solver-facing surface -------------------------------------------

    @property
    def time(self) -> float:
        return self._round * self.dt

    def oracle(self) -> TableOracle:
        return position_oracle(
            [a.position for a in self.agents],
            [t.position for t in self.targets],
            [t.info_value for t in self.targets],
            [t.decay for t in self.targets],
        )

    def pair_costs(self) -> np.ndarray:
        """Every pair's closed-form effort estimate at the current round,
        vectorized over agents and targets and cached for the round."""
        if self._cost_round != self._round:
            self._costs = self._cost_matrix()
            self._cost_round = self._round
        return self._costs

    def _cost_matrix(self) -> np.ndarray:
        now = self.time
        q_hat = np.empty((self.n_targets, 3))
        w_hat = np.empty((self.n_targets, 3))
        tau = np.empty(self.n_targets)
        radius = np.empty(self.n_targets)
        for k, tgt in enumerate(self.targets):
            tau[k] = tgt.final_time - now
            q_hat[k], w_hat[k] = predict_target(tgt, tau[k])
            radius[k] = tgt.obs_radius
        # Agents along axis 0, targets along axis 1, space along axis 2.
        p = np.array([a.position for a in self.agents]).reshape(-1, 1, 3)
        v = np.array([a.velocity for a in self.agents]).reshape(-1, 1, 3)
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

    def remaining_budget(self, agent: int) -> float:
        body = self.agents[agent - 1]
        return body.fuel - body.accrued_cost

    def adjacency(self) -> np.ndarray:
        return build_comm_graph(self.agents, self.config.domain_diameter)

    def reachable_targets(self, round_index: int) -> list[bool]:
        now = self.time
        return [t.final_time - now > self.dt for t in self.targets]

    def agent_costs(self, policy: Policy) -> np.ndarray:
        return np.array([a.accrued_cost for a in self.agents])

    def default_horizon(self) -> int:
        return self.config.n_steps

    def advance(self, assignments: dict[int, int], round_index: int) -> None:
        controls = [self._control(i + 1, assignments.get(i + 1))
                    for i in range(self.n_agents)]
        self.agents, self.targets, _ = step_dynamics(
            self.agents, self.targets, controls, self.dt
        )
        self._round += 1

    # -- internals --------------------------------------------------------

    def _control(self, agent_id: int, target_id: Optional[int]) -> np.ndarray:
        """Rendezvous acceleration of an assigned agent before its target's
        rendezvous deadline; zero, so the agent coasts, otherwise."""
        now = self.time
        if target_id is None or now >= self.targets[target_id - 1].final_time:
            return np.zeros(3)
        body = self.agents[agent_id - 1]
        tgt = self.targets[target_id - 1]
        r_hat, v_hat = rendezvous_point(body.position, tgt, now)
        return rendezvous_control(body.position, body.velocity,
                                  r_hat, v_hat, now, tgt.final_time)
