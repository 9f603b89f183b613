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

import copy
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ContractViolation, Policy, TableOracle
from .solvers import AllocationScenario


class NumericalBlowupError(RuntimeError):
    """Integration produced a non-finite state."""


ORBIT_SPEED = 0.5          # of the circular orbit held while observing
FUEL_MEDIAN_FACTOR = 10.0  # unset fuel: this times the median finite pair cost
MIN_TIME_TO_GO = 1e-6      # controller floor: keeps the gains finite
CENTRE_EPS = 1e-12         # an agent this near a target's centre aims along x


# Each world rule is written once, as a kernel over rows that the scenario
# calls with all bodies at once; each per-body helper (``step_agent``,
# ``rendezvous_point``, ``survival_probability``, ...) is the one-row call
# of its kernel.  The kernels must give the same bits as the per-body
# arithmetic of ``tests/bodies.py``, which ``tests/test_world.py`` runs as
# the reference.  Three numpy forms do not:
#   - ``np.linalg.norm(x, axis=-1)`` sums the squares in another order than
#     the 1-D norm, a BLAS dot, and differs in about 12% of rows;
#     ``_row_norms`` takes the dot of each row through a stacked matmul.
#   - ``np.exp`` differs from ``math.exp`` in about 5% of cases, so
#     exponentials are taken per entry with ``math.exp``.
#   - numpy's ``t ** 2`` differs from Python's in about 0.07% of cases, so
#     the controller gains are formed from Python floats.
# The closed form of RK4 under a constant control is not bit-identical to
# the RK4 arithmetic either, so the steps keep that arithmetic.  Pair costs
# keep the bits of the row reference there, which sums each product of
# three with ``np.sum`` along the last axis; ``_row_sums`` adds in its order.

def _row_dots(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of ``x`` (rows along the last axis), equal
    bit for bit to ``row @ row`` on that row alone."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Norm of each row of ``x``, equal bit for bit to ``np.linalg.norm``
    of that row alone."""
    return np.sqrt(_row_dots(x))


# ---------------------------------------------------------------------------
# Utility model
# ---------------------------------------------------------------------------

def _survival(agent_positions, target_positions, decays) -> np.ndarray:
    """N x M table of ``survival_probability``."""
    lam = np.asarray(decays, dtype=float)
    if (lam <= 0).any():
        raise ContractViolation("decay factor must be positive")
    p = np.asarray(agent_positions, dtype=float).reshape(-1, 3)
    q = np.asarray(target_positions, dtype=float).reshape(-1, 3)
    exponents = -lam * _row_norms(p[:, None, :] - q[None, :, :])
    probs = np.fromiter(map(math.exp, exponents.ravel().tolist()),
                        dtype=float, count=exponents.size)
    return probs.reshape(exponents.shape)


def survival_probability(agent_pos, target_pos, decay: float) -> float:
    """exp(-decay * distance); 1 at zero distance, strictly decreasing."""
    return float(_survival([agent_pos], [target_pos], [decay])[0, 0])


def position_oracle(agent_positions: Sequence,
                    target_positions: Sequence,
                    info_values: Sequence[float],
                    decays: Sequence[float]) -> TableOracle:
    """Freeze the observation utility at the given positions: entry (i, j)
    of the table is ``survival_probability`` of agent i for target j."""
    return TableOracle(values=info_values,
                       probs=_survival(agent_positions, target_positions, decays))


def observation_utility(policy: Policy,
                        agent_positions: Sequence,
                        target_positions: Sequence,
                        info_values: Sequence[float],
                        decays: Sequence[float]) -> tuple[float, list[float]]:
    """Total observation utility of a policy plus the per-target terms.

    Target j contributes value_j * (1 - prod over assigned agents of
    (1 - survival)).  The empty policy is worth exactly 0.
    """
    per_target = position_oracle(agent_positions, target_positions,
                                 info_values, decays).target_utilities(policy)
    return sum(per_target), per_target


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


def _drag_terms(drag_coeffs: list) -> tuple:
    """The drags as ``_predict`` takes them: the list of floats, the divisor
    column (the drag, or 1 where it is 0) and the column marking the zero
    drags, or None when every drag is positive; the columns read-only."""
    k = np.array(drag_coeffs)[:, None]
    divisor = np.where(k > 0, k, 1.0)
    zero = None if (k > 0).all() else k <= 0
    for column in (divisor, zero):
        if column is not None:
            column.flags.writeable = False
    return drag_coeffs, divisor, zero


def _predict(states: np.ndarray, drag: tuple, horizons: np.ndarray) -> tuple:
    """``predict_target`` over state rows, ``_drag_terms`` and horizons."""
    drag_coeffs, divisor, zero = drag
    decay = [math.exp(-k * h) if k > 0 else 1.0
             for k, h in zip(drag_coeffs, horizons.tolist())]
    q, w = states[:, :3], states[:, 3:]
    decay = np.array(decay)[:, None]
    pos = q + w * (1.0 - decay) / divisor
    if zero is not None:
        pos = np.where(zero, q + w * horizons[:, None], pos)
    return pos, w * decay


def predict_target(target: TargetBody, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic drag propagation of a target state by ``horizon`` time units."""
    pos, vel = _predict(np.atleast_2d(np.concatenate([target.position, target.velocity])),
                        _drag_terms([target.drag_coeff]), np.array([horizon], dtype=float))
    return pos[0], vel[0]


def _aim_points(positions, centres, radii: np.ndarray) -> np.ndarray:
    """``rendezvous_point``'s aim over rows, radii over the leading axes."""
    offset = positions - centres
    norm = _row_norms(offset)
    centred = norm < CENTRE_EPS
    if centred.any():
        offset[centred] = [1.0, 0.0, 0.0]
        norm[centred] = 1.0
    return centres + radii[..., None] * offset / norm[..., None]


def rendezvous_point(agent_pos, target: TargetBody,
                     time_now: float) -> tuple[np.ndarray, np.ndarray]:
    """Point on the observation circle to steer for, and its velocity: the
    target is propagated to the rendezvous deadline and the aim point is
    the spot on its circle nearest the agent (an arbitrary fixed axis
    breaks the dead-center case)."""
    q_hat, w_hat = predict_target(target, target.final_time - time_now)
    p, q_hat_row = np.atleast_2d(agent_pos, q_hat)
    return _aim_points(p, q_hat_row, np.array([target.obs_radius]))[0], w_hat


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------

def _rendezvous_controls(positions, velocities, points, point_velocities,
                         times_to_go: list) -> np.ndarray:
    """``rendezvous_control`` over rows, times to go as floats."""
    tau = [max(t, MIN_TIME_TO_GO) for t in times_to_go]
    gain_v = np.array([4.0 / t for t in tau])[:, None]
    gain_p = np.array([6.0 / t ** 2 for t in tau])[:, None]
    tau = np.array(tau)[:, None]
    return (gain_v * (point_velocities - velocities)
            + gain_p * (points - positions - point_velocities * tau))


def rendezvous_control(position, velocity, point, point_velocity,
                       time_now: float, deadline: float) -> np.ndarray:
    """Minimum-effort acceleration steering to (point, point_velocity) by
    the deadline.  The time-to-go is floored at ``MIN_TIME_TO_GO`` so the
    gains stay finite as the deadline is reached."""
    rows = np.atleast_2d(position, velocity, point, point_velocity)
    return _rendezvous_controls(*rows, [deadline - time_now])[0]


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def _rk4(state: np.ndarray, deriv, dt: float) -> np.ndarray:
    k1 = deriv(state)
    k2 = deriv(state + 0.5 * dt * k1)
    k3 = deriv(state + 0.5 * dt * k2)
    k4 = deriv(state + dt * k3)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_bodies(states: np.ndarray, controls: np.ndarray, minus_k: np.ndarray,
                 dt: float) -> np.ndarray:
    """``step_agent`` and ``step_target`` over stacked state rows (position
    then velocity): the first ``len(controls)`` rows are agents under their
    held controls, the rest targets under drag, ``minus_k`` holding -drag
    per target row as a column.  Each stage writes both kinds of rate into
    its own slice of one array; summing per-kind terms instead would turn
    a -0.0 rate into +0.0."""
    n = len(controls)

    def deriv(s):
        rates = np.empty_like(s)
        rates[:, :3] = s[:, 3:]
        rates[:n, 3:] = controls
        np.multiply(minus_k, s[n:, 3:], out=rates[n:, 3:])
        return rates

    return _rk4(states, deriv, dt)


def step_agent(position, velocity, accel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-step RK4 advance of a double integrator under a control
    held constant over the step (for which RK4 is exact)."""
    state, accel = np.atleast_2d(np.concatenate([position, velocity]), accel)
    out = _step_bodies(state, accel, np.empty((0, 1)), dt)[0]
    return out[:3], out[3:]


def step_target(position, velocity, drag_coeff: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-step RK4 advance of a drag-decelerated drifting target."""
    state = np.atleast_2d(np.concatenate([position, velocity]))
    out = _step_bodies(state, np.empty((0, 3)), np.array([[-drag_coeff]], dtype=float), dt)[0]
    return out[:3], out[3:]


def step_dynamics(agent_states: np.ndarray, controls: np.ndarray,
                  accrued_cost: np.ndarray, fuel: np.ndarray,
                  target_states: np.ndarray, drag_coeffs: Sequence[float],
                  dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance every body one RK4 step, agents and targets in one pass;
    returns the new agent and target states (rows of position then
    velocity, N x 6 and M x 6) and the control cost charged to each agent.

    Controls (N x 3) are held constant over the step; the cost increment
    per agent is 0.5 * |u|^2 * dt.  An agent whose cost increment would
    exceed its remaining fuel coasts instead (u = 0, no charge).
    """
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    u = np.asarray(controls, dtype=float)
    inc = 0.5 * _row_dots(u) * dt
    out_of_fuel = accrued_cost + inc > fuel
    if out_of_fuel.any():
        u = np.where(out_of_fuel[:, None], 0.0, u)
        inc = np.where(out_of_fuel, 0.0, inc)
    n = len(agent_states)
    minus_k = -np.asarray(drag_coeffs, dtype=float)[:, None]
    states = _step_bodies(np.concatenate([agent_states, target_states]), u, minus_k, dt)
    if not np.isfinite(states).all():
        row = int(np.flatnonzero(~np.isfinite(states).all(axis=1))[0])
        kind, index = ("agent", row) if row < n else ("target", row - n)
        raise NumericalBlowupError(
            f"non-finite {kind} state after step: row {index} = {states[row]}"
        )
    return states[:n], states[n:], inc


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

def _horizon_powers(horizons: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transfer horizons with their squares and cubes, as
    ``_transfer_costs`` takes them."""
    return horizons, horizons ** 2, horizons ** 3


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each row of three, in the order ``np.sum(x, axis=-1)`` adds
    them, without its per-call overhead."""
    return (x[..., 0] + x[..., 1]) + x[..., 2]


def _transfer_costs(positions, velocities, points, point_velocities,
                    powers: tuple) -> np.ndarray:
    """``minimum_effort_cost`` over rows; ``powers`` is ``_horizon_powers``
    of the horizons, over the leading axes."""
    h, h2, h3 = powers
    t = h[..., None]
    dv = point_velocities - velocities
    dp = points - positions - velocities * t
    a = -2.0 * dv / t + 6.0 * dp / h2[..., None]
    b = (6.0 * dv * t - 12.0 * dp) / h3[..., None]
    return 0.5 * (_row_sums(a * a) * h
                  + _row_sums(a * b) * h2
                  + _row_sums(b * b) * h3 / 3.0)


def minimum_effort_cost(position, velocity, point, point_velocity, horizon: float) -> float:
    """Closed-form optimal control effort for a double-integrator transfer.

    The optimal acceleration is affine in time; integrating its squared
    norm gives 0.5 * (|a|^2 T + a.b T^2 + |b|^2 T^3 / 3) with a, b solved
    from the boundary conditions.  Rest-to-rest reduces to 6 |dp|^2 / T^3.
    """
    if horizon <= 0:
        raise ContractViolation("transfer horizon must be positive")
    rows = np.atleast_2d(position, velocity, point, point_velocity)
    powers = _horizon_powers(np.array([horizon], dtype=float))
    return float(_transfer_costs(*rows, powers)[0])


def loiter_cost(orbit_speed: float, obs_radius, duration):
    """Effort of holding a circular orbit: constant centripetal magnitude
    speed^2 / radius for the whole observation duration (elementwise over
    arrays of radii and durations)."""
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
                       dt: float) -> PairCost:
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
        cost += 0.5 * float(_row_dots(u)) * h
        p, v = step_agent(p, v, u, h)
        t += h
    return PairCost(maneuver=cost,
                    loiter=loiter_cost(ORBIT_SPEED, target.obs_radius,
                                       target.obs_duration),
                    feasible=True)


# ---------------------------------------------------------------------------
# Scenario configuration and sampling
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """Sampling intervals and physical parameters shared by every team size."""

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
    # None: FUEL_MEDIAN_FACTOR times the median finite initial pair cost, or
    # 0 if no pair cost is finite (no pair can be served then).
    fuel: Optional[float] = None

    def __post_init__(self):
        steps = self.n_steps
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
            raise ContractViolation(f"n_steps must be an integer of at least 1; got {steps!r}")
        for name in ("box_side", "initial_speed", "decay", "comm_factor", "drag_coeff", "fuel"):
            if isinstance(getattr(self, name), bool):
                raise ContractViolation(f"{name} must be a number; got {getattr(self, name)!r}")
        if not 0 < self.box_side < math.inf:
            raise ContractViolation("box_side must be positive and finite")
        if not 0 <= self.initial_speed < math.inf:
            raise ContractViolation("initial_speed must be nonnegative and finite")
        if not 0 < self.decay < math.inf:
            raise ContractViolation("decay factor must be positive and finite")
        if not self.comm_factor >= 0:
            raise ContractViolation("comm_factor must be nonnegative")
        if not 0 <= self.drag_coeff < math.inf:
            raise ContractViolation("drag_coeff must be nonnegative and finite")
        if self.fuel is not None and not self.fuel >= 0:
            raise ContractViolation("fuel must be None or nonnegative")
        for name in ("end_time_range", "obs_duration_range",
                     "obs_radius_range", "info_value_range"):
            bounds = getattr(self, name)
            if (not isinstance(bounds, (tuple, list)) or len(bounds) != 2
                    or any(isinstance(v, bool) or not isinstance(v, numbers.Real)
                           for v in bounds)
                    or not -math.inf < bounds[0] <= bounds[1] < math.inf):
                raise ContractViolation(
                    f"{name} must be two finite numbers, low <= high; got {bounds!r}")
            setattr(self, name, (float(bounds[0]), float(bounds[1])))
        if not self.obs_radius_range[0] > 0:
            raise ContractViolation("observation radius must be positive")
        if not self.info_value_range[0] >= 0:
            raise ContractViolation("information values must be nonnegative")
        if not self.obs_duration_range[0] >= 0:
            raise ContractViolation("observation durations must be nonnegative")
        if not self.obs_duration_range[1] < self.end_time_range[0]:
            raise ContractViolation("observation window closes before it opens: "
                                    "obs_duration_range must end below end_time_range")

    @property
    def domain_diameter(self) -> float:
        return self.box_side * math.sqrt(3.0)


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``u`` (draws in [0, 1)) scaled to [lo, hi) as ``Generator.uniform``
    scales them, to the bit."""
    return lo + (hi - lo) * u


def sample_scenario(config: ScenarioConfig, n_agents: int, n_targets: int,
                    rng: np.random.Generator) -> "SatelliteScenario":
    """Draw a random instance of ``n_agents`` agents and ``n_targets``
    targets: uniform positions in the box, uniform small velocities,
    per-target parameters from the configured intervals.

    The draw order is that of drawing body by body with ``rng.uniform``, so
    each seed keeps its world to the bit: each agent's position then
    velocity, then each target's position, velocity, information value,
    window end, observation duration and radius.  One ``rng.random`` array
    per kind of body holds the draws, and ``_uniform`` scales them as
    ``rng.uniform`` would.  ``ScenarioConfig`` has already rejected the
    reversed and non-finite intervals ``rng.uniform`` would reject.
    """
    n, m = n_agents, n_targets
    speed = config.initial_speed
    u = rng.random((n, 6))
    agent_states = np.concatenate([_uniform(u[:, :3], 0.0, config.box_side),
                                   _uniform(u[:, 3:], -speed, speed)], axis=1)
    u = rng.random((m, 10))
    target_states = np.concatenate([_uniform(u[:, :3], 0.0, config.box_side),
                                    _uniform(u[:, 3:6], -speed, speed)], axis=1)
    scenario = SatelliteScenario(
        config,
        agent_states=agent_states,
        comm_factors=np.full(n, config.comm_factor, dtype=float),
        fuel=np.full(n, math.inf),
        accrued_cost=np.zeros(n),
        target_states=target_states,
        info_values=_uniform(u[:, 6], *config.info_value_range).tolist(),
        decays=[config.decay] * m,
        drag_coeffs=[config.drag_coeff] * m,
        end_times=_uniform(u[:, 7], *config.end_time_range).tolist(),
        obs_durations=_uniform(u[:, 8], *config.obs_duration_range).tolist(),
        obs_radii=_uniform(u[:, 9], *config.obs_radius_range).tolist(),
    )
    if config.fuel is not None:
        budget = float(config.fuel)
    else:
        costs = scenario.pair_costs()
        finite = costs[np.isfinite(costs)]
        budget = (FUEL_MEDIAN_FACTOR * float(np.median(finite))
                  if finite.size else 0.0)
    scenario.fuel[:] = budget
    return scenario


# The arrays a world changes as it runs; ``SatelliteScenario.copy`` copies
# these and shares everything else.
_STATE_ARRAYS = ("agent_states", "target_states", "comm_factors", "fuel", "accrued_cost")


class SatelliteScenario(AllocationScenario):
    """Live world the solvers allocate in.

    The utility oracle and pair-cost estimates are snapshots of the current
    round; phase III advances the dynamics: assigned agents fly the
    rendezvous law toward their target's observation circle until its
    rendezvous deadline, and coast after it, when out of fuel, or when
    unassigned.

    The world is held as arrays, agent i and target j in row i - 1 and
    j - 1: ``agent_states`` and ``target_states`` (position then velocity
    per row), the agents' ``comm_factors``, ``fuel`` and ``accrued_cost``,
    and the targets' fixed parameters, which are read-only.  Each step is
    one pass of the row kernels over all bodies.  The world is built from
    these rows by keyword; ``AgentBody`` and ``TargetBody`` serve the
    per-body helpers only.

    What a round computes once is kept in the round's store: the targets
    predicted to their rendezvous deadlines with the transfer horizons, the
    full cost matrix and the oracle, each on first use and read-only.
    ``advance`` starts a new store.  ``copy`` shares the store of the round
    it is made in, so each of these is built once for the base world and
    all its copies of that round.
    """

    def __init__(self, config: ScenarioConfig, *, agent_states, comm_factors,
                 fuel, accrued_cost, target_states, info_values, decays,
                 drag_coeffs, end_times, obs_durations, obs_radii):
        """Agent rows: state (position then velocity), communication factor,
        fuel and the fuel spent.  Target rows: state, information value,
        decay, drag, window end, observation duration and radius.  Per-target
        scalars are taken as sequences of Python floats."""
        final_times = [float(end - duration)
                       for end, duration in zip(end_times, obs_durations)]
        if any(final <= 0 for final in final_times):
            raise ContractViolation("observation window closes before it opens")
        if any(radius <= 0 for radius in obs_radii):
            raise ContractViolation("observation radius must be positive")
        self.config = config
        self.agent_states = np.array(agent_states, dtype=float).reshape(-1, 6)
        self.target_states = np.array(target_states, dtype=float).reshape(-1, 6)
        self.n_agents = len(self.agent_states)
        self.n_targets = len(self.target_states)
        self.comm_factors = np.array(comm_factors, dtype=float)
        self.fuel = np.array(fuel, dtype=float)
        self.accrued_cost = np.array(accrued_cost, dtype=float)
        self.info_values = list(info_values)
        self.decays = list(decays)
        self.drag_coeffs = list(drag_coeffs)
        self._drag = _drag_terms(self.drag_coeffs)
        self.obs_radii = np.array(obs_radii, dtype=float)
        # Python floats: the controller gains are formed from them.
        self.final_times = final_times
        self.dt = max(end_times) / config.n_steps
        self._loiter_costs = loiter_cost(ORBIT_SPEED, self.obs_radii,
                                         np.array(obs_durations, dtype=float))
        self.obs_radii.flags.writeable = self._loiter_costs.flags.writeable = False
        self._round = 0
        self._store: dict = {}

    def copy(self) -> "SatelliteScenario":
        """A world that runs apart from this one: its own state arrays, the
        same read-only target parameters, and this round's store until
        either world advances."""
        twin = copy.copy(self)
        for name in _STATE_ARRAYS:
            setattr(twin, name, getattr(self, name).copy())
        return twin

    # -- solver-facing surface -------------------------------------------

    @property
    def time(self) -> float:
        return self._round * self.dt

    def oracle(self) -> TableOracle:
        oracle = self._store.get("oracle")
        if oracle is None:
            oracle = self._store["oracle"] = position_oracle(
                self.agent_states[:, :3], self.target_states[:, :3],
                self.info_values, self.decays)
        return oracle

    def pair_costs(self, agents: Optional[np.ndarray] = None) -> np.ndarray:
        """The closed-form effort estimates of the current round, vectorized
        over agents and targets: the rows of ``agents`` (0-based), or every
        row when it is None.  A target whose rendezvous deadline is at most
        one step away (``final - now <= dt``) can no longer be served: its
        column is all infinite.

        A query for every row is kept in the round's store, read-only, and
        serves the row queries after it.  Without it only the asked rows
        are computed; each row's arithmetic is its own, so they are the
        same bits as the matching rows of the full matrix."""
        costs = self._store.get("costs")
        if costs is not None:
            return costs if agents is None else costs[agents]
        if agents is not None:
            return self._cost_matrix(self.agent_states[agents])
        costs = self._store["costs"] = self._cost_matrix(self.agent_states)
        costs.flags.writeable = False
        return costs

    def _cost_matrix(self, agent_states: np.ndarray) -> np.ndarray:
        q_hat, w_hat, _tau, powers, closed = self._predicted_targets()
        # Agents along axis 0, targets along axis 1, space along axis 2.
        p, v = agent_states[:, None, :3], agent_states[:, None, 3:]
        r_hat = _aim_points(p, q_hat, self.obs_radii)
        costs = _transfer_costs(p, v, r_hat, w_hat, powers)
        return np.where(closed, math.inf, costs + self._loiter_costs)

    def budgets(self) -> np.ndarray:
        """Fuel not yet spent, per agent."""
        return self.fuel - self.accrued_cost

    def adjacency(self) -> np.ndarray:
        return build_comm_graph(self.agent_states[:, :3], self.comm_factors,
                                self.config.domain_diameter)

    def agent_costs(self, claims: np.ndarray, done: np.ndarray) -> np.ndarray:
        """The cost each agent has accrued so far, flying or not."""
        return self.accrued_cost.copy()

    def default_horizon(self) -> int:
        return self.config.n_steps

    def advance(self, claims: np.ndarray) -> None:
        self.agent_states, self.target_states, inc = step_dynamics(
            self.agent_states, self._controls(claims), self.accrued_cost,
            self.fuel, self.target_states, self.drag_coeffs, self.dt,
        )
        self.accrued_cost = self.accrued_cost + inc
        self._round += 1
        self._store = {}

    # -- internals --------------------------------------------------------

    def _predicted_targets(self) -> tuple:
        """Every target's state propagated to its rendezvous deadline, the
        time left to the deadline (0 once it has passed), ``_horizon_powers``
        of that time floored at 1e-12, and whether the deadline is at most
        one step away; computed once per round, as read-only arrays.  A
        target whose deadline has passed is predicted where it is: nothing
        reads it, and exp(-k * h) would overflow for h far below 0."""
        predicted = self._store.get("targets")
        if predicted is None:
            now = self.time
            tau = np.array([final - now if final > now else 0.0
                            for final in self.final_times])
            powers = _horizon_powers(np.maximum(tau, 1e-12))
            predicted = (*_predict(self.target_states, self._drag, tau), tau,
                         powers, tau <= self.dt)
            for array in (*predicted[:3], *powers, predicted[4]):
                array.flags.writeable = False
            self._store["targets"] = predicted
        return predicted

    def _controls(self, claims: np.ndarray) -> np.ndarray:
        """Rendezvous acceleration (N x 3) of each agent with a claim (agent
        k + 1 on target ``claims[k]``, 0 = none) before its target's
        rendezvous deadline; zero, so the agent coasts, otherwise."""
        controls = np.zeros((self.n_agents, 3))
        claims = np.asarray(claims, dtype=np.intp)
        q_hat, w_hat, tau, _powers, _closed = self._predicted_targets()
        # Time to go per claim: 0 for no claim and once the deadline passed.
        to_go = np.concatenate(([0.0], tau))[claims]
        flying = to_go > 0.0
        if not flying.any():
            return controls
        targets = claims[flying] - 1
        rows = self.agent_states[flying]
        p, v = rows[:, :3], rows[:, 3:]
        r_hat = _aim_points(p, q_hat[targets], self.obs_radii[targets])
        controls[flying] = _rendezvous_controls(p, v, r_hat, w_hat[targets],
                                                to_go[flying].tolist())
        return controls
