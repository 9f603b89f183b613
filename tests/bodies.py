"""The satellite world body by body: the reference the array kernels of
``taskalloc.scenario`` are checked against.

The arithmetic here is written apart from the kernels, one body at a time,
in the forms the kernels must match bit for bit: 1-D norms and dots,
``math.exp`` per entry, controller gains from Python floats and the RK4
stages of one state vector.  ``world_from_bodies`` builds a
``SatelliteScenario`` from ``AgentBody`` and ``TargetBody`` records.
"""

import copy
import math

import numpy as np

from taskalloc.scenario import (
    CENTRE_EPS,
    MIN_TIME_TO_GO,
    ORBIT_SPEED,
    SatelliteScenario,
    loiter_cost,
)


def world_from_bodies(agents, targets, config):
    """``SatelliteScenario`` holding ``agents`` and ``targets`` as its rows."""
    return SatelliteScenario(
        config,
        agent_states=[np.concatenate([a.position, a.velocity]) for a in agents],
        comm_factors=[a.comm_factor for a in agents],
        fuel=[a.fuel for a in agents],
        accrued_cost=[a.accrued_cost for a in agents],
        target_states=[np.concatenate([t.position, t.velocity]) for t in targets],
        info_values=[t.info_value for t in targets],
        decays=[t.decay for t in targets],
        drag_coeffs=[t.drag_coeff for t in targets],
        end_times=[t.end_time for t in targets],
        obs_durations=[t.obs_duration for t in targets],
        obs_radii=[t.obs_radius for t in targets],
    )


def survival(agent_pos, target_pos, decay):
    offset = np.asarray(agent_pos, float) - np.asarray(target_pos, float)
    return math.exp(-decay * float(np.linalg.norm(offset)))


def predict(target, horizon):
    """Target state propagated under drag by ``horizon``."""
    k, w0 = target.drag_coeff, target.velocity
    if k > 0:
        decay = math.exp(-k * horizon)
        return target.position + w0 * (1.0 - decay) / k, w0 * decay
    return target.position + w0 * horizon, w0.copy()


def circle_point(agent_pos, centre, radius):
    """Point of the circle of ``radius`` around ``centre`` nearest the
    agent, along x when the agent sits on the centre."""
    offset = np.asarray(agent_pos, float) - centre
    norm = np.linalg.norm(offset)
    if norm < CENTRE_EPS:
        offset, norm = np.array([1.0, 0.0, 0.0]), 1.0
    return centre + radius * offset / norm


def aim_point(agent_pos, target, time_now):
    """Point of the observation circle at the deadline nearest the agent,
    and its velocity."""
    q_hat, w_hat = predict(target, target.final_time - time_now)
    return circle_point(agent_pos, q_hat, target.obs_radius), w_hat


def control(position, velocity, point, point_velocity, time_now, deadline):
    tau = max(deadline - time_now, MIN_TIME_TO_GO)
    return (4.0 / tau * (point_velocity - velocity)
            + 6.0 / tau ** 2 * (point - position - point_velocity * tau))


def rk4(state, deriv, dt):
    k1 = deriv(state)
    k2 = deriv(state + 0.5 * dt * k1)
    k3 = deriv(state + 0.5 * dt * k2)
    k4 = deriv(state + dt * k3)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_agent(position, velocity, accel, dt):
    out = rk4(np.concatenate([position, velocity]),
              lambda s: np.concatenate([s[3:], accel]), dt)
    return out[:3], out[3:]


def step_target(position, velocity, drag_coeff, dt):
    out = rk4(np.concatenate([position, velocity]),
              lambda s: np.concatenate([s[3:], -drag_coeff * s[3:]]), dt)
    return out[:3], out[3:]


def transfer_cost(position, velocity, point, point_velocity, horizon):
    """Closed-form minimum effort of a double-integrator transfer."""
    dv = point_velocity - velocity
    dp = point - position - velocity * horizon
    a = -2.0 * dv / horizon + 6.0 * dp / horizon ** 2
    b = (6.0 * dv * horizon - 12.0 * dp) / horizon ** 3
    return 0.5 * (float(a @ a) * horizon
                  + float(a @ b) * horizon ** 2
                  + float(b @ b) * horizon ** 3 / 3.0)


def transfer_cost_row(position, velocity, points, point_velocities, horizons):
    """``transfer_cost`` of one agent to each row of ``points`` by the
    matching entry of ``horizons``, each dot summed with ``np.sum`` along
    the last axis: the form the pair costs of the array kernel keep to the
    bit."""
    t = horizons[:, None]
    dv = point_velocities - velocity
    dp = points - position - velocity * t
    a = -2.0 * dv / t + 6.0 * dp / t ** 2
    b = (6.0 * dv * t - 12.0 * dp) / t ** 3
    return 0.5 * (np.sum(a * a, axis=-1) * horizons
                  + np.sum(a * b, axis=-1) * horizons ** 2
                  + np.sum(b * b, axis=-1) * horizons ** 3 / 3.0)


class BodyWorld:
    """The world body by body, advanced by the functions above."""

    def __init__(self, agents, targets, config):
        self.agents = copy.deepcopy(list(agents))
        self.targets = copy.deepcopy(list(targets))
        self.dt = max(t.end_time for t in targets) / config.n_steps
        self.diameter = config.domain_diameter
        self.round = 0

    @property
    def time(self):
        return self.round * self.dt

    def advance(self, assignments):
        now = self.time
        for i, agent in enumerate(self.agents, start=1):
            j = assignments.get(i)
            u = np.zeros(3)
            if j is not None and now < self.targets[j - 1].final_time:
                tgt = self.targets[j - 1]
                r_hat, v_hat = aim_point(agent.position, tgt, now)
                u = control(agent.position, agent.velocity,
                            r_hat, v_hat, now, tgt.final_time)
            inc = 0.5 * float(u @ u) * self.dt
            if agent.accrued_cost + inc > agent.fuel:
                u, inc = np.zeros(3), 0.0
            agent.position, agent.velocity = step_agent(
                agent.position, agent.velocity, u, self.dt)
            agent.accrued_cost += inc
        for tgt in self.targets:
            tgt.position, tgt.velocity = step_target(
                tgt.position, tgt.velocity, tgt.drag_coeff, self.dt)
        self.round += 1

    def adjacency(self):
        n = len(self.agents)
        adj = np.zeros((n, n))
        for i in range(n):
            for k in range(i + 1, n):
                a, b = self.agents[i], self.agents[k]
                reach = min(a.comm_factor, b.comm_factor) * self.diameter
                if np.linalg.norm(a.position - b.position) <= reach:
                    adj[i, k] = adj[k, i] = 1.0
        return adj

    def probs(self):
        return [[survival(a.position, t.position, t.decay)
                 for t in self.targets] for a in self.agents]

    def predicted(self):
        """Each target predicted to its deadline, or where it is once the
        deadline has passed."""
        return [predict(t, max(t.final_time - self.time, 0.0)) for t in self.targets]

    def pair_costs(self):
        """Per agent, a row of ``transfer_cost_row`` to each target's aim
        point by its deadline, floored at 1e-12, plus the loiter effort;
        infinity for a target whose deadline is at most one step away."""
        tau = np.array([max(t.final_time - self.time, 0.0) for t in self.targets])
        horizons = np.maximum(tau, 1e-12)
        loiter = np.array([loiter_cost(ORBIT_SPEED, t.obs_radius, t.obs_duration)
                           for t in self.targets])
        predicted = self.predicted()
        rows = []
        for agent in self.agents:
            points = np.array([circle_point(agent.position, q, t.obs_radius)
                               for (q, _w), t in zip(predicted, self.targets)])
            velocities = np.array([w for _q, w in predicted])
            row = transfer_cost_row(agent.position, agent.velocity,
                                    points, velocities, horizons) + loiter
            rows.append(np.where(tau <= self.dt, math.inf, row))
        return np.array(rows).reshape(len(self.agents), len(self.targets))
