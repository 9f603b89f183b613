"""The satellite world as arrays, run side by side with the same world as
bodies.

``SatelliteScenario`` advances all agents and targets in one array pass per
step.  ``BodyWorld`` is the reference: the per-body helpers
(``rendezvous_point``, ``rendezvous_control``, ``step_agent``,
``step_target``, ``survival_probability``, ``predict_target``) and a
pairwise communication loop.  The two must agree bit for bit, so every
comparison is exact.
"""

import copy
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.scenario import (
    AgentBody,
    SatelliteScenario,
    ScenarioConfig,
    TargetBody,
    predict_target,
    rendezvous_control,
    rendezvous_point,
    sample_scenario,
    step_agent,
    step_target,
    survival_probability,
)


class BodyWorld:
    """The world body by body, as the scenario advanced it before it held
    arrays."""

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
                r_hat, v_hat = rendezvous_point(agent.position, tgt, now)
                u = rendezvous_control(agent.position, agent.velocity,
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
        return [[survival_probability(a.position, t.position, t.decay)
                 for t in self.targets] for a in self.agents]

    def predicted(self):
        return [predict_target(t, t.final_time - self.time) for t in self.targets]


def assert_same_world(scen, ref):
    assert scen.agent_states[:, :3].tolist() == [a.position.tolist() for a in ref.agents]
    assert scen.agent_states[:, 3:].tolist() == [a.velocity.tolist() for a in ref.agents]
    assert scen.accrued_cost.tolist() == [a.accrued_cost for a in ref.agents]
    assert scen.target_states[:, :3].tolist() == [t.position.tolist() for t in ref.targets]
    assert scen.target_states[:, 3:].tolist() == [t.velocity.tolist() for t in ref.targets]
    assert np.array_equal(scen.adjacency(), ref.adjacency())
    assert scen.oracle().probs == ref.probs()
    q_hat, w_hat, _tau = scen._predicted_targets()
    assert q_hat.tolist() == [q.tolist() for q, _w in ref.predicted()]
    assert w_hat.tolist() == [w.tolist() for _q, w in ref.predicted()]


def run_both(agents, targets, config, schedule):
    """Build both worlds and advance them through ``schedule`` (one
    assignment dict per step), comparing them before the first step and
    after every step."""
    scen = SatelliteScenario(agents, targets, config)
    ref = BodyWorld(agents, targets, config)
    assert_same_world(scen, ref)
    continue_both(scen, ref, schedule)
    return scen, ref


def continue_both(scen, ref, schedule):
    for assignments in schedule:
        scen.advance([assignments.get(i, 0) for i in range(1, scen.n_agents + 1)])
        ref.advance(assignments)
        assert_same_world(scen, ref)


def random_bodies(rng, n, m):
    agents = [
        AgentBody(position=rng.uniform(0.0, 6.0, size=3),
                  velocity=rng.uniform(-0.2, 0.2, size=3),
                  comm_factor=float(rng.uniform(0.05, 0.6)),
                  fuel=float(rng.choice([math.inf, 1e-3, 0.05, 1.0])))
        for _ in range(n)
    ]
    targets = []
    for _ in range(m):
        end = float(rng.uniform(1.0, 20.0))
        targets.append(TargetBody(
            position=rng.uniform(0.0, 6.0, size=3),
            velocity=rng.uniform(-0.2, 0.2, size=3),
            info_value=float(rng.uniform(2.0, 2.5)),
            decay=float(rng.uniform(0.3, 1.2)),
            end_time=end,
            obs_duration=float(rng.uniform(0.05, 0.9)) * end,
            obs_radius=float(rng.uniform(0.5, 1.5)),
            drag_coeff=float(rng.choice([0.0, 0.05, 0.3])),
        ))
    return agents, targets


def random_schedule(rng, n, m, steps):
    return [{i: int(rng.integers(1, m + 1))
             for i in range(1, n + 1) if rng.random() < 0.7}
            for _ in range(steps)]


def one_target(position, velocity=(0.0, 0.0, 0.0), drag=0.05, end_time=12.0):
    return TargetBody(position=position, velocity=velocity, info_value=2.0,
                      decay=0.8, end_time=end_time, obs_duration=2.0,
                      obs_radius=1.0, drag_coeff=drag)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 12, 2000]))
def test_random_worlds_agree(n, m, seed, n_steps):
    # Few steps over the horizon make deadlines pass within the run.
    rng = np.random.default_rng(seed)
    agents, targets = random_bodies(rng, n, m)
    config = ScenarioConfig(n_steps=n_steps)
    run_both(agents, targets, config, random_schedule(rng, n, m, steps=4))


def test_agent_out_of_fuel_coasts():
    tgt = one_target([4.0, 3.0, 1.0])
    config = ScenarioConfig(n_steps=20)
    probe = SatelliteScenario([AgentBody(np.zeros(3), np.zeros(3), 0.3, math.inf)],
                              [tgt], config)
    probe.advance([1])
    # Fuel for exactly the first step's charge.
    agent = AgentBody(np.zeros(3), np.zeros(3), 0.3, fuel=probe.accrued_cost[0])
    scen, ref = run_both([agent], [tgt], config, [{1: 1}])
    assert scen.accrued_cost[0] == agent.fuel > 0.0
    continue_both(scen, ref, [{1: 1}] * 3)
    assert scen.accrued_cost[0] == agent.fuel


def test_assignment_past_its_deadline_coasts():
    agent = AgentBody(position=np.zeros(3), velocity=[0.1, 0.0, 0.0],
                      comm_factor=0.3, fuel=math.inf)
    early = one_target([4.0, 3.0, 1.0], end_time=2.5)  # final time 0.5
    late = one_target([1.0, 2.0, 3.0], end_time=20.0)
    config = ScenarioConfig(n_steps=10)  # dt = 2: one step passes 0.5
    scen, ref = run_both([agent], [early, late], config, [{1: 1}])
    charged = scen.accrued_cost[0]
    assert charged > 0.0
    continue_both(scen, ref, [{1: 1}] * 2)
    assert scen.accrued_cost[0] == charged


def test_controller_gains_formed_as_the_scalar_controller_forms_them():
    # For the first time to go, numpy's t ** 2 differs from Python's in the
    # last bit; the second is below the controller's 1e-6 floor.
    def due_at(deadline):
        return TargetBody(position=[4.0, 3.0, 1.0], velocity=[0.1, 0.0, 0.0],
                          info_value=2.0, decay=0.8, end_time=deadline,
                          obs_duration=0.0, obs_radius=1.0, drag_coeff=0.05)

    agents = [AgentBody(np.zeros(3), np.zeros(3), 0.3, math.inf),
              AgentBody([1.0, 1.0, 1.0], np.zeros(3), 0.3, math.inf)]
    targets = [due_at(3.0228432181417424), due_at(1e-7), one_target([1.0, 2.0, 3.0])]
    run_both(agents, targets, ScenarioConfig(n_steps=100), [{1: 1, 2: 2}])


def test_agent_on_predicted_target_centre():
    # A target at rest is predicted where it is; the agent sits on it, so
    # the aim point falls back to the fixed axis.
    centre = np.array([2.0, 2.0, 2.0])
    agent = AgentBody(position=centre, velocity=np.zeros(3),
                      comm_factor=0.3, fuel=math.inf)
    tgt = one_target(centre)
    scen = SatelliteScenario([agent], [tgt], ScenarioConfig())
    q_hat, _w, _tau = scen._predicted_targets()
    assert q_hat[0].tolist() == centre.tolist()
    run_both([agent], [tgt], ScenarioConfig(), [{1: 1}] * 3)


def test_pair_at_distance_equal_to_reach_is_linked():
    config = ScenarioConfig()
    reach = min(0.3, 0.45) * config.domain_diameter
    agents = [
        AgentBody(position=np.zeros(3), velocity=np.zeros(3), comm_factor=0.3, fuel=1.0),
        AgentBody(position=[reach, 0.0, 0.0], velocity=np.zeros(3),
                  comm_factor=0.45, fuel=1.0),
        AgentBody(position=[0.0, math.nextafter(reach, math.inf), 0.0],
                  velocity=np.zeros(3), comm_factor=0.3, fuel=1.0),
    ]
    assert np.linalg.norm(agents[0].position - agents[1].position) == reach
    scen, _ref = run_both(agents, [one_target([1.0, 1.0, 1.0])], config, [])
    assert scen.adjacency()[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_empty_assignment_moves_everything_freely():
    rng = np.random.default_rng(5)
    agents, targets = random_bodies(rng, 6, 4)
    scen, _ref = run_both(agents, targets, ScenarioConfig(n_steps=50), [{}] * 3)
    assert scen.accrued_cost.tolist() == [0.0] * 6


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 12, 40]), st.sampled_from([None, math.inf]))
def test_past_deadline_columns_cost_infinity(n, m, seed, n_steps, fuel):
    # Deadlines spread over the horizon and few steps, so the run crosses
    # them; infinite fuel leaves the infinite costs as the only bar.
    config = ScenarioConfig(n_agents=n, n_targets=m, n_steps=n_steps,
                            end_time_range=(3.0, 20.0), fuel=fuel)
    rng = np.random.default_rng(seed)
    scen = sample_scenario(config, rng)
    for claims in random_schedule(rng, n, m, steps=n_steps + 1):
        passed = [final - scen.time <= scen.dt for final in scen.final_times]
        assert np.isinf(scen.pair_costs()).tolist() == [passed] * n
        assert scen.budgets().tolist() == (scen.fuel - scen.accrued_cost).tolist()
        scen.advance([claims.get(i, 0) for i in range(1, n + 1)])
