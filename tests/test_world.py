"""The satellite world as arrays, run side by side with the same world as
bodies.

``SatelliteScenario`` advances all agents and targets in one array pass per
step.  ``bodies.BodyWorld`` is the reference: the per-body arithmetic of
``tests/bodies.py`` and a pairwise communication loop.  The two must agree
bit for bit, so every comparison is exact.
"""

import copy
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bodies
from bodies import BodyWorld, world_from_bodies
from taskalloc import auction_baseline, dgba_run
from taskalloc.scenario import (
    FUEL_MEDIAN_FACTOR,
    AgentBody,
    ScenarioConfig,
    TargetBody,
    _horizon_powers,
    _transfer_costs,
    minimum_effort_cost,
    predict_target,
    rendezvous_control,
    rendezvous_point,
    sample_scenario,
    step_agent,
    step_target,
    survival_probability,
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_world(scen, ref):
    assert scen.agent_states[:, :3].tolist() == [a.position.tolist() for a in ref.agents]
    assert scen.agent_states[:, 3:].tolist() == [a.velocity.tolist() for a in ref.agents]
    assert scen.accrued_cost.tolist() == [a.accrued_cost for a in ref.agents]
    assert scen.target_states[:, :3].tolist() == [t.position.tolist() for t in ref.targets]
    assert scen.target_states[:, 3:].tolist() == [t.velocity.tolist() for t in ref.targets]
    assert np.array_equal(scen.adjacency(), ref.adjacency())
    assert scen.oracle().probs == ref.probs()
    q_hat, w_hat, _tau = scen._predicted_targets()[:3]
    assert q_hat.tolist() == [q.tolist() for q, _w in ref.predicted()]
    assert w_hat.tolist() == [w.tolist() for _q, w in ref.predicted()]
    assert same_bits(scen.pair_costs(), ref.pair_costs())


def run_both(agents, targets, config, schedule):
    """Build both worlds and advance them through ``schedule`` (one
    assignment dict per step), comparing them before the first step and
    after every step."""
    scen = world_from_bodies(agents, targets, config)
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
    probe = world_from_bodies([AgentBody(np.zeros(3), np.zeros(3), 0.3, math.inf)],
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
    scen = world_from_bodies([agent], [tgt], ScenarioConfig())
    q_hat, _w, _tau = scen._predicted_targets()[:3]
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


def as_lists(arrays):
    return [array.tolist() for array in arrays]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_per_body_helpers_give_the_reference_bits(seed):
    # Each helper is the one-row call of a kernel; callers that describe
    # the world body by body get the reference's bits.
    rng = np.random.default_rng(seed)
    (agent,), (tgt,) = random_bodies(rng, 1, 1)
    p, v, u = agent.position, agent.velocity, rng.uniform(-1.0, 1.0, size=3)
    now, dt = float(rng.uniform(0.0, tgt.final_time)), float(rng.uniform(1e-3, 1.0))
    assert (survival_probability(p, tgt.position, tgt.decay)
            == bodies.survival(p, tgt.position, tgt.decay))
    assert (as_lists(predict_target(tgt, tgt.final_time - now))
            == as_lists(bodies.predict(tgt, tgt.final_time - now)))
    r_hat, v_hat = rendezvous_point(p, tgt, now)
    assert as_lists((r_hat, v_hat)) == as_lists(bodies.aim_point(p, tgt, now))
    assert (rendezvous_control(p, v, r_hat, v_hat, now, tgt.final_time).tolist()
            == bodies.control(p, v, r_hat, v_hat, now, tgt.final_time).tolist())
    assert as_lists(step_agent(p, v, u, dt)) == as_lists(bodies.step_agent(p, v, u, dt))
    assert (as_lists(step_target(tgt.position, tgt.velocity, tgt.drag_coeff, dt))
            == as_lists(bodies.step_target(tgt.position, tgt.velocity, tgt.drag_coeff, dt)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 12, 40]), st.sampled_from([None, math.inf]))
def test_past_deadline_columns_cost_infinity(n, m, seed, n_steps, fuel):
    # Deadlines spread over the horizon and few steps, so the run crosses
    # them; infinite fuel leaves the infinite costs as the only bar.
    config = ScenarioConfig(n_steps=n_steps, end_time_range=(3.0, 20.0), fuel=fuel)
    rng = np.random.default_rng(seed)
    scen = sample_scenario(config, n, m, rng)
    for claims in random_schedule(rng, n, m, steps=n_steps + 1):
        passed = [final - scen.time <= scen.dt for final in scen.final_times]
        assert np.isinf(scen.pair_costs()).tolist() == [passed] * n
        assert scen.budgets().tolist() == (scen.fuel - scen.accrued_cost).tolist()
        scen.advance([claims.get(i, 0) for i in range(1, n + 1)])


def uncached(scen):
    """A deep copy of the world as it stands, with its round store dropped."""
    fresh = copy.deepcopy(scen)
    fresh._store = {}
    return fresh


def uncached_costs(scen):
    """The full cost matrix of the world as it stands, from a copy with its
    round store dropped."""
    return uncached(scen).pair_costs()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 12, 2000]))
def test_cost_rows_are_the_rows_of_the_full_matrix(n, m, seed, n_steps):
    # Every round caches the full matrix; on odd rounds rows are asked for
    # before that as well.  The reference is computed without the caches,
    # so a row served from the round before fails.
    config = ScenarioConfig(n_steps=n_steps, end_time_range=(3.0, 20.0))
    rng = np.random.default_rng(seed)
    scen = sample_scenario(config, n, m, rng)  # caches round 0 for the fuel
    for step, claims in enumerate(random_schedule(rng, n, m, steps=6)):
        full = uncached_costs(scen)
        subsets = [np.arange(0), np.arange(n),
                   np.sort(rng.permutation(n)[:rng.integers(1, n + 1)]),
                   rng.integers(0, n, size=3)]
        if step % 2:
            for rows in subsets:
                assert same_bits(scen.pair_costs(rows), full[rows])
        assert same_bits(scen.pair_costs(), full)
        for rows in subsets:
            assert same_bits(scen.pair_costs(rows), full[rows])
        scen.advance([claims.get(i, 0) for i in range(1, n + 1)])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 40, 2000]))
def test_predicted_targets_follow_the_moved_world(n, m, seed, n_steps):
    config = ScenarioConfig(n_steps=n_steps, end_time_range=(3.0, 20.0))
    rng = np.random.default_rng(seed)
    scen = sample_scenario(config, n, m, rng)
    for claims in random_schedule(rng, n, m, steps=4):
        scen._predicted_targets()  # cached for the round about to end
        scen.advance([claims.get(i, 0) for i in range(1, n + 1)])
        q_hat, w_hat, tau = scen._predicted_targets()[:3]
        for j, final in enumerate(scen.final_times):
            body = TargetBody(position=scen.target_states[j, :3],
                              velocity=scen.target_states[j, 3:],
                              info_value=scen.info_values[j], decay=scen.decays[j],
                              end_time=final, obs_duration=0.0,
                              obs_radius=scen.obs_radii[j],
                              drag_coeff=scen.drag_coeffs[j])
            q, w = bodies.predict(body, max(final - scen.time, 0.0))
            assert q_hat[j].tolist() == q.tolist()
            assert w_hat[j].tolist() == w.tolist()
            assert tau[j] == max(final - scen.time, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_transfer_costs_give_the_row_reference_bits(n, m, seed):
    # Horizons as the world floors them: passed (negative), zero and tiny
    # ones end at the 1e-12 floor, the rest span the window.
    rng = np.random.default_rng(seed)
    tau = rng.choice([-3.0, 0.0, 1e-15, 1e-12, 3e-12, 1e-6, 0.5, 20.0], size=m)
    horizons = np.maximum(tau * rng.uniform(0.5, 1.0, size=m), 1e-12)
    p, v = rng.uniform(0.0, 6.0, size=(n, 3)), rng.uniform(-0.2, 0.2, size=(n, 3))
    points = rng.uniform(0.0, 6.0, size=(n, m, 3))
    point_velocities = rng.uniform(-0.2, 0.2, size=(m, 3))
    costs = _transfer_costs(p[:, None, :], v[:, None, :], points, point_velocities,
                            _horizon_powers(horizons))
    for i in range(n):
        row = bodies.transfer_cost_row(p[i], v[i], points[i], point_velocities, horizons)
        assert same_bits(costs[i], row)
        for j in range(m):
            one = minimum_effort_cost(p[i], v[i], points[i, j], point_velocities[j],
                                      float(horizons[j]))
            assert same_bits(one, row[j])


STATE_ARRAYS = ("agent_states", "target_states", "comm_factors", "fuel", "accrued_cost")


def state_of(scen):
    return [getattr(scen, name).copy() for name in STATE_ARRAYS] + [scen.time]


def same_state(a, b):
    return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))


def run_record(result):
    return (sorted(result.policy), result.utility, result.messages, result.rounds,
            [(rec.newly_finalized, rec.groups, rec.increment, rec.utility,
              rec.messages, rec.cumulative_cost) for rec in result.trace])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 12, 2000]), st.sampled_from([None, 0.05]))
def test_runs_on_a_copy_equal_runs_on_a_deep_copy(n, m, seed, n_steps, fuel):
    config = ScenarioConfig(n_steps=n_steps, end_time_range=(3.0, 20.0), fuel=fuel)
    base = sample_scenario(config, n, m, np.random.default_rng(seed))
    before = state_of(base)
    for solver in (dgba_run, auction_baseline):
        shallow, deep = solver(base.copy()), solver(copy.deepcopy(base))
        assert run_record(shallow) == run_record(deep)
        assert same_bits(shallow.per_agent_cost, deep.per_agent_cost)
    assert same_state(state_of(base), before)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 12, 2000]))
def test_copies_run_apart(n, m, seed, n_steps):
    config = ScenarioConfig(n_steps=n_steps, end_time_range=(3.0, 20.0))
    rng = np.random.default_rng(seed)
    base = sample_scenario(config, n, m, rng)
    before = state_of(base)
    one, two = base.copy(), base.copy()
    one.advance(rng.integers(0, m + 1, size=n))
    moved = state_of(one)
    assert same_state(state_of(base), before) and same_state(state_of(two), before)
    for name in STATE_ARRAYS:
        getattr(two, name)[...] = 7.0
    assert same_state(state_of(base), before) and same_state(state_of(one), moved)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 12, 2000]))
def test_copies_share_a_round_store_until_one_advances(n, m, seed, n_steps):
    # The copies of a round read the oracle and costs built for it once; a
    # copy that advances, and every copy after that, answers for its own
    # world.  The reference is computed without the store.
    config = ScenarioConfig(n_steps=n_steps, end_time_range=(3.0, 20.0))
    rng = np.random.default_rng(seed)
    base = sample_scenario(config, n, m, rng)
    oracle, costs = base.oracle(), base.pair_costs()
    one, two = base.copy(), base.copy()
    assert one.oracle() is two.oracle() is oracle
    assert one.pair_costs() is two.pair_costs() is costs
    for step, claims in enumerate(random_schedule(rng, n, m, steps=4)):
        (one, two)[step % 2].advance([claims.get(i, 0) for i in range(1, n + 1)])
        for world in (base, one, two):
            fresh = uncached(world)
            assert same_bits(world.oracle().prob_table, fresh.oracle().prob_table)
            assert world.oracle().values == fresh.oracle().values
            assert same_bits(world.pair_costs(), fresh.pair_costs())


def body_sample(config, n, m, rng):
    """``sample_scenario`` as it was written body by body: each agent's
    position and velocity, then each target's position, velocity,
    information value, window end, observation duration and radius, each
    drawn with ``rng.uniform``."""
    def uniform3(lo, hi):
        return rng.uniform(lo, hi, size=3)

    agents = [
        AgentBody(position=uniform3(0.0, config.box_side),
                  velocity=uniform3(-config.initial_speed, config.initial_speed),
                  comm_factor=config.comm_factor, fuel=math.inf)
        for _ in range(n)
    ]
    targets = [
        TargetBody(position=uniform3(0.0, config.box_side),
                   velocity=uniform3(-config.initial_speed, config.initial_speed),
                   info_value=float(rng.uniform(*config.info_value_range)),
                   decay=config.decay,
                   end_time=float(rng.uniform(*config.end_time_range)),
                   obs_duration=float(rng.uniform(*config.obs_duration_range)),
                   obs_radius=float(rng.uniform(*config.obs_radius_range)),
                   drag_coeff=config.drag_coeff)
        for _ in range(m)
    ]
    scen = world_from_bodies(agents, targets, config)
    if config.fuel is not None:
        scen.fuel[:] = float(config.fuel)
    else:
        costs = scen.pair_costs()
        finite = costs[np.isfinite(costs)]
        scen.fuel[:] = (FUEL_MEDIAN_FACTOR * float(np.median(finite))
                        if finite.size else 0.0)
    return scen


SAMPLED_CONFIGS = [
    {},
    {"n_steps": 2, "end_time_range": (5.0, 30.0)},
    {"box_side": 2.5, "initial_speed": 0.0, "fuel": 3.0, "comm_factor": 0.6},
    {"decay": 1.3, "drag_coeff": 0.0, "obs_radius_range": (0.5, 0.5),
     "info_value_range": (1.0, 4.0), "obs_duration_range": (0.0, 3.0)},
]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(SAMPLED_CONFIGS))
def test_sampler_draws_the_body_by_body_world(n, m, seed, overrides):
    config = ScenarioConfig(**overrides)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    scen, ref = sample_scenario(config, n, m, rng), body_sample(config, n, m, ref_rng)
    for name in ("agent_states", "target_states", "comm_factors", "fuel",
                 "accrued_cost", "obs_radii", "_loiter_costs"):
        assert same_bits(getattr(scen, name), getattr(ref, name)), name
    for name in ("final_times", "info_values", "decays", "drag_coeffs", "dt"):
        assert same_bits(getattr(scen, name), getattr(ref, name)), name
    assert (scen.n_agents, scen.n_targets) == (ref.n_agents, ref.n_targets)
    assert same_bits(scen.pair_costs(), ref.pair_costs())
    # Both took the same number of draws from the stream.
    assert rng.random() == ref_rng.random()
