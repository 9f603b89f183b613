"""Tests for the satellite scenario: dynamics, controllers, costs, graph."""

import math

import numpy as np
import pytest

import bodies
from bodies import world_from_bodies
from taskalloc.core import ContractViolation, make_policy
from taskalloc.scenario import (
    ORBIT_SPEED,
    AgentBody,
    NumericalBlowupError,
    SatelliteScenario,
    ScenarioConfig,
    TargetBody,
    build_comm_graph,
    estimate_pair_cost,
    loiter_cost,
    minimum_effort_cost,
    observation_utility,
    predict_target,
    rendezvous_control,
    rendezvous_point,
    sample_scenario,
    step_agent,
    step_dynamics,
    survival_probability,
)


def make_target(position, velocity=(0, 0, 0), drag=0.0, end_time=12.0,
                obs_duration=2.0, obs_radius=1.0):
    return TargetBody(
        position=np.asarray(position, float),
        velocity=np.asarray(velocity, float),
        info_value=2.0,
        decay=0.8,
        end_time=end_time,
        obs_duration=obs_duration,
        obs_radius=obs_radius,
        drag_coeff=drag,
    )


class TestSurvivalProbability:
    def test_one_at_zero_distance(self):
        assert survival_probability([1, 2, 3], [1, 2, 3], 0.8) == 1.0

    def test_distance_one(self):
        got = survival_probability([0, 0, 0], [1, 0, 0], 0.8)
        assert got == pytest.approx(math.exp(-0.8), abs=1e-15)

    def test_strictly_decreasing_in_distance(self):
        p1 = survival_probability([0, 0, 0], [1, 0, 0], 0.8)
        p2 = survival_probability([0, 0, 0], [2, 0, 0], 0.8)
        assert p2 < p1

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(ContractViolation):
            survival_probability([0, 0, 0], [1, 0, 0], 0.0)


class TestObservationUtility:
    AGENTS = [np.zeros(3), np.array([1.0, 0, 0])]
    TARGETS = [np.array([1.0, 0, 0]), np.array([3.0, 0, 0])]
    VALUES = [2.0, 1.5]
    DECAYS = [0.8, 0.8]

    def test_empty_policy_is_zero(self):
        total, per = observation_utility(
            frozenset(), self.AGENTS, self.TARGETS, self.VALUES, self.DECAYS)
        assert total == 0.0 and per == [0.0, 0.0]

    def test_total_is_sum_of_per_target(self):
        pol = make_policy([(1, 1), (2, 2)])
        total, per = observation_utility(
            pol, self.AGENTS, self.TARGETS, self.VALUES, self.DECAYS)
        assert total == pytest.approx(sum(per), abs=1e-15)

    def test_second_observer_raises_coverage(self):
        one = make_policy([(1, 1)])
        both = make_policy([(1, 1), (2, 1)])
        t1, _ = observation_utility(one, self.AGENTS, self.TARGETS,
                                    self.VALUES, self.DECAYS)
        t2, _ = observation_utility(both, self.AGENTS, self.TARGETS,
                                    self.VALUES, self.DECAYS)
        assert t2 > t1


class TestDynamics:
    def test_step_agent_exact_for_constant_accel(self):
        p0, v0 = np.array([1.0, 0, 0]), np.array([0.0, 2.0, 0])
        u = np.array([0.5, -1.0, 0.25])
        dt = 0.37
        p, v = step_agent(p0, v0, u, dt)
        assert p == pytest.approx(p0 + v0 * dt + 0.5 * u * dt ** 2, abs=1e-12)
        assert v == pytest.approx(v0 + u * dt, abs=1e-12)

    def test_predict_target_matches_integration(self):
        tgt = make_target([0, 0, 0], velocity=[1.0, -0.5, 0.2], drag=0.3)
        horizon = 2.0
        pos, vel = predict_target(tgt, horizon)
        # Integrate the same drag dynamics numerically.
        p, v = tgt.position.copy(), tgt.velocity.copy()
        dt = horizon / 4000
        for _ in range(4000):
            p = p + v * dt + 0.5 * (-0.3 * v) * dt ** 2
            v = v * (1 - 0.3 * dt + 0.5 * (0.3 * dt) ** 2)
        assert pos == pytest.approx(p, abs=1e-4)
        assert vel == pytest.approx(v, abs=1e-4)

    def test_fuel_exhausted_agent_coasts(self):
        out_agents, _, increments = step_dynamics(
            np.zeros((1, 6)), np.array([[10.0, 0, 0]]), np.zeros(1),
            np.array([1e-9]), np.array([[5.0, 0, 0, 0, 0, 0]]), [0.0], dt=0.1)
        assert increments.tolist() == [0.0]
        assert np.allclose(out_agents[0, :3], 0.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ContractViolation):
            step_dynamics(np.zeros((1, 6)), np.zeros((1, 3)), np.zeros(1),
                          np.ones(1), np.zeros((0, 6)), [], dt=0.0)

    @pytest.mark.parametrize("kind, row", [("agent", 1), ("target", 0)])
    def test_non_finite_state_raises(self, kind, row):
        # A speed near the float maximum overflows the position in one step.
        agents, targets = np.zeros((2, 6)), np.zeros((1, 6))
        (agents if kind == "agent" else targets)[row, 3] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalBlowupError, match=f"non-finite {kind} state after step: row {row} "):
            step_dynamics(agents, np.zeros((2, 3)), np.zeros(2), np.ones(2),
                          targets, [0.0], dt=10.0)


class TestRendezvousController:
    def test_terminal_error_static_target(self):
        tgt = make_target([4.0, 3.0, 1.0], end_time=12.0, obs_duration=2.0)
        p = np.array([0.0, 0.0, 0.0])
        v = np.zeros(3)
        t_final = tgt.final_time
        r_hat, v_hat = rendezvous_point(p, tgt, 0.0)
        dt = t_final / 2000
        t = 0.0
        for _ in range(2000):
            u = rendezvous_control(p, v, r_hat, v_hat, t, t_final)
            p, v = step_agent(p, v, u, dt)
            t += dt
        travel = np.linalg.norm(r_hat - np.zeros(3))
        assert np.linalg.norm(p - r_hat) / travel < 1e-3
        assert np.linalg.norm(v - v_hat) < 1e-3

    def test_terminal_error_moving_dragged_target(self):
        tgt = make_target([4.0, 3.0, 1.0], velocity=[0.2, -0.1, 0.05],
                          drag=0.05, end_time=12.0, obs_duration=2.0)
        p = np.array([0.0, 0.0, 0.0])
        v = np.array([0.1, 0.0, -0.1])
        t_final = tgt.final_time
        r_hat, v_hat = rendezvous_point(p, tgt, 0.0)
        dt = t_final / 2000
        t = 0.0
        for _ in range(2000):
            u = rendezvous_control(p, v, r_hat, v_hat, t, t_final)
            p, v = step_agent(p, v, u, dt)
            t += dt
        travel = np.linalg.norm(r_hat - np.zeros(3))
        assert np.linalg.norm(p - r_hat) / travel < 1e-3

    def test_aim_point_on_observation_circle(self):
        tgt = make_target([4.0, 0.0, 0.0], obs_radius=1.2)
        r_hat, _ = rendezvous_point(np.zeros(3), tgt, 0.0)
        assert np.linalg.norm(r_hat - tgt.position) == pytest.approx(1.2)


class TestPairCosts:
    def test_rest_to_rest_matches_analytic(self):
        p0 = np.zeros(3)
        point = np.array([3.0, -2.0, 1.0])
        horizon = 7.0
        analytic = 6.0 * float(point @ point) / horizon ** 3
        got = minimum_effort_cost(p0, np.zeros(3), point, np.zeros(3), horizon)
        assert got == pytest.approx(analytic, rel=1e-12)

    def test_simulated_cost_matches_closed_form_within_one_percent(self):
        tgt = make_target([4.0, 3.0, 0.0], end_time=12.0, obs_duration=2.0)
        agent = AgentBody(position=np.zeros(3), velocity=np.zeros(3),
                          comm_factor=0.3, fuel=math.inf)
        t_e = tgt.end_time
        pc = estimate_pair_cost(agent, tgt, time_now=0.0, dt=t_e / 2000)
        r_hat, _ = rendezvous_point(agent.position, tgt, 0.0)
        dp = r_hat - agent.position
        analytic = 6.0 * float(dp @ dp) / tgt.final_time ** 3
        assert pc.feasible
        assert pc.maneuver == pytest.approx(analytic, rel=0.01)

    def test_expired_deadline_is_infeasible(self):
        tgt = make_target([1.0, 0, 0], end_time=2.0, obs_duration=1.9)
        agent = AgentBody(position=np.zeros(3), velocity=np.zeros(3),
                          comm_factor=0.3, fuel=math.inf)
        pc = estimate_pair_cost(agent, tgt, time_now=0.5, dt=0.01)
        assert not pc.feasible and pc.total == math.inf

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, horizon):
        with pytest.raises(ContractViolation, match="horizon"):
            minimum_effort_cost(np.zeros(3), np.zeros(3), np.ones(3), np.zeros(3), horizon)

    def test_loiter_cost_formula(self):
        assert loiter_cost(0.5, 1.0, 2.0) == pytest.approx(
            0.5 * (0.5 ** 2 / 1.0) ** 2 * 2.0)


class TestCommGraph:
    def test_within_range_linked(self):
        adj = build_comm_graph([[0.0, 0, 0], [1.0, 0, 0]], [0.5, 0.5],
                               domain_diameter=4.0)
        assert adj[0, 1] == adj[1, 0] == 1.0

    def test_min_factor_rule(self):
        # The weaker radio decides: factor 0.1 * diameter 4 = 0.4 < distance.
        adj = build_comm_graph([[0.0, 0, 0], [1.0, 0, 0]], [0.9, 0.1],
                               domain_diameter=4.0)
        assert adj[0, 1] == 0.0

    def test_zero_diagonal(self):
        adj = build_comm_graph(np.zeros((2, 3)), [0.5, 0.5], domain_diameter=4.0)
        assert np.all(np.diag(adj) == 0)

    def test_nonpositive_diameter_rejected(self):
        with pytest.raises(ContractViolation, match="diameter"):
            build_comm_graph(np.zeros((2, 3)), [0.5, 0.5], domain_diameter=0.0)


class TestScenarioConfig:
    @pytest.mark.parametrize("overrides", [
        {"n_steps": 0},
        {"box_side": 0.0},
        {"box_side": math.inf},
        {"initial_speed": -0.1},
        {"decay": 0.0},
        {"decay": math.nan},
        {"end_time_range": (3.0, 2.0)},
        {"obs_duration_range": (2.0, math.inf)},
        {"info_value_range": (math.nan, 2.0)},
        {"obs_radius_range": (0.0, 1.0)},
        {"obs_radius_range": (1.0,)},
        {"decay": math.inf},
        {"info_value_range": (-1.0, 2.0)},
        {"obs_duration_range": (30.0, 31.0)},
        {"end_time_range": (2.5, 3.0), "obs_duration_range": (2.0, 2.5)},
        {"obs_duration_range": (-30.0, -20.0)},
        {"obs_duration_range": (-0.5, 2.0)},
    ])
    def test_malformed_setting_rejected(self, overrides):
        with pytest.raises(ContractViolation):
            ScenarioConfig(**overrides)

    def test_degenerate_intervals_accepted(self):
        cfg = ScenarioConfig(initial_speed=0.0, obs_radius_range=(1.0, 1.0))
        scen = sample_scenario(cfg, 5, 5, np.random.default_rng(3))
        assert (scen.agent_states[:, 3:] == 0.0).all()
        assert scen.obs_radii.tolist() == [1.0] * 5

    def test_window_closing_before_it_opens_rejected(self):
        with pytest.raises(ContractViolation, match="window closes"):
            ScenarioConfig(end_time_range=(1.0, 1.5), obs_duration_range=(2.0, 2.5))


class TestBodyChecks:
    @pytest.mark.parametrize("end_time, obs_radius, match", [
        (2.0, 1.0, "window closes"),
        (12.0, 0.0, "radius must be positive"),
    ])
    def test_target_body(self, end_time, obs_radius, match):
        with pytest.raises(ContractViolation, match=match):
            make_target([1.0, 0, 0], end_time=end_time, obs_duration=2.0,
                        obs_radius=obs_radius)

    @pytest.mark.parametrize("end_time, obs_radius, match", [
        (2.0, 1.0, "window closes"),
        (12.0, -1.0, "radius must be positive"),
    ])
    def test_scenario_rows(self, end_time, obs_radius, match):
        with pytest.raises(ContractViolation, match=match):
            SatelliteScenario(
                ScenarioConfig(), agent_states=np.zeros((1, 6)), comm_factors=[0.3],
                fuel=[1.0], accrued_cost=[0.0], target_states=np.zeros((1, 6)),
                info_values=[2.0], decays=[0.8], drag_coeffs=[0.0],
                end_times=[end_time], obs_durations=[2.0], obs_radii=[obs_radius])


class TestSampledScenario:
    def test_reproducible_from_seed(self):
        cfg = ScenarioConfig()
        s1 = sample_scenario(cfg, 3, 3, np.random.default_rng(11))
        s2 = sample_scenario(cfg, 3, 3, np.random.default_rng(11))
        assert np.array_equal(s1.agent_states, s2.agent_states)
        assert s1.pair_costs()[0, 0] == s2.pair_costs()[0, 0]

    def test_oracle_tracks_positions(self):
        cfg = ScenarioConfig()
        scen = sample_scenario(cfg, 2, 2, np.random.default_rng(4))
        before = scen.oracle().evaluate(make_policy([(1, 1)]))
        scen.advance([1, 0])
        after = scen.oracle().evaluate(make_policy([(1, 1)]))
        assert before != after  # the world moved

    def test_budget_set_from_median_pair_cost(self):
        cfg = ScenarioConfig()
        scen = sample_scenario(cfg, 3, 3, np.random.default_rng(8))
        estimates = [scen.pair_costs()[i, j]
                     for i in (0, 1, 2) for j in (0, 1, 2)]
        assert scen.fuel[0] == pytest.approx(
            10.0 * float(np.median(estimates)))

    def test_budget_from_the_finite_pair_costs_only(self):
        # Two steps span half the deadlines: half the pair costs are
        # infinite, and so is the median over all of them.
        cfg = ScenarioConfig(n_steps=2, end_time_range=(5.0, 30.0))
        scen = sample_scenario(cfg, 3, 4, np.random.default_rng(4))
        costs = scen.pair_costs()
        finite = costs[np.isfinite(costs)]
        assert 0 < finite.size <= costs.size / 2
        assert scen.fuel.tolist() == [10.0 * float(np.median(finite))] * 3

    def test_no_budget_when_no_pair_cost_is_finite(self):
        # One step spans every deadline.
        cfg = ScenarioConfig(n_steps=1)
        scen = sample_scenario(cfg, 2, 2, np.random.default_rng(4))
        assert np.isinf(scen.pair_costs()).all()
        assert scen.fuel.tolist() == [0.0, 0.0]

    def test_assigned_agent_coasts_after_its_deadline(self):
        cfg = ScenarioConfig()
        scen = sample_scenario(cfg, 2, 2, np.random.default_rng(4))
        scen._round = int(scen.final_times[0] / scen.dt) + 1
        scen._costs = scen._predicted = None  # as ``advance`` ends a round
        before = scen.agent_states[0].copy(), scen.accrued_cost[0]
        scen.advance([1, 0])
        assert scen.agent_states[0, 3:].tolist() == before[0][3:].tolist()
        assert scen.accrued_cost[0] == before[1]

    def test_cost_row_matches_closed_form(self):
        cfg = ScenarioConfig()
        body = AgentBody(position=[0.5, 1.0, 2.0], velocity=[0.1, -0.2, 0.05],
                         comm_factor=0.3, fuel=math.inf)
        targets = [make_target([4.0, 3.0, 1.0], velocity=[0.2, -0.1, 0.05],
                               drag=0.05, end_time=19.5),
                   make_target([1.0, 5.0, 2.0], drag=0.05, end_time=19.2,
                               obs_radius=1.1),
                   make_target([0.5, 1.0, 2.0], end_time=19.8)]
        scen = world_from_bodies([body, body], targets, cfg)
        row = scen.pair_costs()[0]
        for j, tgt in enumerate(targets, start=1):
            r_hat, v_hat = bodies.aim_point(body.position, tgt, 0.0)
            expected = bodies.transfer_cost(
                body.position, body.velocity, r_hat, v_hat, tgt.final_time
            ) + loiter_cost(ORBIT_SPEED, tgt.obs_radius, tgt.obs_duration)
            assert row[j - 1] == pytest.approx(expected, rel=1e-9)

    def test_pair_cost_row_is_a_row_of_pair_costs(self):
        # The one test of the one-row query; every other test reads rows of
        # pair_costs(), so the query can go once nothing else wraps it.
        scen = sample_scenario(ScenarioConfig(), 3, 4, np.random.default_rng(5))
        scen.advance(np.array([1, 0, 2]))
        for i in range(1, 4):
            assert scen.pair_cost_row(i) == scen.pair_costs()[i - 1].tolist()
