"""Tests for the experiment harness: pairing, determinism, outputs."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from taskalloc import harness, scenario
from taskalloc.harness import (
    ConfigError,
    _run_one,
    ExperimentConfig,
    measure_scaling,
    random_bound_instance,
    run_bound_instance,
    run_experiment,
    sample_draw,
    verify_bound_suite,
    write_outputs,
)


def small_config(**kwargs):
    defaults = dict(seed=7, draws=3, sizes=[(3, 3)], solvers=["dgba", "auction"])
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.seed == 42 and cfg.sizes == [(5, 5)]

    def test_from_dict_sets_scenario_by_field_name(self):
        cfg = ExperimentConfig.from_dict({
            "seed": 1,
            "scenario": {"decay": 0.5, "comm_factor": 0.2},
        })
        assert cfg.scenario.decay == 0.5
        assert cfg.scenario.comm_factor == 0.2

    def test_round_trips_through_dict(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("raw, match", [([1, 2], "root must be a mapping"),
                                            ({"scenario": [1]}, "'scenario' must be a mapping")])
    def test_non_mapping_rejected(self, raw, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(raw)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_horizon_is_not_a_config_key(self):
        # A run is bounded by its world's default_horizon(); nothing sets it.
        with pytest.raises(ConfigError, match="unknown config key 'horizon'"):
            ExperimentConfig.from_dict({"horizon": 3})

    # Each setting has one name, the one summary.json reports: no ``lambda``
    # or ``phi`` aliases, and the team size is set by ``sizes`` alone.
    @pytest.mark.parametrize("key", ["bogus", "lambda", "phi", "n_agents", "n_targets"])
    def test_unknown_scenario_key_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^unknown scenario key '{key}'$"):
            ExperimentConfig.from_dict({"scenario": {key: 1}})

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError):
            small_config(solvers=["dgba", "magic"])

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigError):
            small_config(sizes=[(0, 3)])

    def test_exact_solver_capped(self):
        with pytest.raises(ConfigError):
            small_config(sizes=[(30, 30)], solvers=["exact"])

    @pytest.mark.parametrize("overrides", [
        {"seed": -1},
        {"seed": 1.5},
        {"draws": 0},
        {"draws": 1.5},
        {"draws": True},
        {"sizes": [(2.5, 3)]},
        {"sizes": [(3, True)]},
        {"sizes": [(3, 3), (2, 3.0)]},
        {"solvers": ["dgba", "dgba"]},
        {"sizes": [(3, 3), (4, 4), (3, 3)]},
        {"sizes": []},
        {"solvers": []},
    ])
    def test_malformed_setting_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize("scenario", [
        {"end_time_range": 5},
        {"end_time_range": ["a", "b"]},
        {"end_time_range": "19"},
        {"end_time_range": [True, 2]},
        {"n_steps": 2.5},
        {"n_steps": True},
        {"fuel": -1},
        {"fuel": float("nan")},
        {"comm_factor": -1},
        {"comm_factor": float("nan")},
        {"drag_coeff": -0.5},
        {"drag_coeff": float("inf")},
        {"decay": True},
        {"decay": float("inf")},
        {"box_side": True},
        {"fuel": True},
        {"comm_factor": True},
        {"drag_coeff": True},
        {"initial_speed": False},
    ])
    def test_malformed_scenario_setting_rejected_from_dict(self, scenario):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": scenario})

    def test_integer_and_unbounded_scenario_settings_accepted(self):
        # Only bools are refused: integers are numbers, and infinite fuel
        # or reach means no limit.
        for scenario in ({"decay": 1, "box_side": 6, "fuel": 2, "comm_factor": 1,
                          "drag_coeff": 0, "initial_speed": 0},
                         {"fuel": float("inf"), "comm_factor": float("inf")}):
            cfg = ExperimentConfig.from_dict({"scenario": scenario})
            assert {key: getattr(cfg.scenario, key) for key in scenario} == scenario

    def test_unbounded_fuel_accepted(self):
        cfg = ExperimentConfig.from_dict({"scenario": {"fuel": float("inf"),
                                                       "end_time_range": [19, 20]}})
        assert cfg.scenario.fuel == float("inf")
        assert cfg.scenario.end_time_range == (19.0, 20.0)

    def test_malformed_sizes_rejected_from_dict(self):
        # Each count is checked as it stands, not rounded by int().
        with pytest.raises(ConfigError, match="2.5"):
            ExperimentConfig.from_dict({"sizes": [[2.5, 3], [True, 2]]})
        assert ExperimentConfig.from_dict({"sizes": [[np.int64(2), 3]]}).sizes == [(2, 3)]

    def test_dict_leaves_team_size_to_sizes(self):
        scen = small_config(sizes=[(3, 3), (4, 2)]).to_dict()["scenario"]
        assert "n_agents" not in scen and "n_targets" not in scen


def interval(*edges):
    return st.tuples(st.sampled_from(edges), st.sampled_from(edges)).map(sorted)


EDGE_SCENARIOS = st.fixed_dictionaries({
    "comm_factor": st.sampled_from([0.0, 1e-9, 0.3, 1.0, math.inf]),
    "decay": st.sampled_from([1e-9, 0.8, 50.0, 1e6]),
    "drag_coeff": st.sampled_from([0.0, 1e-9, 0.05, 5.0, 1e3]),
    "box_side": st.sampled_from([1e-6, 6.0, 1e6]),
    "initial_speed": st.sampled_from([0.0, 0.2, 1e3]),
    "end_time_range": interval(0.5, 1.0, 19.0, 20.0, 1000.0, 3000.0),
    "obs_duration_range": interval(-1.0, 0.0, 1e-9, 0.4, 2.5, 30.0),
    "obs_radius_range": interval(0.0, 1e-9, 1.0, 1.15, 1e3),
    "info_value_range": interval(-1.0, 0.0, 2.0, 2.5, 1e6),
    "n_steps": st.sampled_from([1, 2, 5, 40, 2000]),
    "fuel": st.sampled_from([None, 0.0, 1e-9, 1.0, math.inf]),
})


@seed(18)
@settings(max_examples=150, deadline=None)
@given(EDGE_SCENARIOS, st.integers(1, 6), st.integers(1, 6), st.integers(1, 2))
@example({"info_value_range": (-1.0, 2.0)}, 3, 3, 1)
@example({"obs_duration_range": (30.0, 31.0)}, 3, 3, 1)
@example({"drag_coeff": 5.0, "end_time_range": (1000.0, 3000.0), "n_steps": 2}, 6, 6, 2)
def test_scenario_config_is_refused_or_runs_clean(scenario, n, m, draws):
    # Values at the edges of what ScenarioConfig accepts: a config either
    # fails its check or every run of it is clean.  The examples are a
    # negative information value, a window that closes before it opens,
    # and deadlines passed so far that exp(-drag * horizon) would overflow.
    try:
        config = ExperimentConfig.from_dict({"seed": 0, "draws": draws, "sizes": [[n, m]],
                                             "scenario": scenario})
    except ConfigError:
        return
    result = run_experiment(config)
    assert result.errors == []
    for run in result.metrics:
        assert all(math.isfinite(u) for u in run.utility)
        assert all(math.isfinite(c) for c in run.per_agent_cost)


class TestRunExperiment:
    def test_all_solvers_report_all_draws(self):
        res = run_experiment(small_config())
        assert len(res.metrics) == 6  # 2 solvers x 3 draws
        assert not res.errors

    def test_dgba_series_non_decreasing(self):
        res = run_experiment(small_config())
        for run in res.metrics:
            if run.solver != "dgba":
                continue
            assert all(b >= a - 1e-12
                       for a, b in zip(run.utility, run.utility[1:]))

    def test_certificates_attached_when_exact_present(self):
        res = run_experiment(small_config(solvers=["dgba", "exact"]))
        certs = [r.certificate for r in res.metrics if r.solver == "dgba"]
        assert all(c is not None for c in certs)
        assert all(c.half_bound_holds for c in certs)

    def test_aggregates_count_certificates_above_one_half(self):
        # With one target kappa_e < 1, so both thresholds are above 1/2;
        # with three, kappa_e = 1 and both are exactly 1/2.
        config = small_config(sizes=[(3, 3), (3, 1)], solvers=["dgba", "exact"])
        res = run_experiment(config)
        counts = {}
        for size_index, (n, m) in enumerate(config.sizes):
            certs = []
            for draw in range(config.draws):
                base = harness.sample_draw(config, size_index, draw)
                final = {r.solver: r.final_utility for r in res.metrics
                         if r.draw == draw and (r.n_agents, r.n_targets) == (n, m)}
                certs.append(harness._certify(base.oracle(), base.pair_costs().tolist(),
                                              final["dgba"], final["exact"]))
            agg = res.aggregates[f"dgba/N{n}M{m}"]
            counts[n, m] = (agg["certificates_curvature_above_half"],
                            agg["certificates_q_system_above_half"])
            assert counts[n, m] == (sum(c.curvature_threshold > 0.5 for c in certs),
                                    sum(c.q_system_threshold > 0.5 for c in certs))
            exact = res.aggregates[f"exact/N{n}M{m}"]
            assert exact["certificates_curvature_above_half"] == 0
            assert exact["certificates_q_system_above_half"] == 0
        assert counts == {(3, 3): (0, 0), (3, 1): (3, 3)}

    def test_aggregates_match_metrics(self):
        res = run_experiment(small_config())
        agg = res.aggregates["dgba/N3M3"]
        finals = [r.final_utility for r in res.metrics if r.solver == "dgba"]
        assert agg["mean_final_utility"] == pytest.approx(
            float(np.mean(finals)), abs=1e-12)


    def test_one_oracle_per_draw_built_before_the_runs(self, monkeypatch):
        # The draw's runs and its certificate read the oracle of the base
        # world's round 0, so neither distributed run's wall time holds it.
        harness._warm_up()
        events = []
        build = scenario.position_oracle
        monkeypatch.setattr(scenario, "position_oracle",
                            lambda *args: events.append("oracle") or build(*args))
        for name in ("dgba_run", "auction_baseline"):
            monkeypatch.setattr(harness, name, lambda world, _run=getattr(harness, name),
                                _name=name: events.append(_name) or _run(world))
        res = run_experiment(small_config(solvers=["dgba", "auction", "exact"], draws=2))
        assert not res.errors
        assert events == ["oracle", "dgba_run", "auction_baseline"] * 2

    def test_centralized_solvers_report_planned_pair_costs(self):
        cfg = small_config(solvers=["greedy", "exact"])
        res = run_experiment(cfg)
        for run in res.metrics:
            base = sample_draw(cfg, 0, run.draw)
            result, _wall = _run_one(run.solver, base)
            assert result.policy
            planned = [0.0] * base.n_agents
            for el in result.policy:
                planned[el.agent - 1] = base.pair_costs()[el.agent - 1, el.target - 1]
            assert run.per_agent_cost == planned
        for name in ("greedy", "exact"):
            assert res.aggregates[f"{name}/N3M3"]["mean_total_cost"] > 0.0

    def test_centralized_outputs_pinned(self):
        # Greedy and exact on one 3x3 draw where they differ: the policy,
        # utility and planned cost per agent, recorded before the round
        # driver kept per-target tallies.
        cfg = small_config(draws=1, solvers=["greedy", "exact"])
        pins = {
            "greedy": ([(1, 1), (2, 3), (3, 2)], 1.553308722800529,
                       [0.12264616869526077, 0.07355032991413177, 0.0717324035324087]),
            "exact": ([(1, 2), (2, 3), (3, 1)], 1.5577941165314264,
                      [0.07251340829183478, 0.07355032991413177, 0.08829195593282313]),
        }
        for name, (policy, utility, planned) in pins.items():
            result, _wall = _run_one(name, sample_draw(cfg, 0, 6))
            assert sorted(tuple(el) for el in result.policy) == policy
            assert repr(result.utility) == repr(utility)
            assert repr([float(c) for c in result.per_agent_cost]) == repr(planned)

    def test_certifies_a_draw_with_unservable_pairs(self):
        # One step spans every deadline, so every pair costs infinity and
        # no agent has fuel.
        cfg = small_config(draws=1, sizes=[(2, 2)], solvers=["dgba", "exact"])
        cfg.scenario.n_steps = 1
        res = run_experiment(cfg)
        assert not res.errors
        dgba, exact = res.metrics
        assert dgba.final_utility == exact.final_utility == 0.0
        assert dgba.certificate.half_bound_holds

    def test_certification_failure_is_a_draw_error(self, monkeypatch):
        def fail(*args):
            raise ValueError("no certificate")

        monkeypatch.setattr(harness, "_certify", fail)
        res = run_experiment(small_config(draws=2, solvers=["dgba", "exact"]))
        assert res.errors == [
            {"solver": "dgba", "size": [3, 3], "draw": draw,
             "message": "certificate: ValueError: no certificate"}
            for draw in (0, 1)
        ]
        assert [(r.solver, r.draw) for r in res.metrics] == [
            ("dgba", 0), ("exact", 0), ("dgba", 1), ("exact", 1)]
        assert all(r.certificate is None for r in res.metrics)

    def test_failing_solver_is_a_draw_error(self, monkeypatch):
        clean = run_experiment(small_config(draws=2))
        real = harness._run_one

        def auction_fails(name, base):
            if name == "auction":
                raise ValueError("auction down")
            return real(name, base)

        monkeypatch.setattr(harness, "_run_one", auction_fails)
        res = run_experiment(small_config(draws=2))
        assert res.errors == [
            {"solver": "auction", "size": [3, 3], "draw": draw,
             "message": "ValueError: auction down"}
            for draw in (0, 1)
        ]
        assert [(r.solver, r.draw) for r in res.metrics] == [("dgba", 0), ("dgba", 1)]
        kept = [r for r in clean.metrics if r.solver == "dgba"]
        assert [(r.utility, r.messages, r.cumulative_cost) for r in res.metrics] == \
            [(r.utility, r.messages, r.cumulative_cost) for r in kept]

    def test_failing_draw_sampling_is_a_draw_error(self, monkeypatch):
        clean = run_experiment(small_config(draws=3))
        real, calls = harness.sample_scenario, []

        def second_draw_fails(config, n, m, rng):
            if n == 3:  # not the 2 x 2 warm-up world
                calls.append(n)
                if len(calls) == 2:
                    raise ValueError("no world")
            return real(config, n, m, rng)

        monkeypatch.setattr(harness, "sample_scenario", second_draw_fails)
        res = run_experiment(small_config(draws=3))
        assert res.errors == [
            {"solver": name, "size": [3, 3], "draw": 1,
             "message": "sampling: ValueError: no world"}
            for name in ("dgba", "auction")
        ]
        kept = [r for r in clean.metrics if r.draw != 1]
        assert [(r.solver, r.draw, r.utility, r.messages) for r in res.metrics] == \
            [(r.solver, r.draw, r.utility, r.messages) for r in kept]

    def test_every_run_failing_fails_the_experiment(self, monkeypatch):
        def fail(name, base):
            raise ValueError(f"{name} down")

        monkeypatch.setattr(harness, "_run_one", fail)
        with pytest.raises(RuntimeError) as info:
            run_experiment(small_config(draws=1))
        assert str(info.value) == (
            "every solver run failed: ValueError: dgba down; ValueError: auction down")

    def test_sample_draw_leaves_config_as_it_is(self):
        cfg = small_config(sizes=[(3, 3), (4, 2)])
        before = cfg.to_dict()
        world = sample_draw(cfg, 1, 2)
        assert (world.n_agents, world.n_targets) == (4, 2)
        assert cfg.to_dict() == before

    def test_sample_draw_rejects_bad_size_index(self):
        with pytest.raises(ConfigError):
            sample_draw(small_config(), 1, 0)


class TestWriteOutputs:
    def test_files_created(self, tmp_path):
        res = run_experiment(small_config())
        paths = write_outputs(res, str(tmp_path))
        for key in ("summary", "series", "sizes"):
            assert (tmp_path / f"{key if key != 'summary' else 'summary'}")

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 7
        assert "aggregates" in summary and "config" in summary

    def test_series_columns_and_rows(self, tmp_path):
        res = run_experiment(small_config())
        write_outputs(res, str(tmp_path))
        with open(tmp_path / "series.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["solver", "draw", "step", "utility",
                           "messages", "cumulative_cost"]
        expected = sum(len(r.utility) for r in res.metrics)
        assert len(rows) - 1 == expected

    def test_aggregates_recomputable_from_series(self, tmp_path):
        res = run_experiment(small_config())
        write_outputs(res, str(tmp_path))
        finals = {}
        with open(tmp_path / "series.csv") as fh:
            for row in csv.DictReader(fh):
                finals[(row["solver"], int(row["draw"]))] = float(row["utility"])
        for solver in ("dgba", "auction"):
            mean = np.mean([v for (s, _), v in finals.items() if s == solver])
            agg = res.aggregates[f"{solver}/N3M3"]
            assert agg["mean_final_utility"] == pytest.approx(mean, abs=1e-12)

    def test_same_seed_byte_identical_series(self, tmp_path):
        res1 = run_experiment(small_config())
        res2 = run_experiment(small_config())
        write_outputs(res1, str(tmp_path / "a"))
        write_outputs(res2, str(tmp_path / "b"))
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
            (tmp_path / "b" / "series.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        res1 = run_experiment(small_config(seed=7))
        res2 = run_experiment(small_config(seed=8))
        write_outputs(res1, str(tmp_path / "a"))
        write_outputs(res2, str(tmp_path / "b"))
        assert (tmp_path / "a" / "series.csv").read_bytes() != \
            (tmp_path / "b" / "series.csv").read_bytes()


class TestBoundSuite:
    def test_instances_reproducible(self):
        a = random_bound_instance(17)
        b = random_bound_instance(17)
        assert a.costs == b.costs and a.budgets == b.budgets

    def test_single_pair_instance_is_optimal(self):
        # With one agent and one target greedy cannot miss.
        for seed in range(200):
            inst = random_bound_instance(seed)
            if inst.oracle.n_agents == 1 and inst.oracle.n_targets == 1:
                cert = run_bound_instance(inst)
                assert cert.ratio == pytest.approx(1.0, abs=1e-12)
                break
        else:
            pytest.fail("no 1x1 instance in the first 200 seeds")

    def test_violation_records_its_seed(self, monkeypatch):
        # A real instance on which DGBA reaches 0.484 of the optimum, below
        # every bound.
        failing = random_bound_instance(8022498)
        monkeypatch.setattr(harness, "random_bound_instance", lambda seed: failing)
        report = verify_bound_suite(n_instances=1)
        assert not report.all_pass
        assert (report.half_passes, report.curvature_passes, report.q_system_passes) == (0, 0, 0)
        (violation,) = report.violations
        assert violation["seed"] == 8022498
        assert violation["ratio"] == report.worst_ratio == pytest.approx(0.484, abs=1e-3)

    def test_counts_certificates_above_one_half(self):
        report = verify_bound_suite(n_instances=100, master_seed=0)
        certs = [run_bound_instance(random_bound_instance(k)) for k in range(100)]
        assert report.curvature_above_half == sum(c.curvature_threshold > 0.5 for c in certs) == 11
        assert report.q_system_above_half == sum(c.q_system_threshold > 0.5 for c in certs) == 10
        # A threshold of exactly 1/2 (a q-system argument of 1) is not above it.
        assert any(c.q_system_threshold == 0.5 < c.curvature_threshold for c in certs)

    def test_small_suite_passes(self):
        report = verify_bound_suite(n_instances=25, master_seed=3)
        assert report.all_pass
        assert report.worst_ratio >= 0.5 - 1e-9


class TestScaling:
    def test_single_size_skips_fit(self):
        report = measure_scaling(sizes=[(5, 5)], rounds=3)
        assert report.coefficients == []
        assert len(report.mean_round_s) == 1

    def test_full_grid_fits_well(self):
        report = measure_scaling(rounds=20)
        assert len(report.coefficients) == 3
        assert report.r_squared >= 0.8  # acceptance asserts the strict 0.9
