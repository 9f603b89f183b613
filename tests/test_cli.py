"""CLI tests: subcommands, overrides, exit codes."""

import json
import runpy
import sys

import pytest
import yaml

from taskalloc import cli, harness
from taskalloc.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    apply_overrides,
    load_config,
    main,
)
from taskalloc.harness import ConfigError, run_experiment
from taskalloc.solvers import TraceCheck


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        "seed": 3,
        "draws": 2,
        "sizes": [[3, 3]],
        "solvers": ["dgba", "auction"],
        "scenario": {"decay": 0.8, "comm_factor": 0.3},
    }))
    return str(path)


class TestApplyOverrides:
    def test_nested_assignment(self):
        raw = apply_overrides({}, ["scenario.decay=0.5"])
        assert raw == {"scenario": {"decay": 0.5}}

    def test_yaml_typed_values(self):
        raw = apply_overrides({}, ["draws=5", "sizes=[[4, 4]]"])
        assert raw["draws"] == 5 and raw["sizes"] == [[4, 4]]

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no-equals-sign"])

    def test_descending_into_scalar_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides({"seed": 3}, ["seed.nested=1"])


class TestRunCommand:
    def test_success_writes_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", "--config", config_file,
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        assert (out / "summary.json").exists()
        assert (out / "series.csv").exists()
        assert (out / "sizes.csv").exists()

    def test_overrides_echoed_in_summary(self, config_file, tmp_path):
        out = tmp_path / "results"
        code = main(["run", "--config", config_file, "--output-dir", str(out),
                     "--set", "scenario.decay=0.6", "--set", "draws=1"])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["scenario"]["decay"] == 0.6
        assert summary["config"]["draws"] == 1
        assert "scenario.decay=0.6" in summary["overrides"]

    def test_seed_flag_overrides_config(self, config_file, tmp_path):
        out = tmp_path / "results"
        main(["run", "--config", config_file, "--output-dir", str(out),
              "--seed", "99", "--set", "draws=1"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_failed_runs_are_warned_of(self, config_file, tmp_path, capsys, monkeypatch):
        real = harness._run_one

        def auction_fails(name, base):
            if name == "auction":
                raise ValueError("auction down")
            return real(name, base)

        monkeypatch.setattr(harness, "_run_one", auction_fails)
        code = main(["run", "--config", config_file, "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"warning: auction draw {draw} size [3, 3]: ValueError: auction down"
            for draw in (0, 1)]

    def test_every_run_failing_is_a_runtime_error(self, config_file, tmp_path, capsys,
                                                  monkeypatch):
        def fail(name, base):
            raise ValueError(f"{name} down")

        monkeypatch.setattr(harness, "_run_one", fail)
        code = main(["run", "--config", config_file, "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME_ERROR == 3
        assert capsys.readouterr().err.strip() == (
            "error: RuntimeError: every solver run failed: ValueError: dgba down; "
            "ValueError: auction down; ValueError: dgba down; ValueError: auction down")
        assert not (tmp_path / "x").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.yaml")])
        assert code == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_bad_override_key(self, config_file, tmp_path):
        code = main(["run", "--config", config_file,
                     "--output-dir", str(tmp_path / "x"),
                     "--set", "scenario.bogus=1"])
        assert code == EXIT_CONFIG_ERROR

    def test_invalid_yaml_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [unclosed")
        code = main(["run", "--config", str(bad)])
        assert code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("text, args", [
        ("- 1\n- 2\n", []),
        ("seed: 3\n", ["--set", "seed=[unclosed"]),
    ], ids=["not-a-mapping", "unparsable-override"])
    def test_config_that_is_not_a_settings_mapping(self, tmp_path, capsys, text, args):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        code = main(["run", "--config", str(bad), "--output-dir", str(tmp_path / "x"), *args])
        assert code == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", [
        "scenario.n_steps=0",
        "scenario.end_time_range=[3, 2]",
        "scenario.box_side=0",
        "scenario.initial_speed=-0.1",
        "scenario.decay=0",
        "scenario.decay=.inf",
        "scenario.obs_radius_range=[0, 1]",
        "scenario.info_value_range=[2, .inf]",
        "scenario.info_value_range=[-1, 2]",
        "scenario.obs_duration_range=[30, 31]",
        "scenario.obs_duration_range=[-30, -20]",
        "scenario.decay=true",
        "scenario.box_side=true",
        "scenario.fuel=true",
        "scenario.comm_factor=true",
        "scenario.drag_coeff=true",
        "scenario.initial_speed=false",
    ])
    def test_malformed_scenario_setting(self, config_file, tmp_path, capsys, override):
        code = main(["run", "--config", config_file, "--output-dir", str(tmp_path / "x"),
                     "--set", "draws=1", "--set", override])
        assert code == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [
        ["--set", "horizon=0"],
        ["--set", "horizon=2.5"],
        ["--seed", "-1"],
        ["--set", "seed=1.5"],
        ["--set", "draws=1.5"],
        ["--set", "draws=true"],
        ["--set", "scenario.n_agents=7"],
        ["--set", "scenario.n_targets=7"],
        ["--set", "sizes=[[2.5, 3]]"],
        ["--set", "sizes=[[true, 2]]"],
        ["--set", "sizes=[[3, 0]]"],
        ["--set", "scenario.end_time_range=5"],
        ["--set", "scenario.end_time_range=[a,b]"],
        ["--set", "scenario.end_time_range='19'"],
        ["--set", "scenario.n_steps=2.5"],
        ["--set", "scenario.n_steps=true"],
        ["--set", "scenario.fuel=-1"],
        ["--set", "scenario.fuel=.nan"],
        ["--set", "scenario.comm_factor=-1"],
        ["--set", "scenario.comm_factor=.nan"],
        ["--set", "scenario.drag_coeff=-0.5"],
        ["--set", "scenario.drag_coeff=.inf"],
        ["--set", "solvers=[dgba,dgba]"],
        ["--set", "sizes=[[3, 3], [3, 3]]"],
    ], ids=" ".join)
    def test_malformed_run_setting(self, config_file, tmp_path, capsys, args):
        code = main(["run", "--config", config_file, "--output-dir", str(tmp_path / "x"),
                     *args])
        assert code == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_horizon_is_an_unknown_key(self, config_file, tmp_path, capsys, command):
        out = ["--output-dir", str(tmp_path / "x")] if command == "run" else []
        code = main([command, "--config", config_file, *out, "--set", "horizon=5"])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.strip() == (
            "configuration error: unknown config key 'horizon'")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("in_file", [False, True], ids=["set", "file"])
    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize("key", ["lambda", "phi", "n_agents", "n_targets"])
    def test_alias_and_team_size_are_unknown_keys(self, config_file, tmp_path, capsys,
                                                  key, command, in_file):
        setting = ["--set", f"scenario.{key}=3"]
        if in_file:
            with open(config_file) as fh:
                raw = yaml.safe_load(fh)
            raw["scenario"][key] = 3
            with open(config_file, "w") as fh:
                yaml.safe_dump(raw, fh)
            setting = []
        out = ["--output-dir", str(tmp_path / "x")] if command == "run" else []
        code = main([command, "--config", config_file, *out, *setting])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.strip() == (
            f"configuration error: unknown scenario key '{key}'")
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["scaling", "--grid", "3x3", "--rounds", "0"],
    ["scaling", "--grid", "3x3", "--rounds", "-2"],
    ["scaling", "--grid", "0x5", "--rounds", "3"],
    ["scaling", "--grid", "3x3", "--seed", "-1"],
    ["verify-bounds", "--instances", "0"],
    ["verify-bounds", "--instances", "-3"],
    ["verify-bounds", "--instances", "2", "--seed", "-1"],
    ["trace", "--draw", "-1"],
], ids=" ".join)
def test_bad_count_is_a_configuration_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert "configuration error" in out.err


class TestVerifyBoundsCommand:
    def test_default_suite_passes(self, capsys):
        code = main(["verify-bounds", "--instances", "15"])
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "15/15" in output
        assert "worst ratio" in output

    def test_says_how_many_certificates_are_above_one_half(self, capsys):
        assert main(["verify-bounds", "--instances", "100", "--seed", "0"]) == EXIT_OK
        output = capsys.readouterr().out
        assert "curvature threshold above 1/2: 11/100\n" in output
        assert "q-system threshold above 1/2:  10/100\n" in output

    def test_exit_code_reserved_for_violations(self, monkeypatch, capsys):
        # A real instance on which DGBA reaches 0.484 of the optimum.
        failing = harness.random_bound_instance(8022498)
        monkeypatch.setattr(harness, "random_bound_instance", lambda seed: failing)
        assert main(["verify-bounds", "--instances", "1"]) == EXIT_BOUND_VIOLATION == 1
        captured = capsys.readouterr()
        assert "half bound:      0/1" in captured.out
        assert captured.err.startswith("violation at seed 8022498: ratio 0.484024 vs thresholds ")


class TestTraceCommand:
    def test_trace_prints_rounds(self, config_file, capsys):
        code = main(["trace", "--config", config_file, "--draw", "0"])
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "round" in output
        assert "trace checks passed" in output

    def test_trace_scores_the_instance_run_scores(self, config_file, capsys):
        sizes = "sizes=[[3, 3], [4, 4]]"
        result = run_experiment(load_config(config_file, [sizes], 5))
        (run,) = [r for r in result.metrics
                  if r.solver == "dgba" and r.n_agents == 4 and r.draw == 1]
        code = main(["trace", "--config", config_file, "--set", sizes, "--seed", "5",
                     "--size-index", "1", "--draw", "1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "instance: N=4 M=4 seed=5 draw=1"
        rows = [line.split()[1:3] for line in lines[2:2 + len(run.utility)]]
        assert rows == [[f"{u:.6f}", str(m)] for u, m in zip(run.utility, run.messages)]
        assert lines[2 + len(run.utility)] == (
            f"final utility {run.final_utility:.6f}, "
            f"{run.total_messages} messages over {run.rounds} rounds")

    def test_failed_check_is_a_runtime_error(self, config_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_allocation_trace", lambda trace, policy: TraceCheck(
            ok=False, failures=["round 0: agent 1 finalized twice", "finalized agents"]))
        code = main(["trace", "--config", config_file, "--draw", "0"])
        assert code == EXIT_RUNTIME_ERROR == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "trace check failed: round 0: agent 1 finalized twice",
            "trace check failed: finalized agents"]
        assert "trace checks passed" not in captured.out

    def test_bad_size_index(self, config_file):
        code = main(["trace", "--config", config_file, "--size-index", "9"])
        assert code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("command", ["run", "trace"])
def test_help_describes_the_configuration_options(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for option in ("--config CONFIG YAML configuration file",
                   "--seed SEED override the master seed",
                   "--set KEY=VALUE dotted config override, e.g. scenario.decay=0.8"):
        assert option in text


class TestScalingCommand:
    def test_small_grid(self, capsys):
        code = main(["scaling", "--grid", "3x3", "4x4", "--rounds", "3"])
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "fit: skipped" in output

    def test_default_grid_and_fit(self, capsys, monkeypatch):
        sizes_asked = []

        def fake(sizes, rounds, seed):
            sizes_asked.append(sizes)
            return harness.ScalingReport(sizes, [1e-5] * len(sizes), [1e-6, 2e-7, 3e-8], 0.97)

        monkeypatch.setattr(cli, "measure_scaling", fake)
        assert main(["scaling"]) == EXIT_OK
        assert sizes_asked == [list(harness.SCALING_GRID)]
        output = capsys.readouterr().out
        assert "fit: 1.000e-06 + 2.000e-07*N^2 + 3.000e-08*N*M" in output
        assert "R^2: 0.9700" in output

    def test_runs_as_a_script(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["taskalloc", "verify-bounds", "--instances", "2"])
        monkeypatch.delitem(sys.modules, "taskalloc.cli")  # run afresh, as python -m does
        with pytest.raises(SystemExit) as info:
            runpy.run_module("taskalloc.cli", run_name="__main__")
        assert info.value.code == EXIT_OK

    def test_malformed_grid_entry(self):
        code = main(["scaling", "--grid", "3by3"])
        assert code == EXIT_CONFIG_ERROR
