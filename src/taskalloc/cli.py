"""Command-line entry point.

Subcommands: ``run`` (Monte Carlo experiment with file outputs),
``verify-bounds`` (randomized suite against the exact optimum), ``trace``
(per-round dump of one protocol run) and ``scaling`` (per-round time
regression of the per-agent reference round).  Exit codes are stable:
0 success, 1 bound violation, 2 configuration error, 3 runtime error.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from .harness import (
    SCALING_GRID,
    ConfigError,
    ExperimentConfig,
    measure_scaling,
    run_experiment,
    sample_draw,
    verify_bound_suite,
    write_outputs,
)
from .solvers import ARRAY_VIEWS_MIN_AGENTS, check_allocation_trace, dgba_run

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted key=value overrides to a nested config mapping."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, _, value = item.partition("=")
        keys = dotted.split(".")
        node = raw
        for key in keys[:-1]:
            nxt = node.setdefault(key, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {dotted!r} descends into a scalar")
            node = nxt
        try:  # YAML scalar rules: int, float, bool, list or plain string
            node[keys[-1]] = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r} has an unparsable value: {exc}")
    return raw


def load_config(path: str | None, overrides: list[str],
                seed: int | None) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    raw = apply_overrides(raw, overrides)
    if seed is not None:
        raw["seed"] = seed
    return ExperimentConfig.from_dict(raw)


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set, args.seed)
    result = run_experiment(config)
    result.overrides = list(args.set)
    paths = write_outputs(result, args.output_dir)
    for run in result.errors:
        print(
            f"warning: {run['solver']} draw {run['draw']} "
            f"size {run['size']}: {run['message']}",
            file=sys.stderr,
        )
    for key in sorted(result.aggregates):
        agg = result.aggregates[key]
        print(
            f"{key}: mean utility {agg['mean_final_utility']:.4f}, "
            f"mean messages {agg['mean_total_messages']:.1f}, "
            f"mean wall time {agg['mean_wall_time_s'] * 1e3:.3f} ms"
        )
    print("wrote " + ", ".join(paths[k] for k in ("summary", "series", "sizes")))
    return EXIT_OK


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    report = verify_bound_suite(
        n_instances=args.instances, master_seed=args.seed
    )
    print(f"instances: {report.instances}")
    print(f"half bound:      {report.half_passes}/{report.instances}")
    print(f"curvature bound: {report.curvature_passes}/{report.instances}")
    print(f"q-system bound:  {report.q_system_passes}/{report.instances}")
    print(f"curvature threshold above 1/2: {report.curvature_above_half}/{report.instances}")
    print(f"q-system threshold above 1/2:  {report.q_system_above_half}/{report.instances}")
    print(f"worst ratio: {report.worst_ratio:.6f}")
    if report.violations:
        for v in report.violations:
            print(
                f"violation at seed {v['seed']}: ratio {v['ratio']:.6f} vs "
                f"thresholds {v['half_threshold']:.4f}/"
                f"{v['curvature_threshold']:.4f}/{v['q_system_threshold']:.4f}",
                file=sys.stderr,
            )
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set, args.seed)
    world = sample_draw(config, args.size_index, args.draw)
    result = dgba_run(world)
    print(f"instance: N={world.n_agents} M={world.n_targets} "
          f"seed={config.seed} draw={args.draw}")
    print("round  utility      messages  finalized")
    for rec in result.trace:
        finals = " ".join(f"{a}->{j}" for a, j, _ in rec.newly_finalized) or "-"
        print(f"{rec.round:>5}  {rec.utility:<11.6f}  {rec.messages:>8}  {finals}")
    print(f"final utility {result.utility:.6f}, "
          f"{result.messages} messages over {result.rounds} rounds")
    check = check_allocation_trace(result.trace, result.policy)
    if not check.ok:
        for failure in check.failures:
            print(f"trace check failed: {failure}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    print("trace checks passed")
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    if args.grid:
        sizes = []
        for item in args.grid:
            try:
                n, m = (int(v) for v in item.split("x"))
            except ValueError:
                raise ConfigError(f"grid entry {item!r} is not of the form NxM")
            sizes.append((n, m))
    else:
        sizes = list(SCALING_GRID)
    report = measure_scaling(sizes=sizes, rounds=args.rounds, seed=args.seed)
    print("N    M    median round time (s)")
    for (n, m), median in zip(report.sizes, report.mean_round_s):
        print(f"{n:<4} {m:<4} {median:.3e}")
    if report.coefficients:
        a, b, c = report.coefficients
        print(f"fit: {a:.3e} + {b:.3e}*N^2 + {c:.3e}*N*M")
        print(f"R^2: {report.r_squared:.4f}")
    else:
        print("fit: skipped (need more than 3 grid points)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskalloc",
        description="Distributed greedy task allocation: experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The experiment configuration options ``run`` and ``trace`` share.
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", help="YAML configuration file")
    configured.add_argument("--seed", type=int, help="override the master seed")
    configured.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                            help="dotted config override, e.g. scenario.decay=0.8")

    run = sub.add_parser("run", parents=[configured], help="run a Monte Carlo experiment")
    run.add_argument("--output-dir", default="results",
                     help="directory for summary.json, series.csv, sizes.csv")
    run.set_defaults(func=cmd_run)

    vb = sub.add_parser("verify-bounds",
                        help="randomized bound suite against the exact optimum")
    vb.add_argument("--instances", type=int, default=100)
    vb.add_argument("--seed", type=int, default=0)
    vb.set_defaults(func=cmd_verify_bounds)

    tr = sub.add_parser("trace", parents=[configured],
                        help="dump the per-round trace of one run")
    tr.add_argument("--size-index", type=int, default=0,
                    help="index into the configured sizes list")
    tr.add_argument("--draw", type=int, default=0)
    tr.set_defaults(func=cmd_trace)

    sc = sub.add_parser(
        "scaling", help="per-round time scaling regression of the per-agent round",
        description="Time assignment-plus-communication rounds of the per-agent "
                    "reference kernels, the grid sizes taking turns, and fit each "
                    "size's median to a + b*N^2 + c*N*M.  dgba_run runs teams of "
                    f"{ARRAY_VIEWS_MIN_AGENTS} or more agents on array views "
                    "instead (L x N view rows, or on a plain static world with a "
                    "complete graph the broadcast self-entries alone), whose "
                    "round time is nearly flat over the grid; that round is not "
                    "what is timed here.")
    sc.add_argument("--grid", nargs="*", metavar="NxM",
                    help="sizes to measure, e.g. 5x5 10x10 (default full grid)")
    sc.add_argument("--rounds", type=int, default=50)
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(func=cmd_scaling)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # anything else is a runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
