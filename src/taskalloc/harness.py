"""Monte Carlo experiment harness: paired solver runs, bound verification,
scaling measurement, and artifact output.

Every random draw is seeded by a counter-based split of the master seed
(master, size index, draw index), so draws are reproducible individually
and their execution order is irrelevant.  Within a draw all solvers run on
the identical sampled instance (the distributed ones on copies) and
score against the utility oracle it gives at its initial positions, which
keeps the comparison paired and the recorded utility series non-decreasing
for the bundle protocol.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .constraints import MatchingConstraint, estimate_q
from .core import (
    CURVATURE_GROUND_CAP,
    BoundCertificate,
    DegenerateOracleError,
    TableOracle,
    bound_certificate,
    estimate_elemental_curvature,
)
from .scenario import SatelliteScenario, ScenarioConfig, sample_scenario
from .solvers import (
    EXACT_SEARCH_CAP,
    AgentViews,
    StaticScenario,
    auction_baseline,
    dgba_run,
    exact_oracle,
    graph_components,
    sequential_greedy,
)


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


KNOWN_SOLVERS = ("dgba", "auction", "greedy", "exact")

BOUND_INSTANCE_MAX_SIZE = 4  # agents, and targets, of a random bound instance


def _check_count(name: str, value, least: int) -> None:
    """A count or seed must be an integer, not a boolean, of at least ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}; got {value!r}")


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment run needs."""

    seed: int = 42
    draws: int = 10
    sizes: list = field(default_factory=lambda: [(5, 5)])
    solvers: list = field(default_factory=lambda: ["dgba", "auction"])
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        _check_count("draws", self.draws, 1)
        if not self.sizes:
            raise ConfigError("at least one (agents, targets) size is required")
        for n, m in self.sizes:
            _check_count("agents in each size", n, 1)
            _check_count("targets in each size", m, 1)
        self.sizes = [(int(n), int(m)) for n, m in self.sizes]
        if len(set(self.sizes)) != len(self.sizes):
            raise ConfigError(f"sizes must be distinct; got {self.sizes!r}")
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        for s in self.solvers:
            if s not in KNOWN_SOLVERS:
                raise ConfigError(
                    f"unknown solver {s!r}; choose from {KNOWN_SOLVERS}"
                )
        if len(set(self.solvers)) != len(self.solvers):
            raise ConfigError(f"solver names must be distinct; got {self.solvers!r}")
        for n, m in self.sizes:
            if "exact" in self.solvers and (m + 1) ** n > EXACT_SEARCH_CAP:
                raise ConfigError(
                    f"size ({n}, {m}) exceeds the exact-search cap"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a mapping")
        raw = dict(raw)
        scen_raw = raw.pop("scenario", {}) or {}
        if not isinstance(scen_raw, dict):
            raise ConfigError("'scenario' must be a mapping")
        valid = {f.name for f in fields(ScenarioConfig)}
        for key in scen_raw:
            if key not in valid:
                raise ConfigError(f"unknown scenario key {key!r}")
        top_valid = {f.name for f in fields(cls)} - {"scenario"}
        for key in raw:
            if key not in top_valid:
                raise ConfigError(f"unknown config key {key!r}")
        try:
            return cls(scenario=ScenarioConfig(**scen_raw), **raw)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = asdict(self)
        out["sizes"] = [list(s) for s in self.sizes]
        out["scenario"] = {key: list(value) if isinstance(value, tuple) else value
                           for key, value in out["scenario"].items()}
        return out


@dataclass
class RunMetrics:
    """Everything recorded about one solver on one draw."""

    solver: str
    draw: int
    n_agents: int
    n_targets: int
    utility: list          # per-step utility series
    messages: list         # per-step message counts
    cumulative_cost: list  # per-step total accrued cost
    per_agent_cost: list
    final_utility: float
    total_messages: int
    rounds: int
    wall_time_s: float
    phase_times: dict
    certificate: Optional[BoundCertificate] = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: list
    errors: list  # dicts: solver, size, draw, message
    aggregates: dict
    overrides: list = field(default_factory=list)  # raw key=value strings


def sample_draw(config: ExperimentConfig, size_index: int, draw: int) -> SatelliteScenario:
    """The instance of one draw: ``config.sizes[size_index]`` agents and
    targets, sampled from a generator seeded by (master seed, size index,
    draw).  ``config`` is left as it is."""
    if not 0 <= size_index < len(config.sizes):
        raise ConfigError(f"size index {size_index} out of range")
    _check_count("draw", draw, 0)
    return sample_scenario(config.scenario, *config.sizes[size_index],
                           np.random.default_rng([config.seed, size_index, draw]))


def _allocation_constraints(costs, budgets) -> MatchingConstraint:
    """The system allocations are solved under: one target per agent, one
    agent per target, and each agent's pair costs within its budget, as one
    ``MatchingConstraint`` (the three-part conjunction, checked in one
    pass)."""
    return MatchingConstraint(costs, budgets)


def _run_one(name: str, base: SatelliteScenario):
    """Run one solver on the instance, the distributed ones on a fresh copy
    of it; returns the solver result plus the wall time of the call."""
    if name in ("dgba", "auction"):
        # Resolved at call time, so wrappers set on this module apply.
        solver = dgba_run if name == "dgba" else auction_baseline
        world = base.copy()
        start = time.perf_counter()
        result = solver(world)
        return result, time.perf_counter() - start
    costs = base.pair_costs()
    solver = sequential_greedy if name == "greedy" else exact_oracle
    start = time.perf_counter()
    result = solver(base.oracle(), _allocation_constraints(costs, base.budgets()))
    wall = time.perf_counter() - start
    # The centralized solvers fly nothing: report the planned t = 0 pair
    # costs their budget constraint was checked against.
    for el in result.policy:
        result.per_agent_cost[el.agent - 1] += costs[el.agent - 1, el.target - 1]
    return result, wall


def _metrics_from(name: str, draw: int, base: SatelliteScenario,
                  result, wall: float) -> RunMetrics:
    series_u = [rec.utility for rec in result.trace]
    series_m = [rec.messages for rec in result.trace]
    series_c = [rec.cumulative_cost for rec in result.trace]
    return RunMetrics(
        solver=name,
        draw=draw,
        n_agents=base.n_agents,
        n_targets=base.n_targets,
        utility=series_u,
        messages=series_m,
        cumulative_cost=series_c,
        per_agent_cost=[float(c) for c in result.per_agent_cost],
        final_utility=result.utility,
        total_messages=result.messages,
        rounds=result.rounds,
        wall_time_s=wall,
        phase_times=dict(result.phase_times),
    )


def _certify(oracle: TableOracle, costs, achieved: float,
             optimal: float) -> BoundCertificate:
    """``achieved`` against the optimum, certified with the oracle's
    exhaustive elemental curvature and the q of the pair costs."""
    try:
        kappa = estimate_elemental_curvature(oracle, oracle.ground_set()).kappa_e
    except DegenerateOracleError:
        # No well-defined curvature ratio on this ground set; certify
        # against the most conservative value.
        kappa = 1.0
    q = estimate_q(costs).q
    return bound_certificate(achieved, optimal, kappa, q, oracle.n_agents)


def _error(solver: str, size, draw: int, exc: Exception, prefix: str = "") -> dict:
    """One entry of ``ExperimentResult.errors``."""
    return {
        "solver": solver,
        "size": list(size),
        "draw": draw,
        "message": f"{prefix}{type(exc).__name__}: {exc}",
    }


@functools.cache
def _warm_up() -> None:
    """Exercise both solver code paths once per process, so first-call
    interpreter and array-library setup does not land in a timed draw."""
    rng = np.random.default_rng(0)
    tiny = sample_scenario(ScenarioConfig(), 2, 2, rng)
    dgba_run(tiny.copy())
    auction_baseline(tiny.copy())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured solver on identical instances, draw by draw.

    A failure to sample a draw is recorded once per solver and the draw
    skipped; a solver failure on one draw is recorded and skipped; a
    certification failure is recorded and the draw kept without a
    certificate.  The experiment fails outright only if every single run
    failed.
    """
    _warm_up()
    metrics: list[RunMetrics] = []
    errors: list[dict] = []
    for size_index, (n, m) in enumerate(config.sizes):
        for draw in range(config.draws):
            try:
                base = sample_draw(config, size_index, draw)
                # Round 0's oracle and cost matrix, built once and untimed:
                # every run of the draw reads them from the store its copy
                # of the world shares.
                base.oracle(), base.pair_costs()
            except Exception as exc:  # recorded, not fatal
                errors.extend(_error(name, (n, m), draw, exc, "sampling: ")
                              for name in config.solvers)
                continue
            draw_results: dict[str, RunMetrics] = {}
            for name in config.solvers:
                try:
                    result, wall = _run_one(name, base)
                    draw_results[name] = _metrics_from(name, draw, base, result, wall)
                except Exception as exc:  # recorded, not fatal
                    errors.append(_error(name, (n, m), draw, exc))
            if ("dgba" in draw_results and "exact" in draw_results
                    and n * m <= CURVATURE_GROUND_CAP):
                try:
                    draw_results["dgba"].certificate = _certify(
                        base.oracle(), base.pair_costs().tolist(),
                        draw_results["dgba"].final_utility,
                        draw_results["exact"].final_utility,
                    )
                except Exception as exc:  # the draw keeps its metrics
                    errors.append(_error("dgba", (n, m), draw, exc, "certificate: "))
            metrics.extend(draw_results[name] for name in config.solvers
                           if name in draw_results)
    if not metrics:
        raise RuntimeError(
            "every solver run failed: " + "; ".join(e["message"] for e in errors)
        )
    return ExperimentResult(
        config=config,
        metrics=metrics,
        errors=errors,
        aggregates=_aggregate(config, metrics),
    )


def _aggregate(config: ExperimentConfig, metrics: Sequence[RunMetrics]) -> dict:
    out = {}
    for n, m in config.sizes:
        for name in config.solvers:
            runs = [r for r in metrics
                    if r.solver == name and (r.n_agents, r.n_targets) == (n, m)]
            if not runs:
                continue
            finals = np.array([r.final_utility for r in runs])
            msgs = np.array([r.total_messages for r in runs])
            costs = np.array([sum(r.per_agent_cost) for r in runs])
            walls = np.array([r.wall_time_s for r in runs])
            certs = [r.certificate for r in runs if r.certificate is not None]
            out[f"{name}/N{n}M{m}"] = {
                "runs": len(runs),
                "mean_final_utility": float(finals.mean()),
                "std_final_utility": float(finals.std()),
                "mean_total_messages": float(msgs.mean()),
                "std_total_messages": float(msgs.std()),
                "mean_total_cost": float(costs.mean()),
                "mean_wall_time_s": float(walls.mean()),
                "mean_phase_times_s": {
                    phase: float(np.mean([r.phase_times[phase] for r in runs]))
                    for phase in runs[0].phase_times
                },
                "mean_rounds": float(np.mean([r.rounds for r in runs])),
                "certificates_checked": len(certs),
                "certificates_passed": sum(
                    c.half_bound_holds and c.curvature_bound_holds and c.q_system_bound_holds
                    for c in certs
                ),
                "certificates_curvature_above_half": sum(c.curvature_above_half for c in certs),
                "certificates_q_system_above_half": sum(c.q_system_above_half for c in certs),
            }
    return out


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def write_outputs(result: ExperimentResult, out_dir: str) -> dict:
    """Write summary.json, series.csv and sizes.csv; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "summary": os.path.join(out_dir, "summary.json"),
        "series": os.path.join(out_dir, "series.csv"),
        "sizes": os.path.join(out_dir, "sizes.csv"),
    }

    summary = {
        "seed": result.config.seed,
        "config": result.config.to_dict(),
        "overrides": list(result.overrides),
        "aggregates": result.aggregates,
        "errors": result.errors,
    }
    with open(paths["summary"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # repr, the shortest round-tripping form: equal seeds, equal bytes.
    with open(paths["series"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["solver", "draw", "step", "utility", "messages", "cumulative_cost"]
        )
        for run in result.metrics:
            for step in range(len(run.utility)):
                writer.writerow([
                    run.solver, run.draw, step,
                    repr(run.utility[step]),
                    run.messages[step],
                    repr(run.cumulative_cost[step]),
                ])

    with open(paths["sizes"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["solver", "N", "M", "mean_total_cost", "mean_wall_time_s"])
        for n, m in result.config.sizes:
            for name in result.config.solvers:
                agg = result.aggregates.get(f"{name}/N{n}M{m}")
                if agg is None:
                    continue
                writer.writerow([
                    name, n, m,
                    repr(agg["mean_total_cost"]),
                    repr(agg["mean_wall_time_s"]),
                ])
    return paths


# ---------------------------------------------------------------------------
# Randomized bound verification
# ---------------------------------------------------------------------------

@dataclass
class BoundInstance:
    """One randomized small instance for exhaustive bound checking."""

    seed: int
    oracle: TableOracle
    costs: list
    budgets: list
    constraints: MatchingConstraint  # the system the exact optimum is taken over


def random_bound_instance(seed: int) -> BoundInstance:
    """Small random coverage instance with a complete communication graph.

    Success probabilities are distance-derived and bounded away from zero,
    budgets are drawn so they exclude some expensive pairs without starving
    any agent systematically.  The constraint system is the conflict-free
    matching with per-agent budgets that the allocation problem poses; the
    exact optimum is taken over the same system.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, BOUND_INSTANCE_MAX_SIZE + 1))
    m = int(rng.integers(1, BOUND_INSTANCE_MAX_SIZE + 1))
    probs = np.exp(-0.8 * rng.uniform(0.2, 2.0, size=(n, m)))
    values = rng.uniform(2.0, 2.5, size=m)
    costs = rng.uniform(0.5, 1.5, size=(n, m))
    budgets = rng.uniform(0.6, 1.5, size=n)
    return BoundInstance(
        seed=seed,
        oracle=TableOracle(values, probs),
        costs=costs.tolist(),
        budgets=budgets.tolist(),
        constraints=_allocation_constraints(costs, budgets),
    )


@dataclass
class BoundSuiteReport:
    instances: int
    half_passes: int
    curvature_passes: int
    q_system_passes: int
    # Certificates whose curvature or q-system threshold is above 1/2.
    curvature_above_half: int
    q_system_above_half: int
    worst_ratio: float
    violations: list  # dicts with seed and thresholds

    @property
    def all_pass(self) -> bool:
        return not self.violations


def run_bound_instance(inst: BoundInstance) -> BoundCertificate:
    """DGBA versus the exact optimum on one instance, certified
    against all three performance bounds."""
    scen = StaticScenario(inst.oracle, costs=inst.costs, budgets=inst.budgets)
    achieved = dgba_run(scen, constraints=inst.constraints).utility
    optimal = exact_oracle(inst.oracle, inst.constraints).utility
    return _certify(inst.oracle, inst.costs, achieved, optimal)


def verify_bound_suite(n_instances: int = 100, master_seed: int = 0) -> BoundSuiteReport:
    """Randomized suite checking the three greedy performance bounds with
    the exact optimum on every instance."""
    _check_count("instances", n_instances, 1)
    _check_count("seed", master_seed, 0)
    half = curv = qsys = curv_above = qsys_above = 0
    worst = math.inf
    violations = []
    for k in range(n_instances):
        inst = random_bound_instance(master_seed * 1_000_003 + k)
        cert = run_bound_instance(inst)
        half += cert.half_bound_holds
        curv += cert.curvature_bound_holds
        qsys += cert.q_system_bound_holds
        curv_above += cert.curvature_above_half
        qsys_above += cert.q_system_above_half
        worst = min(worst, cert.ratio)
        if not (cert.half_bound_holds and cert.curvature_bound_holds
                and cert.q_system_bound_holds):
            violations.append({
                "seed": inst.seed,
                "ratio": cert.ratio,
                "half_threshold": cert.half_threshold,
                "curvature_threshold": cert.curvature_threshold,
                "q_system_threshold": cert.q_system_threshold,
            })
    return BoundSuiteReport(
        instances=n_instances,
        half_passes=half,
        curvature_passes=curv,
        q_system_passes=qsys,
        curvature_above_half=curv_above,
        q_system_above_half=qsys_above,
        worst_ratio=worst,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Per-round scaling measurement
# ---------------------------------------------------------------------------

SCALING_GRID = tuple((n, m) for n in (5, 10, 20, 40) for m in (5, 10, 20, 40))


@dataclass
class ScalingReport:
    """Each size's median round time (``mean_round_s``) and their fit."""

    sizes: list           # (n, m) pairs
    mean_round_s: list    # median per-round time per size
    coefficients: list    # [a, b, c] of a + b*N^2 + c*N*M
    r_squared: float


def _time_one_round(oracle: TableOracle, linked: np.ndarray,
                    components: list) -> float:
    """Wall time of one assignment-plus-communication round of the
    per-agent reference kernels (``AgentViews``), measured on fresh views
    so every repetition does the same work.

    The array round that ``dgba_run`` uses for larger teams is not timed:
    it costs about the same at every grid size, so the fit below has
    nothing to explain there."""
    # Round 0 without costs or budget limits: every agent bids on every pair.
    rows, allowed = np.arange(oracle.n_agents), np.ones(oracle.prob_table.shape, dtype=bool)
    views = AgentViews(oracle)
    start = time.perf_counter()
    views.assign(rows, allowed)
    views.communicate(linked, components)
    return time.perf_counter() - start


def measure_scaling(sizes: Sequence = SCALING_GRID, rounds: int = 50,
                    seed: int = 0) -> ScalingReport:
    """Fit each size's median time of the per-agent reference round (see
    ``_time_one_round``) to a + b*N^2 + c*N*M.  The sizes take turns, one
    round each per pass, so outside load skews them all alike."""
    _check_count("rounds", rounds, 1)
    _check_count("seed", seed, 0)
    if any(n < 1 or m < 1 for n, m in sizes):
        raise ConfigError(f"grid sizes must be at least 1x1; got {list(sizes)}")
    rng = np.random.default_rng(seed)
    cases = []
    for n, m in sizes:
        probs = rng.uniform(0.1, 0.9, size=(n, m))
        values = rng.uniform(2.0, 2.5, size=m)
        adjacency = np.ones((n, n)) - np.eye(n)
        cases.append((TableOracle(values, probs), adjacency > 0,
                      graph_components(adjacency)))
    times = [[] for _ in cases]
    for _ in range(3 + rounds):  # the first three passes warm up
        for case, timed in zip(cases, times):
            timed.append(_time_one_round(*case))
    medians = [float(np.median(timed[3:])) for timed in times]
    coefficients, r2 = [], math.nan
    if len(sizes) > 3:  # fewer measurements cannot fit three coefficients
        design = np.array([[1.0, n * n, n * m] for n, m in sizes])
        y = np.array(medians)
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        residuals = y - design @ coeffs
        ss_res = float(residuals @ residuals)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        coefficients = [float(c) for c in coeffs]
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingReport(
        sizes=[tuple(s) for s in sizes],
        mean_round_s=medians,
        coefficients=coefficients,
        r_squared=r2,
    )
