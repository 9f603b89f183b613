"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also asserts, so a plain pytest run is authoritative.
"""

import math
import time

import numpy as np
import pytest

from taskalloc.core import (
    GroundElement,
    estimate_elemental_curvature,
    marginal_gain,
    xi_factor,
)
from taskalloc.harness import (
    ExperimentConfig,
    measure_scaling,
    random_bound_instance,
    run_bound_instance,
    run_experiment,
    write_outputs,
)
from taskalloc.scenario import (
    AgentBody,
    TargetBody,
    estimate_pair_cost,
    rendezvous_control,
    rendezvous_point,
    step_agent,
)
from taskalloc.solvers import StaticScenario, check_allocation_trace, dgba_run

N_BOUND_INSTANCES = 100
BOUND_MASTER_SEED = 0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bound_suite():
    """Certificates plus protocol traces for the shared random suite."""
    start = time.perf_counter()
    certs = []
    traces = []
    for k in range(N_BOUND_INSTANCES):
        inst = random_bound_instance(BOUND_MASTER_SEED * 1_000_003 + k)
        certs.append((inst.seed, run_bound_instance(inst)))
        scen = StaticScenario(inst.oracle, costs=inst.costs,
                              budgets=inst.budgets)
        res = dgba_run(scen, constraints=inst.constraints)
        traces.append((inst.seed, res))
    elapsed = time.perf_counter() - start
    return certs, traces, elapsed


@pytest.fixture(scope="module")
def experiment():
    config = ExperimentConfig(seed=42, draws=10, sizes=[(5, 5), (6, 6)],
                              solvers=["dgba", "auction"])
    return config, run_experiment(config)


def test_criterion_1_half_bound(bound_suite):
    """Greedy-versus-optimal ratio at least one half on every instance."""
    certs, _, elapsed = bound_suite
    bad = [s for s, c in certs if c.ratio < 0.5 - 1e-9]
    ok = not bad and elapsed < 60.0
    report(1, ok,
           f"{len(certs) - len(bad)}/{len(certs)} instances >= 1/2, "
           f"suite took {elapsed:.1f}s" + (f", failing seeds {bad}" if bad else ""))


def test_criterion_2_curvature_bound(bound_suite):
    """Ratio at least 1/(1 + kappa_e) with exhaustively computed curvature."""
    certs, _, elapsed = bound_suite
    bad = [s for s, c in certs if c.ratio < c.curvature_threshold - 1e-9]
    ok = not bad and elapsed < 300.0
    report(2, ok,
           f"{len(certs) - len(bad)}/{len(certs)} instances >= 1/(1+kappa_e), "
           f"{elapsed:.1f}s" + (f", failing seeds {bad}" if bad else ""))


def test_criterion_3_q_system_bound(bound_suite):
    """Ratio at least 1/(1 + kappa_e * xi(ceil((1 - 1/q) N)))."""
    certs, _, _ = bound_suite
    bad = [s for s, c in certs if c.ratio < c.q_system_threshold - 1e-9]
    report(3, not bad,
           f"{len(certs) - len(bad)}/{len(certs)} instances clear the "
           f"q-system threshold" + (f", failing seeds {bad}" if bad else ""))


def test_criterion_4_utility_axioms():
    """1000 randomized normalization / monotonicity / submodularity checks
    on the observation utility."""
    from taskalloc.scenario import observation_utility

    rng = np.random.default_rng(4000)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        agents = [rng.uniform(0, 6, size=3) for _ in range(n)]
        targets = [rng.uniform(0, 6, size=3) for _ in range(m)]
        values = rng.uniform(2.0, 2.5, size=m).tolist()
        decays = [0.8] * m
        ground = [GroundElement(i, j)
                  for i in range(1, n + 1) for j in range(1, m + 1)]

        def ev(policy):
            return observation_utility(policy, agents, targets,
                                       values, decays)[0]

        if ev(frozenset()) != 0.0:
            violations += 1
            continue
        mask = rng.random(len(ground)) < 0.5
        small = frozenset(e for e, k in zip(ground, mask) if k)
        big = small | frozenset(
            e for e, k in zip(ground, rng.random(len(ground)) < 0.5) if k)
        if ev(small) > ev(big) + 1e-12:
            violations += 1
            continue
        outside = [e for e in ground if e not in big]
        if outside:
            el = outside[rng.integers(len(outside))]
            if (ev(small | {el}) - ev(small)
                    < ev(big | {el}) - ev(big) - 1e-12):
                violations += 1
    report(4, violations == 0,
           f"{1000 - violations}/1000 instances satisfy all three axioms")


def test_criterion_5_trace_identities(bound_suite):
    """Decision-set disjointness, union, and per-round increment identity
    on every protocol run of the Monte Carlo suite (complete graphs, so
    every round's new targets are distinct and the identity is global)."""
    _, traces, _ = bound_suite
    bad = []
    for seed, res in traces:
        check = check_allocation_trace(res.trace, res.policy)
        distinct = all(
            len({j for _, j, _ in rec.newly_finalized})
            == len(rec.newly_finalized)
            for rec in res.trace
        )
        if not (check.ok and distinct):
            bad.append(seed)
    report(5, not bad,
           f"{len(traces) - len(bad)}/{len(traces)} runs satisfy all trace "
           f"identities" + (f", failing seeds {bad}" if bad else ""))


def test_criterion_6_bounding_inequalities():
    """1000 checks each: union bound, curvature-attenuated union bound with
    gain attenuation, and xi monotonicity."""
    rng = np.random.default_rng(6000)

    def random_oracle(min_elements=1):
        from taskalloc.core import TableOracle
        while True:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            if n * m >= min_elements:
                break
        return TableOracle(rng.uniform(0.5, 3.0, m),
                           rng.uniform(0.05, 0.95, (n, m)))

    def subset(ground):
        mask = rng.random(len(ground)) < rng.uniform(0.2, 0.8)
        return frozenset(e for e, k in zip(ground, mask) if k)

    union_fails = 0
    for _ in range(1000):
        oracle = random_oracle()
        ground = oracle.ground_set()
        base, other = subset(ground), subset(ground)
        gains = sum(marginal_gain(oracle, base, e) for e in other - base)
        if oracle.evaluate(base | other) > oracle.evaluate(base) + gains + 1e-12:
            union_fails += 1

    # Reuse each oracle's exhaustive curvature across 20 set pairs.
    attenuated_fails = 0
    checks = 0
    while checks < 1000:
        oracle = random_oracle(min_elements=2)
        ground = oracle.ground_set()
        kappa = estimate_elemental_curvature(oracle, ground).kappa_e
        for _ in range(20):
            base, other = subset(ground), subset(ground)
            extra = other - base
            checks += 1
            if extra:
                gains = sum(marginal_gain(oracle, base, e) for e in extra)
                xi = xi_factor(len(extra), kappa)
                if (oracle.evaluate(base | other)
                        > oracle.evaluate(base) + xi * gains + 1e-12):
                    attenuated_fails += 1
                    continue
            if kappa > 0:
                superset = base | other
                outside = [e for e in ground if e not in superset]
                if outside:
                    el = outside[rng.integers(len(outside))]
                    m = len(superset - base)
                    lhs = marginal_gain(oracle, base, el)
                    rhs = marginal_gain(oracle, superset, el) / kappa ** m
                    if lhs < rhs - 1e-9:
                        attenuated_fails += 1
            if checks >= 1000:
                break

    xi_fails = 0
    for _ in range(1000):
        m = int(rng.integers(1, 64))
        kappa = float(rng.uniform(0.0, 0.99))
        if xi_factor(m + 1, kappa) > xi_factor(m, kappa) + 1e-15:
            xi_fails += 1

    ok = union_fails == 0 and attenuated_fails == 0 and xi_fails == 0
    report(6, ok,
           f"union bound {1000 - union_fails}/1000, attenuated bound "
           f"{checks - attenuated_fails}/{checks}, xi monotone "
           f"{1000 - xi_fails}/1000")


def test_criterion_7_baseline_comparison(experiment):
    """Protocol at least matches the flooding auction on mean utility,
    beats it on per-round messages on every paired draw, and on wall time
    in at least 8 of 10 draws per size."""
    config, res = experiment
    by = {(r.solver, r.n_agents, r.draw): r for r in res.metrics}
    details = []
    ok = not res.errors
    for n, _m in config.sizes:
        d_final = [by[("dgba", n, d)].final_utility for d in range(10)]
        a_final = [by[("auction", n, d)].final_utility for d in range(10)]
        util_ok = float(np.mean(d_final)) >= float(np.mean(a_final)) - 1e-12
        msg_wins = sum(
            np.mean(by[("dgba", n, d)].messages)
            <= np.mean(by[("auction", n, d)].messages)
            for d in range(10)
        )
        time_wins = sum(
            by[("dgba", n, d)].wall_time_s <= by[("auction", n, d)].wall_time_s
            for d in range(10)
        )
        ok = ok and util_ok and msg_wins == 10 and time_wins >= 8
        details.append(
            f"N={n}: mean utility {np.mean(d_final):.3f} vs "
            f"{np.mean(a_final):.3f}, per-round message wins {msg_wins}/10, "
            f"wall-time wins {time_wins}/10"
        )
    report(7, ok, "; ".join(details))


def test_criterion_8_scaling_fit():
    """Per-round time regresses onto a + b N^2 + c N M with R^2 >= 0.9."""
    rep = measure_scaling(rounds=60)
    report(8, rep.r_squared >= 0.9,
           f"R^2 = {rep.r_squared:.4f} over {len(rep.sizes)} grid points")


def test_criterion_9_controller_accuracy():
    """Rendezvous terminal error within 1e-3 relative; simulated transfer
    cost within 1% of the closed form at dt = t_e / 2000."""
    tgt = TargetBody(position=np.array([4.0, 3.0, 1.0]),
                     velocity=np.zeros(3), info_value=2.0, decay=0.8,
                     end_time=12.0, obs_duration=2.0, obs_radius=1.0)
    p = np.zeros(3)
    v = np.zeros(3)
    t_final = tgt.final_time
    r_hat, v_hat = rendezvous_point(p, tgt, 0.0)
    dt = t_final / 2000
    t = 0.0
    for _ in range(2000):
        u = rendezvous_control(p, v, r_hat, v_hat, t, t_final)
        p, v = step_agent(p, v, u, dt)
        t += dt
    rel_err = float(np.linalg.norm(p - r_hat) / np.linalg.norm(r_hat))

    agent = AgentBody(position=np.zeros(3), velocity=np.zeros(3),
                      comm_factor=0.3, fuel=math.inf)
    pc = estimate_pair_cost(agent, tgt, time_now=0.0, dt=tgt.end_time / 2000)
    dp = r_hat - agent.position
    analytic = 6.0 * float(dp @ dp) / t_final ** 3
    cost_err = abs(pc.maneuver - analytic) / analytic

    ok = rel_err <= 1e-3 and cost_err <= 0.01
    report(9, ok,
           f"terminal error {rel_err:.2e} (<= 1e-3), "
           f"cost error {cost_err:.2e} (<= 1e-2)")


def test_criterion_10_determinism(experiment, tmp_path):
    """Identical master seed reproduces series.csv byte for byte."""
    config, res = experiment
    write_outputs(res, str(tmp_path / "a"))
    rerun = run_experiment(ExperimentConfig(seed=42, draws=10,
                                            sizes=[(5, 5), (6, 6)],
                                            solvers=["dgba", "auction"]))
    write_outputs(rerun, str(tmp_path / "b"))
    first = (tmp_path / "a" / "series.csv").read_bytes()
    second = (tmp_path / "b" / "series.csv").read_bytes()
    report(10, first == second,
           f"series.csv identical across runs ({len(first)} bytes)")
