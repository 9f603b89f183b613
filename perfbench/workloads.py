"""The three benchmark workloads: how one op is built, run and checked.

Every op draws its inputs from ``op_seed(seed, k)``, so the same workload
seed gives the same instance list.  ``prepare`` builds what the op is given
(untimed), ``run`` is the timed op, and ``check`` verifies its outputs
(untimed) and returns the op's DGBA quality record.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time

import numpy as np

import taskalloc
from taskalloc import harness
from taskalloc.constraints import ConflictFreeConstraint, PartitionConstraint
from taskalloc.solvers import check_allocation_trace

# Same split of a master seed into per-instance seeds as verify_bound_suite.
SEED_STRIDE = 1_000_003


def op_seed(seed: int, k: int) -> int:
    return seed * SEED_STRIDE + k


class DgbaCapture:
    """Keeps every ``dgba_run`` result, with the oracle it was scored
    against and its wall time, so outputs the public API does not return
    (the policy inside ``run_experiment`` or ``run_bound_instance``) can be
    checked.  Wraps the name in the namespaces the benchmark and
    ``harness`` look it up in."""

    NAMESPACES = (taskalloc, harness)

    def __init__(self):
        self.records: list = []
        self._original = harness.dgba_run

    def install(self) -> None:
        original = self._original
        records = self.records

        def captured(scenario, *args, **kwargs):
            oracle = args[0] if args else kwargs.get("oracle")
            if oracle is None:
                oracle = scenario.oracle()
            start = time.perf_counter()
            result = original(scenario, *args, **kwargs)
            records.append((oracle, result, time.perf_counter() - start))
            return result

        for ns in self.NAMESPACES:
            ns.dgba_run = captured

    def take(self) -> list:
        out = list(self.records)
        self.records.clear()
        return out


def numpy_utility(values, probs, policy) -> float:
    """Coverage utility of a policy recomputed from the raw arrays."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    miss = np.ones(len(values))
    for el in policy:
        miss[el.target - 1] *= 1.0 - probs[el.agent - 1, el.target - 1]
    return float(np.sum(values * (1.0 - miss)))


def has_conflict(policy) -> bool:
    targets = [el.target for el in policy]
    return len(targets) != len(set(targets))


def op_digest(result) -> str:
    """sha256 of the DGBA policy, utility, messages and rounds: equal
    digests mean the protocol behaved identically."""
    pairs = sorted((el.agent, el.target) for el in result.policy)
    text = f"{pairs}|{result.utility!r}|{result.messages}|{result.rounds}"
    return hashlib.sha256(text.encode()).hexdigest()


def check_dgba(oracle, result, complete_graph: bool) -> list:
    """Failures of one DGBA output, as messages."""
    n, m = oracle.n_agents, oracle.n_targets
    failures = []
    if not PartitionConstraint(n, m).is_independent(result.policy):
        failures.append("policy gives some agent two targets")
    expected = numpy_utility(oracle.values, oracle.probs, result.policy)
    if not math.isclose(result.utility, expected, rel_tol=1e-9, abs_tol=1e-9):
        failures.append(f"utility {result.utility!r} != numpy re-evaluation {expected!r}")
    trace = check_allocation_trace(result.trace, result.policy)
    if not trace.ok:
        failures.append("trace check: " + "; ".join(trace.failures))
    if complete_graph and not ConflictFreeConstraint(n, m).is_independent(result.policy):
        failures.append("two agents hold one target on a complete graph")
    return failures


class Workload:
    name = ""
    why = ""
    # Ops in the fixed instance list the quality metrics and digests cover.
    quality_ops = 0

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def prepare(self, k: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, k: int, inputs, output, records) -> tuple[list, dict]:
        """Failures of the op and its quality record; ``records`` are the
        (oracle, result, seconds) of the op's dgba_run calls."""
        raise NotImplementedError

    def cleanup(self, inputs) -> None:
        """Remove what an op left on disk."""

    def run_checks(self) -> list:
        """Checks that span ops; run once after the measured window."""
        return []


def _quality(result, conflict: bool, **extra) -> dict:
    return {"utility": result.utility, "messages": result.messages,
            "rounds": result.rounds, "conflict": conflict,
            "digest": op_digest(result), **extra}


class StaticDense(Workload):
    name = "static-dense"
    why = ("N = M = 200 complete-graph dgba_run: phases I/II, component "
           "labelling, trace bookkeeping and core oracle calls do the work; "
           "scenario does none")
    quality_ops = 20
    size = 200

    def prepare(self, k):
        rng = np.random.default_rng(op_seed(self.seed, k))
        values = rng.uniform(2.0, 2.5, size=self.size)
        probs = rng.uniform(0.1, 0.9, size=(self.size, self.size))
        return values, probs

    def run(self, inputs):
        values, probs = inputs
        oracle = taskalloc.TableOracle(values, probs)
        return taskalloc.dgba_run(taskalloc.StaticScenario(oracle))

    def check(self, k, inputs, output, records):
        ((oracle, result, _wall),) = records
        failures = [] if result is output else ["captured run is not the op's"]
        values, probs = inputs
        if oracle.values != values.tolist() or oracle.probs != probs.tolist():
            failures.append("oracle does not hold the drawn arrays")
        failures += check_dgba(oracle, result, complete_graph=True)
        return failures, _quality(result, has_conflict(result.policy))


class SatelliteMC(Workload):
    name = "satellite-mc"
    why = ("one 40x40 Monte Carlo draw of dgba + auction with outputs "
           "written: dynamics, comm graphs, cost rows, auction flooding and "
           "harness copies/writes dominate; dgba is under 20%")
    quality_ops = 30
    size = (40, 40)

    def __init__(self, *args):
        super().__init__(*args)
        self.first_series = None

    def prepare(self, k):
        return op_seed(self.seed, k), os.path.join(self.scratch, f"op-{k}")

    def run(self, inputs):
        seed, out_dir = inputs
        result = taskalloc.run_experiment(taskalloc.ExperimentConfig(
            seed=seed, draws=1, sizes=[self.size], solvers=["dgba", "auction"]))
        taskalloc.write_outputs(result, out_dir)
        return result

    def check(self, k, inputs, output, records):
        failures = [f"run error: {e}" for e in output.errors]
        for oracle, result, _wall in records:
            failures += check_dgba(oracle, result, complete_graph=False)
        _oracle, result, _wall = records[-1]
        (dgba,) = [r for r in output.metrics if r.solver == "dgba"]
        if (dgba.final_utility, dgba.total_messages, dgba.rounds) != (
                result.utility, result.messages, result.rounds):
            failures.append("RunMetrics disagree with the dgba_run result")
        if k == 0:
            series = self._series(inputs)
            if self.first_series is None:
                self.first_series = series
            elif series != self.first_series:
                failures.append("series.csv differs between two equal-seed runs")
        return failures, _quality(result, has_conflict(result.policy))

    def cleanup(self, inputs):
        shutil.rmtree(inputs[1], ignore_errors=True)

    def _series(self, inputs) -> bytes:
        with open(os.path.join(inputs[1], "series.csv"), "rb") as fh:
            return fh.read()

    def run_checks(self):
        """Op 0 run again must write a byte-identical series.csv."""
        seed, out_dir = self.prepare(0)
        inputs = (seed, out_dir + "-again")
        try:
            self.run(inputs)
            if self._series(inputs) != self.first_series:
                return [f"seed {seed}: series.csv differs between two equal-seed runs"]
            return []
        finally:
            self.cleanup(inputs)


class BoundSuite(Workload):
    name = "bound-suite"
    why = ("verify-bounds loop body at N, M <= 4: per-call overhead, exact "
           "enumeration and independence checks dominate; guards small-N "
           "speed")
    quality_ops = 1000

    def prepare(self, k):
        return op_seed(self.seed, k)

    def run(self, inputs):
        inst = harness.random_bound_instance(inputs)
        return inst, harness.run_bound_instance(inst)

    def check(self, k, inputs, output, records):
        inst, cert = output
        ((oracle, result, _wall),) = records
        failures = check_dgba(oracle, result, complete_graph=True)
        if not inst.constraints.is_independent(result.policy):
            failures.append("policy breaks the instance constraints")
        if cert.ratio > 1.0 + 1e-9:
            failures.append(f"achieved exceeds optimal (ratio {cert.ratio!r})")
        if not (cert.half_bound_holds and cert.curvature_bound_holds
                and cert.q_system_bound_holds):
            failures.append(f"certificate fails (ratio {cert.ratio!r})")
        return failures, _quality(result, has_conflict(result.policy),
                                  ratio=cert.ratio)


WORKLOADS = {w.name: w for w in (StaticDense, SatelliteMC, BoundSuite)}
