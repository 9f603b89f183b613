"""Layer spans recorded from outside the library.

The tracer replaces public functions and methods of ``taskalloc`` with
wrappers that record a span (name, parent, start, end) per call, in the
namespace where each caller looks the name up: ``harness`` imports
``dgba_run`` by name, so ``harness.dgba_run`` is wrapped as well as
``solvers.dgba_run``; methods are wrapped on their class.  Nothing in
``src/`` is edited.  Spans are kept in memory per op and reduced to per-layer
self times and counts after the op ends, outside its timed region.
"""

from __future__ import annotations

import json
import os
import time

# (module, attribute path, span name, keep the return value).  The module is
# the namespace the caller resolves the name in; "Class.method" wraps a
# method on its class.
WRAPS = [
    # core
    ("core", "UtilityOracle.evaluate", "core.evaluate", False),
    ("core", "TableOracle.marginal_gains_for_agent", "core.gains", False),
    ("core", "TableOracle.__init__", "core.oracle_init", False),
    ("core", "marginal_gain", "core.marginal_gain", False),
    ("solvers", "marginal_gain", "core.marginal_gain", False),
    ("harness", "estimate_elemental_curvature", "core.curvature", False),
    # constraints
    ("constraints", "PartitionConstraint.is_independent", "constraints.is_independent", True),
    ("constraints", "ConflictFreeConstraint.is_independent", "constraints.is_independent", True),
    ("constraints", "BudgetConstraint.is_independent", "constraints.is_independent", True),
    ("constraints", "CompositeConstraint.is_independent", "constraints.is_independent", True),
    ("harness", "estimate_q", "constraints.estimate_q", False),
    # solvers
    ("solvers", "local_view_policy", "solvers.local_view", False),
    ("solvers", "available_targets", "solvers.available", False),
    ("solvers", "dgba_assignment_phase", "solvers.assign", True),
    ("solvers", "dgba_communication_phase", "solvers.comm", False),
    ("solvers", "graph_components", "solvers.components", False),
    ("taskalloc", "dgba_run", "solvers.dgba", True),
    ("harness", "dgba_run", "solvers.dgba", True),
    ("harness", "auction_baseline", "solvers.auction", True),
    ("harness", "exact_oracle", "solvers.exact", False),
    # scenario
    ("harness", "sample_scenario", "scenario.sample", False),
    ("scenario", "SatelliteScenario.advance", "scenario.advance", False),
    ("scenario", "SatelliteScenario.adjacency", "scenario.adjacency", False),
    ("scenario", "SatelliteScenario.oracle", "scenario.oracle", False),
    ("scenario", "SatelliteScenario.pair_cost_row", "scenario.cost_rows", False),
    # harness
    ("taskalloc", "run_experiment", "harness.experiment", False),
    ("taskalloc", "write_outputs", "harness.write", True),
    ("harness", "random_bound_instance", "harness.random_instance", False),
    ("harness", "run_bound_instance", "harness.instance", False),
]

OP = "op"

_NAME, _PARENT, _START, _END, _RESULT = range(5)


def _resolve(modules: dict, module: str, path: str):
    owner = modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder.  Wrappers are installed only for traced passes, and
    record only between ``begin_op`` and ``end_op``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names = [OP] + sorted({name for _m, _p, name, _k in WRAPS})
        self._index = {name: i for i, name in enumerate(self.names)}
        self._saved: list = []
        self.active = False
        self.spans: list = []
        self.stack: list = []

    def _wrap(self, fn, idx: int, keep: bool):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            rec = [idx, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if keep:
                rec[_RESULT] = result
            return result

        return traced

    def install(self) -> None:
        for module, path, name, keep in WRAPS:
            owner, attr = _resolve(self.modules, module, path)
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(original, self._index[name], keep))

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def begin_op(self) -> None:
        self.spans = [[0, -1, time.perf_counter(), 0.0, None]]
        self.stack = [0]
        self.active = True

    def end_op(self) -> list:
        self.spans[0][_END] = time.perf_counter()
        self.active = False
        spans, self.spans, self.stack = self.spans, [], []
        return spans


def summarize(spans: list, names: list) -> dict:
    """Per-op reduction of one op's spans.

    Self time of a span is its duration minus the time its child spans
    cover; calls run one at a time, so children never overlap.  Returns
    self seconds and calls per span name, the share of the op the top-level
    spans cover, and the counts read off kept return values.
    """
    covered = [0.0] * len(spans)
    for rec in spans[1:]:
        covered[rec[_PARENT]] += rec[_END] - rec[_START]
    self_s: dict = {}
    calls: dict = {}
    for i, rec in enumerate(spans[1:], start=1):
        name = names[rec[_NAME]]
        self_s[name] = self_s.get(name, 0.0) + (rec[_END] - rec[_START]) - covered[i]
        calls[name] = calls.get(name, 0) + 1
    op_s = spans[0][_END] - spans[0][_START]

    counts = {f"{name}.calls": n for name, n in calls.items()}
    dgba = [r[_RESULT] for r in spans if names[r[_NAME]] == "solvers.dgba"]
    auction = [r[_RESULT] for r in spans if names[r[_NAME]] == "solvers.auction"]
    counts["dgba.messages"] = sum(r.messages for r in dgba)
    counts["dgba.rounds"] = sum(r.rounds for r in dgba)
    counts["dgba.finalized_claims"] = sum(len(r.policy) for r in dgba)
    counts["dgba.claim_attempts"] = sum(
        1 for r in spans if names[r[_NAME]] == "solvers.assign" and r[_RESULT])
    counts["auction.messages"] = sum(r.messages for r in auction)
    counts["auction.sweeps"] = sum(r.rounds for r in auction)
    exact_ids = {i for i, r in enumerate(spans) if names[r[_NAME]] == "solvers.exact"}
    checked = [r[_RESULT] for r in spans
               if names[r[_NAME]] == "constraints.is_independent"
               and r[_PARENT] in exact_ids]
    counts["exact.mappings"] = len(checked)
    counts["exact.independent"] = sum(1 for ok in checked if ok)

    written = 0
    for r in spans:
        if names[r[_NAME]] == "harness.write":
            written += sum(os.path.getsize(p) for p in r[_RESULT].values())
    return {
        "op_s": op_s,
        "covered_s": covered[0],
        "self_s": self_s,
        "counts": counts,
        "bytes_written": written,
    }


def write_spans(path: str, ops: list, names: list) -> None:
    """Write (op, spans) pairs as JSON lines: a header naming the fields,
    then one array per span, times in microseconds from the op's start."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["op", "id", "parent", "name", "start_us", "end_us"]) + "\n")
        for op, spans in ops:
            t0 = spans[0][_START]
            for i, rec in enumerate(spans):
                fh.write(json.dumps([
                    op, i, rec[_PARENT], names[rec[_NAME]],
                    round((rec[_START] - t0) * 1e6, 3),
                    round((rec[_END] - t0) * 1e6, 3)]) + "\n")
