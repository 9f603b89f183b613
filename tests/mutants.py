"""Mutation checks: each entry below changes one piece of source text, and
the tests must catch the change.

For every entry the script copies the repository to a temporary directory,
applies the replacement there and runs pytest with ``-x``: the covering
test module first and, if that passes, the whole suite.  It fails when a
mutant survives both runs, and when an entry's source text is not found
exactly once in its file (the code moved, and the entry must follow it).
Before any mutant, each covering module must pass on an unchanged copy,
so that a copy the tests cannot run in kills no mutant.

Run it from anywhere; it finds the repository from its own path:

    python tests/mutants.py

Tier-1 does not collect this file, as its name does not start with
``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# What building, testing and running leave in the tree; none of it is copied.
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_out", ".benchmarks", "bench.out")


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    source: str  # found exactly once in the file
    replacement: str
    module: str  # the test module that covers it
    reason: str  # what the mutant breaks


MUTANTS = (
    Mutant("src/taskalloc/solvers.py",
           "return type(scenario) is StaticScenario",
           "return isinstance(scenario, StaticScenario)",
           "tests/test_rounds.py",
           "a subclass may change its costs and graph, so only the exact type is read once"),
    Mutant("src/taskalloc/solvers.py",
           "elif _is_static(scenario) and",
           "elif isinstance(scenario, StaticScenario) and",
           "tests/test_views.py",
           "dgba_run gives a subclass of StaticScenario the L x N array views"),
    Mutant("src/taskalloc/solvers.py",
           "_is_static(scenario) and scenario.complete:",
           "_is_static(scenario):",
           "tests/test_views.py",
           "dgba_run gives the complete-graph views only to a world whose graph is complete"),
    Mutant("src/taskalloc/solvers.py",
           "np.count_nonzero(self._adjacency > 0)",
           "np.count_nonzero(self._adjacency != 0)",
           "tests/test_views.py",
           "a negative weight is a missing link, so such a graph is not complete"),
    Mutant("src/taskalloc/solvers.py",
           "if t == 0 or not static:",
           "if True:",
           "tests/test_rounds.py",
           "a static world's graph is read once per run, not every round"),
    Mutant("src/taskalloc/solvers.py",
           "groups.setdefault(components[agent - 1], [])",
           "groups.setdefault(components[0], [])",
           "tests/test_rounds.py",
           "each new pair joins the group of its own agent's component"),
    Mutant("src/taskalloc/solvers.py",
           "if len(members) == 1:",
           "if True:",
           "tests/test_rounds.py",
           "only a round whose new pairs lie in one component takes its increment as the group's"),
    Mutant("src/taskalloc/solvers.py",
           "if not 0 < j <= n_targets:",
           "if not 0 < j:",
           "tests/test_rounds.py",
           "the round driver refuses a new pair whose target id is past M"),
    Mutant("src/taskalloc/solvers.py",
           "TRACE_TOL = 1e-9",
           "TRACE_TOL = 1e-3",
           "tests/test_solvers.py",
           "a trace whose increments miss their gains by 1e-8 is refused"),
    Mutant("src/taskalloc/core.py",
           "BOUND_TOL = 1e-9",
           "BOUND_TOL = 1e-2",
           "tests/test_core.py",
           "a ratio 1e-8 below a bound threshold fails the certificate"),
    Mutant("src/taskalloc/solvers.py",
           "g = gains[j]\n        if g > best_gain:",
           "g = gains[j]\n        if g >= best_gain:",
           "tests/test_solvers.py",
           "per-agent phase I breaks equal gains toward the lowest target id"),
    Mutant("src/taskalloc/solvers.py",
           "claim = bids.argmax(axis=1)",
           "claim = bids.shape[1] - 1 - bids[:, ::-1].argmax(axis=1)",
           "tests/test_views.py",
           "both array forms' phase I breaks equal bids toward the lowest target id"),
    Mutant("src/taskalloc/solvers.py",
           "bid[idle] = 0.0",
           "bid[idle] = -np.inf",
           "tests/test_views.py",
           "an array-form agent with nothing available finalizes with bid 0.0"),
    Mutant("src/taskalloc/solvers.py",
           "if allowed.all():",
           "if True:",
           "tests/test_views.py",
           "complete-graph phase I masks the pairs allowed rules out whenever there are some"),
    Mutant("src/taskalloc/solvers.py",
           "self.bids[:, ranked[first]] = -np.inf",
           "self.bids[:, ranked[first][:0]] = -np.inf",
           "tests/test_views.py",
           "a target's column of the live bid rows is -inf from the exchange that makes it held"),
    Mutant("src/taskalloc/solvers.py",
           "(-b[k], k)",
           "(-b[k], -k)",
           "tests/test_solvers.py",
           "per-agent phase II breaks equal bids toward the lowest agent id"),
    Mutant("src/taskalloc/solvers.py",
           "winner = np.where(holders, self.b, -np.inf).argmax(axis=1)",
           "winner = self.b.shape[1] - 1 - np.where(holders, self.b, -np.inf)[:, ::-1].argmax(axis=1)",
           "tests/test_views.py",
           "array phase II breaks equal bids toward the lowest agent id"),
    Mutant("src/taskalloc/solvers.py",
           "np.lexsort((claimers, -self.self_b[claimers], targets))",
           "np.lexsort((-claimers, -self.self_b[claimers], targets))",
           "tests/test_views.py",
           "complete-graph phase II breaks equal bids toward the lowest agent id"),
    Mutant("src/taskalloc/solvers.py",
           "if any(f[k] for k in holders if k != i):",
           "if False:",
           "tests/test_views.py",
           "per-agent phase II withdraws a claim on a target a finalized agent holds"),
    Mutant("src/taskalloc/solvers.py",
           "yields = (holders & self.f).any(axis=1)",
           "yields = np.zeros(live.size, dtype=bool)",
           "tests/test_views.py",
           "array phase II withdraws a claim on a target a finalized agent holds"),
    Mutant("src/taskalloc/solvers.py",
           "if self_f[i]:\n            continue",
           "if False:\n            continue",
           "tests/test_views.py",
           "an agent finalized before the exchange no longer listens, so its claim stands"),
    Mutant("src/taskalloc/solvers.py",
           'np.argsort(-bid[placed], kind="stable")',
           "np.lexsort((-np.arange(placed.sum()), -bid[placed]))",
           "tests/test_views.py",
           "the auction ranks equal bids toward the lowest agent id"),
    Mutant("src/taskalloc/solvers.py",
           "self.done[rows[~placed]] = True",
           "self.done[rows[~placed]] = False",
           "tests/test_views.py",
           "an auction bidder with no positive bid is done, with no target"),
    Mutant("src/taskalloc/solvers.py",
           "if u > best_utility:",
           "if u >= best_utility:",
           "tests/test_search.py",
           "the exact search keeps the first optimal mapping in lexicographic order"),
    Mutant("src/taskalloc/solvers.py",
           "if g > best_gain:\n                best_el",
           "if g >= best_gain:\n                best_el",
           "tests/test_search.py",
           "the greedy takes only a strictly better pair, the first in ground-set order"),
    Mutant("src/taskalloc/solvers.py",
           "(costs <= budgets[:, None])",
           "(costs < budgets[:, None])",
           "tests/test_solvers.py",
           "a pair whose cost equals the agent's budget is allowed"),
    Mutant("src/taskalloc/solvers.py",
           "self.holders[j - 1] < 3",
           "self.holders[j - 1] < 4",
           "tests/test_rounds.py",
           "a target's third holder makes the round tally fall back to evaluate"),
    Mutant("src/taskalloc/constraints.py",
           "if agent in agents or target in targets:",
           "if agent in agents:",
           "tests/test_constraints.py",
           "the allocation system refuses a target held by two agents"),
    Mutant("src/taskalloc/constraints.py",
           "cost <= self.budgets[agent - 1] and cost < math.inf",
           "cost <= self.budgets[agent - 1]",
           "tests/test_constraints.py",
           "a pair of infinite cost is never allowed, not even under an infinite budget"),
    Mutant("src/taskalloc/constraints.py",
           "cost <= self.budgets[agent - 1]",
           "cost < self.budgets[agent - 1]",
           "tests/test_constraints.py",
           "a pair whose cost equals its agent's budget is allowed in the allocation system"),
    Mutant("src/taskalloc/constraints.py",
           "check_bounds(policy, self.n_agents, self.n_targets)\n        agents: set",
           "agents: set",
           "tests/test_constraints.py",
           "the allocation system raises at an out-of-range pair before it gives any verdict"),
    Mutant("src/taskalloc/scenario.py",
           "(x[..., 0] + x[..., 1]) + x[..., 2]",
           "x[..., 0] + (x[..., 1] + x[..., 2])",
           "tests/test_world.py",
           "row sums add in np.sum's order, so cost bits match the reference"),
)


def pytest_fails(repo: Path, *args: str) -> bool:
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=repo, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode != 0


def copy_of_repo(tmp: str) -> Path:
    repo = Path(tmp) / "repo"
    shutil.copytree(ROOT, repo, ignore=SKIPPED)
    return repo


def check(mutant: Mutant) -> str:
    """'killed by <what>', 'SURVIVED' or 'SOURCE NOT FOUND ONCE'."""
    with tempfile.TemporaryDirectory() as tmp:
        repo = copy_of_repo(tmp)
        target = repo / mutant.path
        text = target.read_text()
        if text.count(mutant.source) != 1:
            return "SOURCE NOT FOUND ONCE"
        target.write_text(text.replace(mutant.source, mutant.replacement))
        if pytest_fails(repo, mutant.module):
            return f"killed by {mutant.module}"
        if pytest_fails(repo):
            return "killed by the whole suite"
        return "SURVIVED"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        repo = copy_of_repo(tmp)
        for module in dict.fromkeys(mutant.module for mutant in MUTANTS):
            if pytest_fails(repo, module):
                print(f"{module} fails on an unchanged copy; no mutant can be judged")
                return 1
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = check(mutant)
        failed += not outcome.startswith("killed")
        print(f"{mutant.path}: {mutant.source!r} -> {mutant.replacement!r}: {outcome} "
              f"({time.perf_counter() - start:.1f} s; {mutant.reason})", flush=True)
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
