"""Submodular utility primitives: marginal gains, elemental curvature, bounds.

The allocation problem works over the ground set of (agent, target) pairs.
Utilities are set functions over allocation policies (sets of pairs) that are
normalized, non-decreasing and submodular, and decompose as a sum of
per-target terms.  Everything in this module is a pure function of its
arguments; oracles must be reentrant.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, NamedTuple, Optional, Tuple

import numpy as np


class ContractViolation(ValueError):
    """A caller broke an operation precondition."""


class SizeLimitExceeded(ValueError):
    """An exhaustive enumeration was requested on a ground set above its cap."""


class DegenerateOracleError(ValueError):
    """Curvature estimation found no pair with a usable denominator."""


class GroundElement(NamedTuple):
    """One (agent, target) pair of the ground set.  Ids are 1-based."""

    agent: int
    target: int


# An allocation policy is a set of ground elements; frozenset gives us the
# required set semantics (unordered, no duplicates) and hashability.
Policy = FrozenSet[GroundElement]

CURVATURE_EPSILON = 1e-9  # a gain below this leaves a curvature ratio undefined
BOUND_TOL = 1e-9          # a ratio this far below a bound threshold still meets it
# Exhaustive curvature estimation is only attempted up to this many ground
# elements (2^n subsets are scanned).
CURVATURE_GROUND_CAP = 16


def make_policy(pairs: Iterable[Tuple[int, int]]) -> Policy:
    return frozenset(GroundElement(a, t) for a, t in pairs)


def check_bounds(policy: Iterable[GroundElement], n_agents: int, n_targets: int) -> None:
    """Raise ContractViolation unless every element's ids are in range."""
    for el in policy:
        if not (1 <= el.agent <= n_agents and 1 <= el.target <= n_targets):
            raise ContractViolation(
                f"element {el} outside ground set ({n_agents} agents x {n_targets} targets)"
            )


class UtilityOracle(abc.ABC):
    """Normalized, non-decreasing, submodular utility over agent-target pairs.

    The total utility decomposes per target: evaluate(P) is the sum of
    evaluate_target(j, P) over all targets j.  evaluate(empty) must be 0.
    """

    n_agents: int
    n_targets: int

    @abc.abstractmethod
    def evaluate_target(self, target: int, policy: Policy) -> float:
        """Utility contributed by one target under the given policy."""

    def evaluate(self, policy: Policy) -> float:
        check_bounds(policy, self.n_agents, self.n_targets)
        return sum(self.target_utilities(policy), 0.0)

    def target_utilities(self, policy: Policy) -> list[float]:
        """evaluate_target(j, policy) for j = 1..M, in order.  Subclasses
        with per-target structure override this with a single pass."""
        return [self.evaluate_target(j, policy) for j in range(1, self.n_targets + 1)]

    def ground_set(self) -> list[GroundElement]:
        return [
            GroundElement(i, j)
            for i in range(1, self.n_agents + 1)
            for j in range(1, self.n_targets + 1)
        ]

    def marginal_gains_for_agent(self, policy: Policy, agent: int,
                                 targets: Iterable[int]) -> dict[int, float]:
        """Marginal gain of (agent, j) for each candidate target j.

        Subclasses with per-target structure override this with an O(1)
        per-target evaluation; the default recomputes the per-target utility.
        """
        gains = {}
        for j in targets:
            gains[j] = marginal_gain(self, policy, GroundElement(agent, j))
        return gains


def marginal_gain(oracle: UtilityOracle, policy: Policy,
                  element: GroundElement) -> float:
    """Utility increase from adding one element to a policy.

    Only the element's target term can change, so the difference is taken on
    that single term.  Tiny negative values from float cancellation are
    clamped to zero.
    """
    if element in policy:
        raise ContractViolation(f"element {element} already in policy")
    j = element.target
    gain = oracle.evaluate_target(j, policy | {element}) - oracle.evaluate_target(j, policy)
    return max(0.0, gain)


@dataclass(frozen=True)
class CurvatureReport:
    """Result of exhaustive elemental-curvature estimation."""

    kappa_e: float
    witness: Optional[Tuple[Policy, GroundElement, GroundElement]]
    skipped_pairs: int


def estimate_elemental_curvature(oracle: UtilityOracle,
                                 ground: Iterable[GroundElement]) -> CurvatureReport:
    """Exhaustive elemental curvature of an oracle over a ground set of at
    most ``CURVATURE_GROUND_CAP`` elements (``SizeLimitExceeded`` beyond).

    Maximizes gain(pi | P + {pi'}) / gain(pi | P) over all subsets P of the
    ground set and all distinct pi, pi' outside P.  Pairs whose denominator
    falls below ``CURVATURE_EPSILON`` are skipped and counted; the maximum
    over well-defined ratios is reported, clamped to [0, 1].  Since 1 is the
    largest attainable value for a submodular oracle, the scan stops early
    once a ratio reaches it.
    """
    elements = sorted(set(ground))
    epsilon = CURVATURE_EPSILON
    n = len(elements)
    if n > CURVATURE_GROUND_CAP:
        raise SizeLimitExceeded(
            f"ground set of {n} elements exceeds enumeration cap {CURVATURE_GROUND_CAP}"
        )
    best = -1.0
    witness = None
    skipped = 0
    for mask in range(1 << n):
        subset = frozenset(elements[k] for k in range(n) if mask >> k & 1)
        outside = [e for e in elements if e not in subset]
        for pi, pi_prime in combinations(outside, 2):
            for a, b in ((pi, pi_prime), (pi_prime, pi)):
                denom = marginal_gain(oracle, subset, a)
                if denom < epsilon:
                    skipped += 1
                    continue
                numer = marginal_gain(oracle, subset | {b}, a)
                ratio = numer / denom
                if ratio > best:
                    best = ratio
                    witness = (subset, a, b)
                if best >= 1.0:
                    return CurvatureReport(1.0, witness, skipped)
    if best < 0.0:
        raise DegenerateOracleError(
            "every curvature ratio had a near-zero denominator"
        )
    return CurvatureReport(min(max(best, 0.0), 1.0), witness, skipped)


def xi_factor(m: int, kappa_e: float) -> float:
    """Curvature attenuation factor used by the greedy performance bounds.

    Equals (1 - kappa^m) / (m * (1 - kappa)) for kappa < 1 and 1 at kappa = 1.
    Computed through the equivalent mean of the geometric partial sums, which
    is exact, stable as kappa approaches 1, and makes the kappa = 1 case the
    natural limit rather than a special branch.
    """
    if m < 1:
        raise ContractViolation("m must be a positive integer")
    if not 0.0 <= kappa_e <= 1.0:
        raise ContractViolation("kappa_e must lie in [0, 1]")
    return sum(kappa_e ** t for t in range(m)) / m


@dataclass(frozen=True)
class BoundCertificate:
    """Achieved-to-optimal ratio checked against the three provable bounds."""

    ratio: float
    half_bound_holds: bool
    curvature_bound_holds: bool
    q_system_bound_holds: bool
    half_threshold: float
    curvature_threshold: float
    q_system_threshold: float
    kappa_e: float
    q: float
    xi_argument: int

    # Whether a threshold is above 1/2; at exactly 1/2 or below, that bound
    # certifies no more than the 1/2 bound does.
    @property
    def curvature_above_half(self) -> bool:
        return self.curvature_threshold > 0.5

    @property
    def q_system_above_half(self) -> bool:
        return self.q_system_threshold > 0.5


def bound_certificate(achieved: float, optimal: float, kappa_e: float,
                      q: float, n_agents: int) -> BoundCertificate:
    """Certify an achieved utility against the greedy approximation bounds.

    The third threshold evaluates the attenuation factor at
    ceil((1 - 1/q) * N), the conservative integer choice since the factor is
    non-increasing in its argument.
    """
    if achieved < 0:
        raise ContractViolation("achieved utility must be nonnegative")
    if optimal <= 0:
        if achieved > 0:
            raise ContractViolation("achieved > 0 with optimal = 0 is inconsistent")
        # Empty instance: everything is trivially optimal.
        return BoundCertificate(1.0, True, True, True, 0.5,
                                1.0 / (1.0 + kappa_e), 0.5, kappa_e, q, 1)
    if q < 1:
        raise ContractViolation("q must be at least 1")
    ratio = achieved / optimal
    xi_arg = max(1, math.ceil((1.0 - 1.0 / q) * n_agents))
    t_half = 0.5
    t_curv = 1.0 / (1.0 + kappa_e)
    t_qsys = 1.0 / (1.0 + kappa_e * xi_factor(xi_arg, kappa_e))
    return BoundCertificate(
        ratio=ratio,
        half_bound_holds=ratio >= t_half - BOUND_TOL,
        curvature_bound_holds=ratio >= t_curv - BOUND_TOL,
        q_system_bound_holds=ratio >= t_qsys - BOUND_TOL,
        half_threshold=t_half,
        curvature_threshold=t_curv,
        q_system_threshold=t_qsys,
        kappa_e=kappa_e,
        q=q,
        xi_argument=xi_arg,
    )


class TableOracle(UtilityOracle):
    """Probability-of-success utility from a fixed success-probability table.

    Target j contributes value[j] * (1 - prod over assigned agents i of
    (1 - prob[i][j])).  This is the coverage-style objective the satellite
    scenario instantiates from live positions; here the table is frozen,
    which is what the static bound-verification instances need.

    ``values`` is a plain list and ``prob_table`` the N x M table as a
    float array, which the solvers' array kernels and the round driver's
    tally read.  ``probs``, the same table as nested lists for the
    per-pair methods, is built on its first read: the array path never
    reads it.  All three are read-only.
    """

    def __init__(self, values, probs):
        # values: length-M, probs: N x M, both indexable from 0.
        values = np.array(values, dtype=float)
        try:
            table = np.array(probs, dtype=float)
        except ValueError as exc:
            raise ContractViolation("probability table is ragged") from exc
        if table.shape == (0,):  # no agents
            table = table.reshape(0, len(values))
        if values.ndim != 1 or table.ndim != 2 or table.shape[1] != len(values):
            raise ContractViolation("probability table is ragged")
        if not ((table >= 0.0) & (table <= 1.0)).all():
            raise ContractViolation("success probabilities must lie in [0, 1]")
        if not ((values >= 0.0) & np.isfinite(values)).all():
            # A negative value would make the utility decreasing, an
            # infinite one the empty policy's utility NaN.
            raise ContractViolation("target values must be finite and nonnegative")
        self.values = values.tolist()
        table.flags.writeable = False
        self.prob_table = table
        self.n_agents, self.n_targets = table.shape

    @functools.cached_property
    def probs(self) -> list[list[float]]:
        return self.prob_table.tolist()

    def _miss_products(self, policy: Policy) -> list[float]:
        """Per target, the product of 1 - prob over its holders in the
        policy, multiplied in the policy's iteration order."""
        miss = [1.0] * self.n_targets
        for el in policy:
            miss[el.target - 1] *= 1.0 - self.probs[el.agent - 1][el.target - 1]
        return miss

    def target_utilities(self, policy: Policy) -> list[float]:
        return [v * (1.0 - q) for v, q in zip(self.values, self._miss_products(policy))]

    def evaluate_target(self, target: int, policy: Policy) -> float:
        return self.values[target - 1] * (1.0 - self._miss_products(policy)[target - 1])

    def marginal_gains_for_agent(self, policy, agent, targets):
        miss, row = self._miss_products(policy), self.probs[agent - 1]
        return {j: self.values[j - 1] * miss[j - 1] * row[j - 1] for j in targets}


class ModularOracle(UtilityOracle):
    """Additive utility: each pair contributes a fixed weight, no interaction."""

    def __init__(self, weights):
        # weights: N x M table, indexable from 0.
        if len(weights) == 0 or any(len(row) != len(weights[0]) for row in weights):
            raise ContractViolation("weight table is empty or ragged")
        self.weights = {
            GroundElement(i + 1, j + 1): float(w)
            for i, row in enumerate(weights)
            for j, w in enumerate(row)
        }
        self.n_agents = len(weights)
        self.n_targets = len(weights[0])
        if not all(0.0 <= w < math.inf for w in self.weights.values()):
            # A negative weight would make the utility decreasing.
            raise ContractViolation("weights must be finite and nonnegative")

    def evaluate_target(self, target: int, policy: Policy) -> float:
        return sum(
            self.weights.get(el, 0.0) for el in policy if el.target == target
        )
