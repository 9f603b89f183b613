"""Property-based tests of the submodularity framework.

The randomized suites here use moderate sample counts for fast feedback;
the acceptance suite repeats them at full scale.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.core import (
    GroundElement,
    TableOracle,
    estimate_elemental_curvature,
    marginal_gain,
    xi_factor,
)
from taskalloc.scenario import observation_utility


def random_oracle(rng, max_size=3, min_elements=1):
    while True:
        n = int(rng.integers(1, max_size + 1))
        m = int(rng.integers(1, max_size + 1))
        if n * m >= min_elements:
            break
    probs = rng.uniform(0.05, 0.95, size=(n, m))
    values = rng.uniform(0.5, 3.0, size=m)
    return TableOracle(values, probs)


def random_subset(rng, ground):
    mask = rng.random(len(ground)) < rng.uniform(0.2, 0.8)
    return frozenset(el for el, keep in zip(ground, mask) if keep)


def random_observation_instance(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    agents = [rng.uniform(0, 6, size=3) for _ in range(n)]
    targets = [rng.uniform(0, 6, size=3) for _ in range(m)]
    values = rng.uniform(2.0, 2.5, size=m).tolist()
    decays = [0.8] * m
    ground = [GroundElement(i, j)
              for i in range(1, n + 1) for j in range(1, m + 1)]
    return agents, targets, values, decays, ground


def utility_fn(agents, targets, values, decays):
    def evaluate(policy):
        total, _ = observation_utility(policy, agents, targets, values, decays)
        return total
    return evaluate


class TestObservationUtilityAxioms:
    """Normalization, monotonicity and diminishing returns of the
    observation utility, sampled over random geometry."""

    def test_normalization_exact(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            agents, targets, values, decays, _ = random_observation_instance(rng)
            total, _ = observation_utility(frozenset(), agents, targets,
                                           values, decays)
            assert total == 0.0

    def test_monotonicity(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            agents, targets, values, decays, ground = \
                random_observation_instance(rng)
            evaluate = utility_fn(agents, targets, values, decays)
            small = random_subset(rng, ground)
            big = small | random_subset(rng, ground)
            assert evaluate(small) <= evaluate(big) + 1e-12

    def test_submodularity(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            agents, targets, values, decays, ground = \
                random_observation_instance(rng)
            evaluate = utility_fn(agents, targets, values, decays)
            small = random_subset(rng, ground)
            big = small | random_subset(rng, ground)
            outside = [el for el in ground if el not in big]
            if not outside:
                continue
            el = outside[rng.integers(len(outside))]
            gain_small = evaluate(small | {el}) - evaluate(small)
            gain_big = evaluate(big | {el}) - evaluate(big)
            assert gain_small >= gain_big - 1e-12


class TestSetFunctionInequalities:
    """The two union-bound inequalities behind the performance analysis."""

    def test_union_bounded_by_sum_of_gains(self):
        rng = np.random.default_rng(200)
        for _ in range(200):
            oracle = random_oracle(rng)
            ground = oracle.ground_set()
            base = random_subset(rng, ground)
            other = random_subset(rng, ground)
            gains = sum(marginal_gain(oracle, base, el)
                        for el in other - base)
            assert oracle.evaluate(base | other) <= \
                oracle.evaluate(base) + gains + 1e-12

    def test_union_bounded_with_curvature_attenuation(self):
        rng = np.random.default_rng(201)
        for _ in range(100):
            oracle = random_oracle(rng, min_elements=2)
            ground = oracle.ground_set()
            kappa = estimate_elemental_curvature(oracle, ground).kappa_e
            base = random_subset(rng, ground)
            other = random_subset(rng, ground)
            extra = other - base
            if not extra:
                continue
            gains = sum(marginal_gain(oracle, base, el) for el in extra)
            xi = xi_factor(len(extra), kappa)
            assert oracle.evaluate(base | other) <= \
                oracle.evaluate(base) + xi * gains + 1e-12

    def test_gain_attenuation_under_supersets(self):
        # Adding m elements shrinks any remaining gain by at most kappa^m.
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 100:
            oracle = random_oracle(rng, min_elements=2)
            ground = oracle.ground_set()
            kappa = estimate_elemental_curvature(oracle, ground).kappa_e
            if kappa <= 0:
                continue
            base = random_subset(rng, ground)
            superset = base | random_subset(rng, ground)
            outside = [el for el in ground if el not in superset]
            if not outside:
                continue
            el = outside[rng.integers(len(outside))]
            m = len(superset - base)
            lhs = marginal_gain(oracle, base, el)
            rhs = marginal_gain(oracle, superset, el) / kappa ** m
            assert lhs >= rhs - 1e-9
            checked += 1


class TestXiMonotonicity:
    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=300, deadline=None)
    def test_non_increasing_in_m(self, m, kappa):
        assert xi_factor(m + 1, kappa) <= xi_factor(m, kappa) + 1e-15

    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_range(self, m, kappa):
        xi = xi_factor(m, kappa)
        assert 0.0 < xi <= 1.0

    def test_grid(self):
        for kappa in np.arange(0.0, 1.0, 0.1):
            values = [xi_factor(m, float(kappa)) for m in range(1, 65)]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestCurvatureProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_kappa_within_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        oracle = random_oracle(rng, max_size=2)
        if oracle.n_agents * oracle.n_targets < 2:
            return
        rep = estimate_elemental_curvature(oracle, oracle.ground_set())
        assert 0.0 <= rep.kappa_e <= 1.0

    def test_coverage_oracle_kappa_below_one(self):
        # With overlapping observers the ratio is the survival of the
        # interposed observer, strictly below 1.
        oracle = TableOracle([1.0], [[0.4], [0.6]])
        rep = estimate_elemental_curvature(oracle, oracle.ground_set())
        assert rep.kappa_e == pytest.approx(0.6, abs=1e-12)
