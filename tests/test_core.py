"""Unit tests for utility oracles, curvature estimation and bound checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.core import (
    ContractViolation,
    CurvatureReport,
    DegenerateOracleError,
    GroundElement,
    ModularOracle,
    SizeLimitExceeded,
    TableOracle,
    bound_certificate,
    estimate_elemental_curvature,
    make_policy,
    marginal_gain,
    xi_factor,
)

P = math.exp(-0.8)


def single_target_oracle():
    """Two agents, one target, both at distance 1 with decay 0.8."""
    return TableOracle(values=[2.0], probs=[[P], [P]])


class TestTableOracle:
    def test_empty_policy_is_zero(self):
        assert single_target_oracle().evaluate(frozenset()) == 0.0

    def test_single_element_value(self):
        orc = single_target_oracle()
        got = orc.evaluate(make_policy([(1, 1)]))
        assert got == pytest.approx(2.0 * P, abs=1e-15)

    def test_decomposes_per_target(self):
        orc = TableOracle([2.0, 1.0], [[0.3, 0.6], [0.5, 0.2]])
        pol = make_policy([(1, 1), (2, 2)])
        total = sum(orc.evaluate_target(j, pol) for j in (1, 2))
        assert orc.evaluate(pol) == pytest.approx(total, abs=1e-15)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ContractViolation):
            TableOracle([1.0], [[1.5]])

    def test_rejects_negative_value(self):
        with pytest.raises(ContractViolation):
            TableOracle([1.0, -0.5], [[0.5, 0.5]])

    def test_rejects_ragged_table(self):
        with pytest.raises(ContractViolation):
            TableOracle([1.0, 1.0], [[0.5], [0.5, 0.5]])

    def test_rejects_rows_shorter_than_values(self):
        with pytest.raises(ContractViolation, match="ragged"):
            TableOracle([1.0, 1.0], [[0.5]])

    def test_no_agents(self):
        orc = TableOracle([1.0, 2.0], [])
        assert (orc.n_agents, orc.n_targets) == (0, 2)
        assert orc.evaluate(frozenset()) == 0.0

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(ContractViolation):
            TableOracle([value], [[0.5]])

    def test_list_form_is_built_on_first_read(self):
        orc = TableOracle([2.0, 1.5, 1.0], np.random.default_rng(3).uniform(size=(4, 3)))
        assert "probs" not in vars(orc)
        first = orc.probs
        assert first == orc.prob_table.tolist()
        assert orc.probs is first

    def test_out_of_bounds_element(self):
        with pytest.raises(ContractViolation):
            single_target_oracle().evaluate(make_policy([(3, 1)]))

    def test_batch_gains_match_marginal_gain(self):
        orc = TableOracle([2.0, 1.5, 1.0],
                          [[0.3, 0.6, 0.1], [0.5, 0.2, 0.9]])
        pol = make_policy([(2, 1)])
        gains = orc.marginal_gains_for_agent(pol, 1, [1, 2, 3])
        for j in (1, 2, 3):
            expected = marginal_gain(orc, pol, GroundElement(1, j))
            assert gains[j] == pytest.approx(expected, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 24), st.integers(0, 2 ** 32 - 1))
def test_evaluate_is_left_to_right_sum_of_targets(n, m, seed):
    """The one-pass evaluate equals the per-target definition to the bit,
    with up to four agents (so up to four miss factors) per target."""
    rng = np.random.default_rng(seed)
    orc = TableOracle(rng.uniform(0.5, 3.0, m), rng.uniform(0.0, 1.0, (n, m)))
    pol = make_policy(
        (int(i) + 1, j)
        for j in range(1, m + 1)
        for i in rng.permutation(n)[:rng.integers(0, min(n, 4) + 1)]
    )
    expected = 0
    for j in range(1, m + 1):
        expected = expected + orc.evaluate_target(j, pol)
    assert orc.evaluate(pol) == expected


class TestMarginalGain:
    def test_first_agent_gain(self):
        orc = single_target_oracle()
        d1 = marginal_gain(orc, frozenset(), GroundElement(1, 1))
        assert d1 == pytest.approx(0.8986579282344431, abs=1e-12)

    def test_second_agent_diminished(self):
        orc = single_target_oracle()
        base = make_policy([(1, 1)])
        d1 = marginal_gain(orc, frozenset(), GroundElement(1, 1))
        d2 = marginal_gain(orc, base, GroundElement(2, 1))
        assert d2 == pytest.approx(0.4948648922451324, abs=1e-12)
        assert d2 < d1

    def test_duplicate_element_rejected(self):
        orc = single_target_oracle()
        with pytest.raises(ContractViolation):
            marginal_gain(orc, make_policy([(1, 1)]), GroundElement(1, 1))


class TestCurvature:
    def test_single_target_pair(self):
        orc = single_target_oracle()
        rep = estimate_elemental_curvature(orc, orc.ground_set())
        assert rep.kappa_e == pytest.approx(1.0 - P, abs=1e-12)
        assert rep.witness is not None

    def test_modular_oracle_has_curvature_one(self):
        orc = ModularOracle([[1.0, 2.0], [3.0, 4.0]])
        rep = estimate_elemental_curvature(orc, orc.ground_set())
        assert rep.kappa_e == 1.0

    def test_saturating_oracle_has_curvature_zero(self):
        # Second observer adds nothing once the target is covered for sure.
        orc = TableOracle([1.0], [[1.0], [1.0]])
        rep = estimate_elemental_curvature(orc, orc.ground_set())
        assert rep.kappa_e == 0.0

    def test_cap_enforced(self):
        orc = TableOracle([1.0] * 5, [[0.5] * 5] * 3)
        with pytest.raises(SizeLimitExceeded):
            estimate_elemental_curvature(orc, orc.ground_set(), cap=12)

    def test_degenerate_ground_raises(self):
        orc = TableOracle([1.0], [[0.5]])
        with pytest.raises(DegenerateOracleError):
            estimate_elemental_curvature(orc, orc.ground_set())

    def test_gain_below_epsilon_is_skipped(self):
        # Agent 1 never succeeds, so its gain, the ratio's denominator, is
        # 0 on every policy; the ratio is taken the other way round only.
        orc = TableOracle([1.0], [[0.0], [0.5]])
        rep = estimate_elemental_curvature(orc, orc.ground_set())
        assert rep == CurvatureReport(
            1.0, (frozenset(), GroundElement(2, 1), GroundElement(1, 1)), 1)


class TestXiFactor:
    def test_m_one_is_one(self):
        for kappa in (0.0, 0.3, 0.99, 1.0):
            assert xi_factor(1, kappa) == 1.0

    def test_kappa_one_is_one(self):
        for m in (1, 2, 17, 64):
            assert xi_factor(m, 1.0) == 1.0

    def test_known_value(self):
        assert xi_factor(2, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_continuous_near_one(self):
        # The closed form is numerically fragile near kappa = 1; the
        # implementation must stay close to the limit value.
        assert xi_factor(10, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_zero_m(self):
        with pytest.raises(ContractViolation):
            xi_factor(0, 0.5)

    @pytest.mark.parametrize("kappa", [-0.1, 1.5, math.nan])
    def test_rejects_kappa_outside_unit_interval(self, kappa):
        with pytest.raises(ContractViolation, match="kappa_e"):
            xi_factor(2, kappa)


class TestBoundCertificate:
    def test_equal_utilities_pass_everything(self):
        cert = bound_certificate(3.0, 3.0, 0.7, 2, 4)
        assert cert.ratio == 1.0
        assert cert.half_bound_holds
        assert cert.curvature_bound_holds
        assert cert.q_system_bound_holds

    def test_kappa_one_matches_half(self):
        cert = bound_certificate(1.0, 2.0, 1.0, 3, 5)
        assert cert.curvature_threshold == pytest.approx(0.5)
        assert cert.curvature_bound_holds

    def test_paper_instance_ratios(self):
        cert = bound_certificate(1.1005544462290984, 1.3935228204795755,
                                 0.5506710358827785, 2, 2)
        assert cert.ratio == pytest.approx(0.7897642077008447, abs=1e-12)
        assert cert.half_bound_holds
        assert cert.curvature_bound_holds
        assert cert.q_system_bound_holds

    def test_zero_optimal_with_positive_achieved_rejected(self):
        with pytest.raises(ContractViolation):
            bound_certificate(1.0, 0.0, 0.5, 2, 2)

    @pytest.mark.parametrize("achieved, q, match", [(-1.0, 2, "nonnegative"),
                                                    (1.0, 0.5, "at least 1")])
    def test_rejects_negative_utility_and_q_below_one(self, achieved, q, match):
        with pytest.raises(ContractViolation, match=match):
            bound_certificate(achieved, 2.0, 0.5, q, 2)

    def test_empty_instance_is_trivially_optimal(self):
        cert = bound_certificate(0.0, 0.0, 0.5, 2, 2)
        assert cert.ratio == 1.0 and cert.half_bound_holds

    def test_xi_argument_ceiling(self):
        # (1 - 1/3) * 4 = 2.67 rounds up to 3.
        cert = bound_certificate(1.0, 1.0, 0.5, 3, 4)
        assert cert.xi_argument == 3


class TestModularOracle:
    @pytest.mark.parametrize("weights", [
        [[1.0, -2.0], [0.5, 0.5]],
        [[1.0, math.inf]],
        [[1.0, 2.0], [0.5]],
        [],
    ], ids=["negative", "infinite", "ragged", "empty-table"])
    def test_rejects_weights_that_break_the_contract(self, weights):
        with pytest.raises(ContractViolation):
            ModularOracle(weights)
