"""Closed-form prediction formulas: spot values, identities, monotonicity."""

import re

import numpy as np
import pytest

from conftest import random_dual_params, random_policy, random_triple_params
from dualsim.errors import InfeasibleParamsError, ValidationError
from dualsim.oracle import GenerativeSpec, enumerate_dual, enumerate_triple
from dualsim.outcome_model import (
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
    lambda_feasible_range,
)
from dualsim.theory import (
    dual_improvement,
    m_factor,
    multistep_condition,
    predict_dual,
    predict_multistep,
    proportional_dual_accuracy,
    proportional_policy,
    simplified_multistep_accuracy,
)


class TestAlignmentProbability:
    """The alignment mass delta * Pr(both hops wrong), as predict_dual's p_case12."""

    @staticmethod
    def alignment(params):
        return predict_dual(params, RedistributionPolicy(0.0, 0.0, 1.0)).p_case12

    def test_zero_delta(self):
        assert self.alignment(DualOutcomeParams(0.3, 0.9, 0.0, 0.0)) == 0.0

    def test_all_mass_in_double_failure(self):
        assert self.alignment(DualOutcomeParams(0.0, 0.0, 0.0, 1.0)) == 1.0

    def test_direct_value(self):
        p = DualOutcomeParams(0.6, 0.7, 0.05, 0.1)
        assert self.alignment(p) == pytest.approx(0.017, abs=1e-12)

    def test_infeasible_lambda_rejected(self):
        low, high = lambda_feasible_range(0.6, 0.7)
        for lam in (low - 0.01, high + 0.01):
            with pytest.raises(InfeasibleParamsError):
                self.alignment(DualOutcomeParams(0.6, 0.7, lam, 0.1))


class TestPredictDual:
    def test_no_redistribution(self):
        p = DualOutcomeParams(0.6, 0.7, 0.0, 0.3)
        pred = predict_dual(p, RedistributionPolicy(0.0, 0.0, 1.0))
        assert pred.p_d12 == pytest.approx(0.6 * 0.7, abs=1e-12)

    def test_full_correction_no_alignment(self):
        p = DualOutcomeParams(0.6, 0.7, 0.05, 0.0)
        pred = predict_dual(p, RedistributionPolicy(1.0, 0.0, 0.0))
        assert pred.p_d12 == pytest.approx(1.0, abs=1e-12)

    def test_value_against_enumeration(self):
        p = DualOutcomeParams(0.6, 0.7, 0.05, 0.1)
        policy = RedistributionPolicy(0.3, 0.28, 0.42)
        pred = predict_dual(p, policy)
        oracle = enumerate_dual(GenerativeSpec(p, policy))
        assert pred.p_d12 == pytest.approx(oracle.accuracy, abs=1e-12)
        assert pred.p_d12 == pytest.approx(0.6239, abs=1e-12)

    def test_case_masses_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pred = predict_dual(random_dual_params(rng), random_policy(rng))
            assert pred.p_case11 + pred.p_case12 + pred.p_case2 == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= pred.p_d12 <= 1.0 + 1e-12

    def test_monotone_in_marginals_and_alpha(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p21r, delta = rng.uniform(0.05, 0.95), rng.uniform(0.0, 1.0)
            policy = random_policy(rng)
            vals = [
                predict_dual(DualOutcomeParams(p, p21r, 0.0, delta), policy).p_d12
                for p in np.linspace(0.01, 0.99, 25)
            ]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
            p12 = rng.uniform(0.05, 0.95)
            vals = [
                predict_dual(DualOutcomeParams(p12, q, 0.0, delta), policy).p_d12
                for q in np.linspace(0.01, 0.99, 25)
            ]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
            params = random_dual_params(rng)
            vals = [
                predict_dual(params, RedistributionPolicy(a, 0.0, 1.0 - a)).p_d12
                for a in np.linspace(0.0, 1.0, 25)
            ]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


class TestProportionalPolicy:
    def test_no_alignment_mass(self):
        p = DualOutcomeParams(0.6, 0.7, 0.0, 0.0)
        pol = proportional_policy(p, 0.0)
        assert (pol.alpha, pol.beta, pol.gamma) == (1.0, 0.0, 0.0)

    def test_gamma_one(self):
        p = DualOutcomeParams(0.6, 0.7, 0.0, 0.1)
        pol = proportional_policy(p, 1.0)
        assert (pol.alpha, pol.beta, pol.gamma) == (0.0, 0.0, 1.0)

    def test_ratio_value(self):
        p = DualOutcomeParams(0.6, 0.7, 0.0, 0.1)
        pol = proportional_policy(p, 0.42)
        # case masses 0.42 and 0.012; solve alpha/beta = ratio, alpha+beta = 0.58
        assert pol.alpha == pytest.approx(0.563889, abs=1e-6)
        assert pol.alpha + pol.beta + pol.gamma == pytest.approx(1.0, abs=1e-12)
        assert pol.alpha / pol.beta == pytest.approx(0.42 / 0.012, rel=1e-9)

    def test_rejects_zero_case_mass(self):
        # p12=0, p21r=1, lam=0: both reconstructing cases have zero mass
        with pytest.raises(ValidationError):
            proportional_policy(DualOutcomeParams(0.0, 1.0, 0.0, 0.5), 0.2)


class TestProportionalTriplePolicy:
    def test_ratio_copies_reconstructing_cases(self):
        params = TripleOutcomeParams(0.6, 0.7, 0.8, 0.01, -0.003, 0.1)
        probe = predict_multistep(params, RedistributionPolicy(1.0, 0.0, 0.0))
        pol = proportional_policy(params, 0.3)
        assert pol.gamma == 0.3
        assert pol.alpha + pol.beta == pytest.approx(0.7, abs=1e-12)
        assert pol.alpha / pol.beta == pytest.approx(probe.p_case11 / probe.p_case12, rel=1e-12)

    def test_rejects_zero_case_mass(self):
        # q12 = 0 and delta = 0: neither reconstructing case has mass
        with pytest.raises(ValidationError, match=r"^proportional policy undefined: case 1\.1 "):
            proportional_policy(TripleOutcomeParams(0.0, 0.5, 0.5, 0.0, 0.0, 0.0), 0.2)

    @pytest.mark.parametrize(
        "gamma, message",
        [(2.0, r"must be a number in \[0, 1\], got 2\.0"),
         (-0.5, r"must be a number in \[0, 1\], got -0\.5"),
         (float("nan"), r"must be a number in \[0, 1\], got nan")],
        ids=["2.0", "-0.5", "nan"],
    )
    def test_rejects_gamma_out_of_range(self, gamma, message):
        params = TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.1)
        with pytest.raises(ValidationError, match=f"^gamma {message}$"):
            proportional_policy(params, gamma)

    def test_alpha_is_one_rounding_of_the_case_ratio(self):
        # the same (1 - g) * (pr11 / total) as the dual policy, bit for bit
        rng = np.random.default_rng(22)
        for _ in range(500):
            params = random_triple_params(rng, with_dependence=bool(rng.integers(2)))
            g = rng.uniform(0.0, 1.0)
            probe = predict_multistep(params, RedistributionPolicy(1.0, 0.0, 0.0))
            pr11, pr12 = probe.p_case11, probe.p_case12
            pol = proportional_policy(params, g)
            assert pol.alpha == (1 - g) * (pr11 / (pr11 + pr12))
            assert pol.beta == (1 - g) * (pr12 / (pr11 + pr12))


class TestProportionalDualAccuracy:
    def test_perfect_when_gamma_and_delta_zero(self):
        p = DualOutcomeParams(0.6, 0.7, 0.0, 0.0)
        assert proportional_dual_accuracy(p, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_equals_policy_path(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            params = random_dual_params(rng)
            gamma = rng.uniform(0.0, 1.0)
            closed = proportional_dual_accuracy(params, gamma)
            via = predict_dual(params, proportional_policy(params, gamma)).p_d12
            assert closed == pytest.approx(via, abs=1e-12)

    def test_value(self):
        p = DualOutcomeParams(0.6, 0.7, 0.0, 0.1)
        assert proportional_dual_accuracy(p, 0.42) == pytest.approx(0.740289, abs=1e-6)

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^gamma must be a number in \[0, 1\], got 2.0$"):
            proportional_dual_accuracy(DualOutcomeParams(0.6, 0.7, 0.0, 0.1), 2.0)

    def test_rejects_zero_case_mass(self):
        # the one zero-mass message of the proportional policy
        with pytest.raises(ValidationError, match=r"^proportional policy undefined: case 1\.1 "):
            proportional_dual_accuracy(DualOutcomeParams(0.0, 1.0, 0.0, 0.5), 0.2)


class TestDualImprovement:
    def test_zero_on_boundary(self):
        delta = 0.1
        p = DualOutcomeParams(0.5, delta / (1 + delta), 0.0, delta)
        assert dual_improvement(p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_condition_holds(self):
        assert dual_improvement(DualOutcomeParams(0.5, 0.5, 0.0, 0.1), 0.0) > 0

    def test_sign_agrees_with_condition_on_grid(self):
        for p21r in np.linspace(0.005, 0.995, 100):
            for delta in np.linspace(0.005, 0.995, 100):
                imp = dual_improvement(DualOutcomeParams(0.5, p21r, 0.0, delta), 0.0)
                assert (imp > 0) == (p21r > delta / (1 + delta)), (p21r, delta)


class TestPredictMultistep:
    def test_no_redistribution_independent(self):
        q = TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.0)
        pred = predict_multistep(q, RedistributionPolicy(0.0, 0.0, 1.0))
        assert pred.q_m12 == pytest.approx(0.6 * 0.7 * 0.8, abs=1e-12)

    def test_full_correction_no_alignment(self):
        q = TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.0)
        pred = predict_multistep(q, RedistributionPolicy(1.0, 0.0, 0.0))
        assert pred.q_m12 == pytest.approx(1.0, abs=1e-12)

    def test_value_against_enumeration(self):
        q = TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.1)
        policy = RedistributionPolicy(0.3, 0.28, 0.42)
        pred = predict_multistep(q, policy)
        oracle = enumerate_triple(GenerativeSpec(q, policy))
        assert pred.q_m12 == pytest.approx(oracle.accuracy, abs=1e-12)
        assert pred.q_m12 == pytest.approx(0.53244, abs=1e-12)

    def test_reduces_to_dual_with_perfect_tail(self):
        # perfect second and third hops: the cycle reduces to a round trip
        # with a perfect return side
        rng = np.random.default_rng(5)
        for _ in range(100):
            q12, delta = rng.uniform(0.05, 0.95), rng.uniform(0.0, 1.0)
            policy = random_policy(rng)
            triple = predict_multistep(
                TripleOutcomeParams(q12, 1.0, 1.0, 0.0, 0.0, delta), policy
            )
            dual = predict_dual(DualOutcomeParams(q12, 1.0, 0.0, delta), policy)
            assert triple.q_m12 == pytest.approx(dual.p_d12, abs=1e-12)
            assert triple.p_case11 == pytest.approx(dual.p_case11, abs=1e-12)
            assert triple.p_case12 == pytest.approx(dual.p_case12, abs=1e-12)

    def test_case_masses_partition(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            params = random_triple_params(rng, with_dependence=True)
            pred = predict_multistep(params, random_policy(rng))
            assert pred.p_case11 + pred.p_case12 + pred.p_case2 == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= pred.q_m12 <= 1.0 + 1e-12

    def test_triple_dependence_sensitivity(self):
        # q_m12 is linear in lam2 with slope (1+delta)(1-alpha) - alpha*delta;
        # positive whenever alpha is not too close to 1
        rng = np.random.default_rng(6)
        for _ in range(200):
            params = random_triple_params(rng)
            policy = random_policy(rng)
            h = 1e-3
            try:
                bumped = TripleOutcomeParams(
                    params.q12, params.q23, params.q31, 0.0, h, params.delta
                )
                hi = predict_multistep(bumped, policy).q_m12
            except Exception:
                continue
            lo = predict_multistep(params, policy).q_m12
            d = params.delta
            slope = (1 + d) * (1 - policy.alpha) - policy.alpha * d
            assert (hi - lo) / h == pytest.approx(slope, abs=1e-9)
            if policy.alpha <= 0.5:
                assert slope > 0


class TestMFactor:
    def test_zero_delta(self):
        assert m_factor(0.7, 0.8, 0.0) == 0.0

    def test_perfect_tail(self):
        assert m_factor(1.0, 1.0, 0.3) == 0.0

    def test_symmetric_boundary(self):
        # t = delta/(delta+0.5) with delta=0.5 gives exactly M=1
        assert m_factor(0.5, 0.5, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            m_factor(0.0, 0.5, 0.0)

    @pytest.mark.parametrize("condition", [False, True], ids=["m_factor", "multistep_condition"])
    @pytest.mark.parametrize(
        "args, message",
        [((2.5, 0.5, 0.1), "q23 must be a number in [0, 1], got 2.5"),
         ((0.5, 0.5, -0.5), "delta must be a number in [0, 1], got -0.5")],
        ids=["q23-2.5", "delta-negative"],
    )
    def test_rejects_a_value_that_is_no_probability(self, condition, args, message):
        # M read -0.021 at q23 = 2.5, and the condition True; M read -3.0 at delta = -0.5
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            (multistep_condition if condition else m_factor)(*args)


class TestSimplifiedMultistepAccuracy:
    def test_neutral_factor_returns_q12(self):
        assert simplified_multistep_accuracy(0.37, 1.0, 0.0) == pytest.approx(0.37, abs=1e-15)

    def test_zero_factor_returns_one(self):
        assert simplified_multistep_accuracy(0.42, 0.0, 0.0) == 1.0

    def test_rejects_zero_q12(self):
        with pytest.raises(ValidationError):
            simplified_multistep_accuracy(0.0, 0.5, 0.0)

    @pytest.mark.parametrize(
        "args, message",
        [((float("nan"), 0.5, 0.0), "q12 must be a positive finite number, got nan"),
         ((0.5, float("nan"), 0.0), "m must be a nonnegative finite number, got nan"),
         ((2.0, 1.0, 0.0), "q12 must be a number in [0, 1], got 2.0"),
         (("x", 1.0, 0.0), "q12 must be a positive finite number, got 'x'"),
         ((0.5, 1.0, 1.5), "loss must be a number in [0, 1], got 1.5")],
        ids=["q12-nan", "m-nan", "q12-2.0", "q12-str", "loss-1.5"],
    )
    def test_rejects_inputs_outside_the_domain(self, args, message):
        # each returned nan, an accuracy outside [0, 1] or raised a bare TypeError
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            simplified_multistep_accuracy(*args)

    def test_matches_full_prediction_under_proportional_policy(self):
        params = TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.1)
        policy = proportional_policy(params, 0.0)
        full = predict_multistep(params, policy)
        m = m_factor(0.7, 0.8, 0.1)
        assert simplified_multistep_accuracy(0.6, m, 0.0) == pytest.approx(
            full.q_m12, abs=1e-12
        )

    def test_matches_with_nonzero_gamma(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            params = random_triple_params(rng)
            gamma = rng.uniform(0.0, 1.0)
            policy = proportional_policy(params, gamma)
            full = predict_multistep(params, policy)
            m = m_factor(params.q23, params.q31, params.delta)
            assert simplified_multistep_accuracy(
                params.q12, m, policy.gamma * full.p_case2
            ) == pytest.approx(full.q_m12, abs=1e-12)

    def test_strictly_decreasing_in_m(self):
        for q12 in (0.2, 0.5, 0.9):
            vals = [simplified_multistep_accuracy(q12, m, 0.3) for m in np.linspace(0, 3, 50)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestMultistepCondition:
    def test_symmetric_grid_matches_threshold(self):
        for t in np.linspace(0.005, 0.995, 100):
            for delta in np.linspace(0.005, 0.995, 100):
                assert multistep_condition(t, t, delta) == (t > delta / (delta + 0.5)), (t, delta)

    def test_zero_delta_any_positive_q(self):
        assert multistep_condition(0.3, 0.8, 0.0) is True

    def test_boundary_excluded(self):
        # delta=0.5 puts the threshold exactly at t=0.5
        assert multistep_condition(0.5, 0.5, 0.5) is False
