"""Closed-form accuracy predictions for dual and multi-step training.

Every function here evaluates an analytic formula over an outcome model;
none of them walks the generative event tree. The independent enumeration
of the same quantities lives in :mod:`dualsim.oracle`, and agreement of
the two paths (within 1e-12) is the package's central correctness check.

Event-tree vocabulary used throughout (see also the oracle module):
  case 1.1  chain reconstructs and the first hop was correct
  case 1.2  chain reconstructs only by accidental alignment (first hop wrong)
  case 2    chain does not reconstruct; training redistributes this mass
            according to a RedistributionPolicy
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NONNEGATIVE, POSITIVE, PROBABILITY, ValidationError
from .outcome_model import (
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
    build_dual_joint,
    build_triple_joint,
)


@dataclass(frozen=True, slots=True)
class DualPrediction:
    """Predicted outcome of dual training for one direction.

    p_case11/p_case12/p_case2 partition the unit mass of the event tree;
    p_case12 is the alignment mass delta * Pr(both hops wrong), that is
    ``delta * ((1-p12)*(1-p21r) + lam)``.
    ``p_d12`` is the predicted post-training accuracy and ``improvement``
    the gain over the pre-training accuracy p12.
    """

    p_case11: float
    p_case12: float
    p_case2: float
    p_d12: float
    improvement: float


@dataclass(frozen=True, slots=True)
class TriplePrediction:
    """Predicted outcome of multi-step training through one pivot.

    ``q_m12`` is the predicted post-training accuracy of the first hop
    (the pivot multiplier M is :func:`m_factor`).
    """

    p_case11: float
    p_case12: float
    p_case2: float
    q_m12: float


def _dual_case_masses(params: DualOutcomeParams) -> tuple[float, float, float]:
    cells = build_dual_joint(params)  # validates feasibility; indexed by hop bits
    pr11 = cells[0b11]
    pr12 = params.delta * cells[0b00]
    return pr11, pr12, 1.0 - pr11 - pr12


def _triple_case_masses(params: TripleOutcomeParams) -> tuple[float, float, float]:
    cells = build_triple_joint(params)  # validates feasibility; indexed by hop bits
    d = params.delta
    pr11 = cells[0b111] + d * cells[0b100]
    pr12 = d * (cells[0b000] + cells[0b001] + cells[0b010])
    return pr11, pr12, 1.0 - pr11 - pr12


def predict_dual(params: DualOutcomeParams, policy: RedistributionPolicy) -> DualPrediction:
    """Closed-form accuracy after dual training.

        p_d12 = (1-alpha)*(p12*p21r + lam)
              + alpha*delta*(p12 + p21r - p12*p21r - lam)
              + alpha*(1-delta)

    Only ``alpha`` enters the accuracy (beta and gamma outcomes are both
    incorrect); the full policy is taken so the prediction carries the
    same information as the enumeration oracle.
    """
    p, q, lam, delta = params.p12, params.p21r, params.lam, params.delta
    pr11, pr12, pr2 = _dual_case_masses(params)
    a = policy.alpha
    p_d12 = (
        (1.0 - a) * (p * q + lam)
        + a * delta * (p + q - p * q - lam)
        + a * (1.0 - delta)
    )
    return DualPrediction(
        p_case11=pr11,
        p_case12=pr12,
        p_case2=pr2,
        p_d12=p_d12,
        improvement=p_d12 - p,
    )


def _proportional_split(
    params: DualOutcomeParams | TripleOutcomeParams, gamma: float
) -> tuple[float, float, float, float]:
    """Case masses (1.1, 1.2, 2) of the round trip or pivot cycle, by the
    params type, and the reconstructing total 1.1 + 1.2 that the
    proportional policy divides by. Gamma is checked before a joint table is
    built; a zero total is rejected, since the ratio is then undefined."""
    PROBABILITY.require(gamma, "gamma")
    masses = _dual_case_masses if isinstance(params, DualOutcomeParams) else _triple_case_masses
    pr11, pr12, pr2 = masses(params)
    total = pr11 + pr12
    if total <= 0.0:
        raise ValidationError(
            "proportional policy undefined: case 1.1 and case 1.2 both have zero mass"
        )
    return pr11, pr12, pr2, total


def proportional_policy(
    params: DualOutcomeParams | TripleOutcomeParams, gamma: float
) -> RedistributionPolicy:
    """Redistribution policy whose alpha:beta ratio copies case 1.1 : case 1.2.

    The paper's one proportional assumption, for both outcome models: the
    case masses are the round trip's for DualOutcomeParams and the pivot
    cycle's for TripleOutcomeParams. alpha + beta = 1 - gamma, with
    alpha = (1 - gamma) * (p_case11 / (p_case11 + p_case12)) and beta
    likewise. When case 1.2 has zero mass, beta = 0 and alpha = 1 - gamma.
    Rejects gamma outside [0, 1] and inputs where both case masses vanish.
    """
    pr11, pr12, _, total = _proportional_split(params, gamma)
    rest = 1.0 - gamma
    return RedistributionPolicy(rest * (pr11 / total), rest * (pr12 / total), gamma)


def proportional_dual_accuracy(params: DualOutcomeParams, gamma: float) -> float:
    """Dual accuracy under the proportional policy, in one closed form.

        (p12*p21r + lam) * (1 - Gamma)
        ------------------------------------------------
        p12*p21r + lam + delta*((1-p12)*(1-p21r) + lam)

    with Gamma = gamma * p_case2. Algebraically identical to
    ``predict_dual(params, proportional_policy(params, gamma)).p_d12``;
    the test suite asserts the identity to 1e-12.
    """
    pr11, _, pr2, total = _proportional_split(params, gamma)
    return pr11 * (1.0 - gamma * pr2) / total


def dual_improvement(params: DualOutcomeParams, gamma: float) -> float:
    """Predicted accuracy gain of dual training over the plain translator.

    Returns ``proportional_dual_accuracy(params, gamma) - p12``. With
    gamma = 0 and lam = 0 the sign is positive exactly when
    ``p21r > delta / (1 + delta)`` (for p12 strictly inside (0, 1)).
    """
    return proportional_dual_accuracy(params, gamma) - params.p12


def predict_multistep(
    params: TripleOutcomeParams, policy: RedistributionPolicy
) -> TriplePrediction:
    """Closed-form accuracy after multi-step training through one pivot.

    Case masses come from the joint table of the three hop indicators:

        p_case11 = cell(1,1,1) + delta * cell(1,0,0)
        p_case12 = delta * (cell(0,0,0) + cell(0,0,1) + cell(0,1,0))
        q_m12    = p_case11 + alpha' * p_case2

    Cells with exactly one wrong hop cannot close the cycle, so they carry
    no alignment mass. Computing from cells keeps the prediction exact for
    nonzero lam1/lam2 as well.
    """
    pr11, pr12, pr2 = _triple_case_masses(params)
    return TriplePrediction(
        p_case11=pr11,
        p_case12=pr12,
        p_case2=pr2,
        q_m12=pr11 + policy.alpha * pr2,
    )


def m_factor(q23: float, q31: float, delta: float) -> float:
    """Pivot-quality multiplier for the simplified multi-step accuracy.

        M = delta * (1 - q23*q31) / (q23*q31 + delta*(1-q23)*(1-q31))

    M < 1 marks the regime where the pivot cycle beats the plain dual
    round trip. Rejects a value outside [0, 1] and a zero denominator
    (q23*q31 = 0 with delta = 0 or degenerate corners).
    """
    for name, value in (("q23", q23), ("q31", q31), ("delta", delta)):
        PROBABILITY.require(value, name)
    denom = q23 * q31 + delta * (1.0 - q23) * (1.0 - q31)
    if denom <= 0.0:
        raise ValidationError(f"m_factor denominator must be positive, got {denom!r}")
    return delta * (1.0 - q23 * q31) / denom


def simplified_multistep_accuracy(q12: float, m: float, loss: float) -> float:
    """Multi-step accuracy in reduced form: (1 - Gamma') / (1 + M*(1-q12)/q12).

    ``loss`` is Gamma' = gamma' * p_case2, the case-2 mass the policy
    leaves unreconstructed. With Gamma' = 0 and M = 1 this collapses to q12
    (no gain over plain dual training); it is strictly decreasing in M for
    q12 in (0, 1). Rejects q12 outside (0, 1], a negative or non-finite M
    and a loss outside [0, 1].
    """
    POSITIVE.require(q12, "q12")
    PROBABILITY.require(q12, "q12")
    NONNEGATIVE.require(m, "m")
    PROBABILITY.require(loss, "loss")
    return (1.0 - loss) / (1.0 + m * (1.0 - q12) / q12)


def multistep_condition(q23: float, q31: float, delta: float) -> bool:
    """Whether the pivot cycle strictly beats the plain round trip (M < 1).

    Evaluated in cleared-denominator form,
    ``delta*(q23 + q31 - 2*q23*q31) < q23*q31``, which is defined even
    where M itself has a zero denominator. The boundary is excluded: at
    equality (M = 1) the condition is False. Rejects a value outside [0, 1].
    """
    for name, value in (("q23", q23), ("q31", q31), ("delta", delta)):
        PROBABILITY.require(value, name)
    return delta * (q23 + q31 - 2.0 * q23 * q31) < q23 * q31
