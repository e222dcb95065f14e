"""Joint outcome models for round-trip translation correctness.

A round trip through two translators yields two binary correctness
indicators (first hop, return hop); a three-hop cycle yields three. This
module holds the parametric joint distributions of those indicators:
marginal accuracies plus additive dependence corrections (``lam`` for a
pair, ``lam1``/``lam2`` for a triple), and the alignment likelihood
``delta``, the chance that a chain whose hops all went wrong still lands
back in the source sentence's meaning cluster.

Conventions:
  - probabilities are float64; equality checks elsewhere use abs tol 1e-12
  - feasibility (every joint cell >= 0) is enforced when a table is built,
    not when a parameter object is constructed, so that infeasible
    parameter combinations can be constructed and then rejected with the
    offending cell named
  - all types are immutable; all functions are pure, except the random_*
    draws, which advance the generator they are given
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParamsError, ValidationError

__all__ = [
    "DualOutcomeParams",
    "DualJointTable",
    "RedistributionPolicy",
    "TripleOutcomeParams",
    "TripleJointTable",
    "build_dual_joint",
    "build_triple_joint",
    "lambda_feasible_range",
    "lambda_loose_range",
    "random_dual_params",
    "random_policy",
    "random_triple_params",
]

_SUM_TOL = 1e-12


def _require_real(x: float, name: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValidationError(f"{name} must be a real number, got {x!r}")
    v = float(x)
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {v!r}")
    return v


def _require_prob(x: float, name: str) -> float:
    v = _require_real(x, name)
    if v < 0.0 or v > 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {v!r}")
    return v


@dataclass(frozen=True)
class DualOutcomeParams:
    """Parameters of the two-indicator outcome model.

    p12    marginal accuracy of the forward hop
    p21r   accuracy of the return hop under the forward hop's output
           distribution (the reconstruction-side marginal)
    lam    additive dependence between the two indicators:
           Pr(both correct) = p12 * p21r + lam
    delta  alignment likelihood: conditional probability that a chain with
           both hops wrong still closes into the source cluster
    """

    p12: float
    p21r: float
    lam: float
    delta: float

    def __post_init__(self) -> None:
        _require_prob(self.p12, "p12")
        _require_prob(self.p21r, "p21r")
        _require_real(self.lam, "lam")
        _require_prob(self.delta, "delta")


@dataclass(frozen=True)
class DualJointTable:
    """Exact joint distribution of the pair of correctness indicators.

    Cell ``(a, b)`` is Pr(first hop correct == a, return hop correct == b).
    Invariants: cells sum to 1 within 1e-12 and the marginals reproduce
    the generating ``p12`` / ``p21r`` exactly.
    """

    p11: float
    p10: float
    p01: float
    p00: float

    def cell(self, y12: int, y21: int) -> float:
        return ((self.p00, self.p01), (self.p10, self.p11))[y12][y21]

    @property
    def cells(self) -> dict[tuple[int, int], float]:
        return {(1, 1): self.p11, (1, 0): self.p10, (0, 1): self.p01, (0, 0): self.p00}

    @property
    def marginal_first(self) -> float:
        return self.p11 + self.p10

    @property
    def marginal_second(self) -> float:
        return self.p11 + self.p01


@dataclass(frozen=True)
class RedistributionPolicy:
    """How training reallocates the not-reconstructed probability mass.

    alpha  corrected: first hop becomes correct and the chain reconstructs
    beta   aligned-but-wrong: the chain reconstructs, first hop still wrong
    gamma  still not reconstructed (counted incorrect)

    The three parts partition the redistributed mass: each >= 0 and
    alpha + beta + gamma == 1 within 1e-12.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        a = _require_prob(self.alpha, "alpha")
        b = _require_prob(self.beta, "beta")
        g = _require_prob(self.gamma, "gamma")
        if abs(a + b + g - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"alpha + beta + gamma must be 1 within {_SUM_TOL}, got {a + b + g!r}"
            )


@dataclass(frozen=True)
class TripleOutcomeParams:
    """Parameters of the three-indicator outcome model for a 3-hop cycle.

    q12, q23, q31 are the marginal accuracies of the three hops. ``lam1``
    is the shared pairwise dependence (every pair of indicators is both
    correct with probability q_i * q_j + lam1); ``lam2`` is the triple
    dependence (all three correct with probability q12*q23*q31 + lam2).
    ``delta`` plays the same alignment role as in the dual model.
    """

    q12: float
    q23: float
    q31: float
    lam1: float
    lam2: float
    delta: float

    def __post_init__(self) -> None:
        _require_prob(self.q12, "q12")
        _require_prob(self.q23, "q23")
        _require_prob(self.q31, "q31")
        _require_real(self.lam1, "lam1")
        _require_real(self.lam2, "lam2")
        _require_prob(self.delta, "delta")


@dataclass(frozen=True)
class TripleJointTable:
    """Exact joint distribution over the 2^3 outcomes of a 3-hop cycle.

    ``cells[i]`` is the probability of outcome ``(z12, z23, z31)`` with
    ``i = z12*4 + z23*2 + z31``. The table is the unique solution of the
    seven moment constraints (three marginals, three pairwise top cells,
    one triple top cell) plus normalization.
    """

    cells: tuple[float, float, float, float, float, float, float, float]

    def cell(self, z12: int, z23: int, z31: int) -> float:
        return self.cells[z12 * 4 + z23 * 2 + z31]

    def marginal(self, which: int) -> float:
        """Marginal Pr(indicator ``which`` == 1), 0-indexed along the cycle."""
        shift = (2, 1, 0)[which]
        return sum(p for i, p in enumerate(self.cells) if (i >> shift) & 1)

    def pairwise(self, a: int, b: int) -> float:
        """Pr(indicator a == 1 and indicator b == 1)."""
        sa, sb = (2, 1, 0)[a], (2, 1, 0)[b]
        return sum(p for i, p in enumerate(self.cells) if (i >> sa) & 1 and (i >> sb) & 1)

    @property
    def triple(self) -> float:
        return self.cells[7]


def build_dual_joint(params: DualOutcomeParams) -> DualJointTable:
    """Build the exact 4-cell joint table for a dual outcome model.

    Cells:
        (1,1) = p12*p21r + lam          (1,0) = p12*(1-p21r) - lam
        (0,1) = (1-p12)*p21r - lam      (0,0) = (1-p12)*(1-p21r) + lam

    Raises InfeasibleParamsError naming the first negative cell when
    ``lam`` lies outside the tight feasible range.
    """
    p, q, lam = params.p12, params.p21r, params.lam
    named = {
        (1, 1): p * q + lam,
        (1, 0): p * (1.0 - q) - lam,
        (0, 1): (1.0 - p) * q - lam,
        (0, 0): (1.0 - p) * (1.0 - q) + lam,
    }
    for cell, value in named.items():
        if value < 0.0:
            raise InfeasibleParamsError(cell, value)
    return DualJointTable(
        p11=named[(1, 1)], p10=named[(1, 0)], p01=named[(0, 1)], p00=named[(0, 0)]
    )


def lambda_feasible_range(p12: float, p21r: float) -> tuple[float, float]:
    """Tight feasible range for the pairwise dependence ``lam``.

    Derived from nonnegativity of all four joint cells:
        low  = -min(p12*p21r, (1-p12)*(1-p21r))
        high =  min(p12*(1-p21r), (1-p12)*p21r)

    Every lam in [low, high] yields a valid table; every lam outside is
    rejected by build_dual_joint. The expressions mirror the cell formulas
    exactly so the endpoints are feasible in floating point too.
    """
    p = _require_prob(p12, "p12")
    q = _require_prob(p21r, "p21r")
    low = -min(p * q, (1.0 - p) * (1.0 - q))
    high = min(p * (1.0 - q), (1.0 - p) * q)
    return low, high


def lambda_loose_range(p12: float, p21r: float) -> tuple[float, float]:
    """Weaker dependence range implied by the marginals alone.

    ``(-min(p12*p21r, (1-p12)*(1-p21r)), min(p12, p21r))``: a superset of
    the tight range, kept as a diagnostic: reports whether a given lam
    would also pass this cruder check even when the tight one fails.
    """
    p = _require_prob(p12, "p12")
    q = _require_prob(p21r, "p21r")
    return -min(p * q, (1.0 - p) * (1.0 - q)), min(p, q)


def build_triple_joint(params: TripleOutcomeParams) -> TripleJointTable:
    """Build the exact 8-cell joint table for a triple outcome model.

    Closed forms (q1=q12, q2=q23, q3=q31):
        (1,1,1) = q1*q2*q3 + lam2
        (1,1,0) = q1*q2*(1-q3) + lam1 - lam2     (and the two rotations)
        (1,0,0) = q1*(1-q2)*(1-q3) - 2*lam1 + lam2   (and the two rotations)
        (0,0,0) = (1-q1)*(1-q2)*(1-q3) + 3*lam1 - lam2

    This is the unique solution of the seven moment constraints; any
    negative cell raises InfeasibleParamsError naming it.
    """
    q1, q2, q3 = params.q12, params.q23, params.q31
    l1, l2 = params.lam1, params.lam2
    r1, r2, r3 = 1.0 - q1, 1.0 - q2, 1.0 - q3
    named = {
        (1, 1, 1): q1 * q2 * q3 + l2,
        (1, 1, 0): q1 * q2 * r3 + l1 - l2,
        (1, 0, 1): q1 * r2 * q3 + l1 - l2,
        (0, 1, 1): r1 * q2 * q3 + l1 - l2,
        (1, 0, 0): q1 * r2 * r3 - 2.0 * l1 + l2,
        (0, 1, 0): r1 * q2 * r3 - 2.0 * l1 + l2,
        (0, 0, 1): r1 * r2 * q3 - 2.0 * l1 + l2,
        (0, 0, 0): r1 * r2 * r3 + 3.0 * l1 - l2,
    }
    for cell, value in named.items():
        if value < 0.0:
            raise InfeasibleParamsError(cell, value)
    cells = tuple(
        named[(z12, z23, z31)]
        for z12 in (0, 1)
        for z23 in (0, 1)
        for z31 in (0, 1)
    )
    return TripleJointTable(cells=cells)  # type: ignore[arg-type]


# Random feasible draws for the verify command and the test suite. Feasibility
# is checked by the real table builders, never by a re-derived condition.


def random_dual_params(rng: np.random.Generator) -> DualOutcomeParams:
    p12 = rng.uniform(0.05, 0.95)
    p21r = rng.uniform(0.05, 0.95)
    low, high = lambda_feasible_range(p12, p21r)
    return DualOutcomeParams(p12, p21r, rng.uniform(low, high), rng.uniform(0.0, 1.0))


def random_policy(rng: np.random.Generator) -> RedistributionPolicy:
    a, b, _ = rng.dirichlet([1.0, 1.0, 1.0])
    # close the simplex exactly in floating point
    return RedistributionPolicy(a, b, max(0.0, 1.0 - a - b))


def random_triple_params(
    rng: np.random.Generator, with_dependence: bool = False
) -> TripleOutcomeParams:
    """Rejection-sample triple parameters until build_triple_joint accepts them."""
    while True:
        q = rng.uniform(0.05, 0.95, size=3)
        if with_dependence:
            lam1 = rng.uniform(-0.05, 0.05)
            lam2 = rng.uniform(-0.05, 0.05)
        else:
            lam1 = lam2 = 0.0
        params = TripleOutcomeParams(q[0], q[1], q[2], lam1, lam2, rng.uniform(0.0, 1.0))
        try:
            build_triple_joint(params)
            return params
        except InfeasibleParamsError:
            continue
