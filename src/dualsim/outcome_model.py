"""Joint outcome models for round-trip translation correctness.

A round trip through two translators yields two binary correctness
indicators (first hop, return hop); a three-hop cycle yields three. This
module holds the parametric joint distributions of those indicators, both
as one JointTable type: marginal accuracies plus additive dependence
corrections (``lam`` for a pair, ``lam1``/``lam2`` for a triple), and the
alignment likelihood ``delta``, the chance that a chain with two or more
wrong hops still lands back in the source sentence's meaning cluster.

Conventions:
  - probabilities are float64; equality checks elsewhere use abs tol 1e-12
  - feasibility (every joint cell >= 0) is enforced when a table is built,
    not when a parameter object is constructed, so that infeasible
    parameter combinations can be constructed and then rejected with the
    offending cell named
  - a builder computes its cells straight into a bit-ordered tuple and
    tests them all with one ``min(cells) < 0.0``; only a table that fails
    is scanned again, in the order the builder's docstring lists its cells,
    to name the first negative one
  - parameter objects test each field once with ``_require_real`` or
    ``_require_prob``; a float within range passes on their first line, any
    other value is converted or rejected with the field named
  - all types are immutable and slotted; all functions are pure, except
    the random_* draws, which advance the generator they are given
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParamsError, ValidationError

_SUM_TOL = 1e-12


def _require_real(x: float, name: str) -> float:
    if isinstance(x, float) and math.isfinite(x):
        return float(x)
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValidationError(f"{name} must be a real number, got {x!r}")
    v = float(x)
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {v!r}")
    return v


def _require_prob(x: float, name: str) -> float:
    if isinstance(x, float) and 0.0 <= x <= 1.0:
        return float(x)
    v = _require_real(x, name)
    if v < 0.0 or v > 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {v!r}")
    return v


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class JointTable:
    """Exact joint distribution of the hop-correctness bits of a closed chain.

    A round trip x -> y -> x has two hops and 4 cells; a pivot cycle
    x -> y -> z -> x has three hops and 8 cells. ``cells[i]`` is the
    probability of the outcome whose hop bits, read as a binary number
    with the first hop most significant, equal ``i``. Invariants: cells
    sum to 1 within 1e-12 and the marginals reproduce the generating
    accuracies.
    """

    cells: tuple[float, ...]

    def cell(self, *bits: int) -> float:
        """Pr(hop i correct == bits[i] for every hop); give one bit per hop."""
        index = 0
        for b in bits:
            index = 2 * index + b
        return self.cells[index]


def _checked_table(cells: tuple[float, ...]) -> JointTable:
    """Return bit-ordered ``cells`` as a JointTable, or raise
    InfeasibleParamsError on the first negative cell in the builders'
    documented order: more correct hops first, then the larger index."""
    if min(cells) < 0.0:
        hops = len(cells).bit_length() - 1
        for index in sorted(range(len(cells)), key=lambda i: (-i.bit_count(), -i)):
            if cells[index] < 0.0:
                bits = tuple(index >> (hops - 1 - h) & 1 for h in range(hops))
                raise InfeasibleParamsError(bits, cells[index])
    return JointTable(cells)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def build_dual_joint(params: DualOutcomeParams) -> JointTable:
    """Build the exact 4-cell joint table of a round trip.

    Cells:
        (1,1) = p12*p21r + lam          (1,0) = p12*(1-p21r) - lam
        (0,1) = (1-p12)*p21r - lam      (0,0) = (1-p12)*(1-p21r) + lam

    Raises InfeasibleParamsError naming the first negative cell, in the
    order above, when ``lam`` lies outside the tight feasible range.
    """
    p, q, lam = float(params.p12), float(params.p21r), float(params.lam)
    return _checked_table((
        (1.0 - p) * (1.0 - q) + lam,  # (0,0)
        (1.0 - p) * q - lam,  # (0,1)
        p * (1.0 - q) - lam,  # (1,0)
        p * q + lam,  # (1,1)
    ))


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


def build_triple_joint(params: TripleOutcomeParams) -> JointTable:
    """Build the exact 8-cell joint table of a pivot cycle.

    Closed forms (q1=q12, q2=q23, q3=q31):
        (1,1,1) = q1*q2*q3 + lam2
        (1,1,0) = q1*q2*(1-q3) + lam1 - lam2     (and the two rotations)
        (1,0,0) = q1*(1-q2)*(1-q3) - 2*lam1 + lam2   (and the two rotations)
        (0,0,0) = (1-q1)*(1-q2)*(1-q3) + 3*lam1 - lam2

    This is the unique solution of the seven moment constraints; a
    negative cell raises InfeasibleParamsError naming the first one, in the
    order (1,1,1), (1,1,0), (1,0,1), (0,1,1), (1,0,0), (0,1,0), (0,0,1),
    (0,0,0).
    """
    q1, q2, q3 = float(params.q12), float(params.q23), float(params.q31)
    l1, l2 = float(params.lam1), float(params.lam2)
    r1, r2, r3 = 1.0 - q1, 1.0 - q2, 1.0 - q3
    return _checked_table((
        r1 * r2 * r3 + 3.0 * l1 - l2,  # (0,0,0)
        r1 * r2 * q3 - 2.0 * l1 + l2,  # (0,0,1)
        r1 * q2 * r3 - 2.0 * l1 + l2,  # (0,1,0)
        r1 * q2 * q3 + l1 - l2,  # (0,1,1)
        q1 * r2 * r3 - 2.0 * l1 + l2,  # (1,0,0)
        q1 * r2 * q3 + l1 - l2,  # (1,0,1)
        q1 * q2 * r3 + l1 - l2,  # (1,1,0)
        q1 * q2 * q3 + l2,  # (1,1,1)
    ))


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
