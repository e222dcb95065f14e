"""Ground-truth verification of the closed-form predictions.

Two independent computation paths over the same generative event tree:

  - exact enumeration: walk every cell of the joint table (the builders'
    tuple, indexed by hop bits), apply the cell's reconstruction
    probability, split the unreconstructed mass by the redistribution
    policy, and sum exact probability mass;
  - seeded Monte Carlo: draw the same tree per-sample with a counter-based
    generator, so results are bit-identical for a given (spec, n, seed)
    regardless of how samples are chunked or parallelized. Samples are
    drawn one chunk of ``_CHUNK`` at a time, one uniform stream after
    another, and the hash runs in place, so the working set is one chunk's
    few arrays: a 0.53 MiB tracemalloc peak per call whatever n is.

Neither path calls anything in :mod:`dualsim.theory`; matching those
formulas to 1e-12 is the package's core acceptance property.

One reconstruction rule covers the round trip (2 hops) and the pivot
cycle (3 hops), by the number of wrong hops in a joint-table cell:
  none          -> 1      (the chain closes)
  exactly one   -> 0      (a single wrong hop before or after correct hops
                           lands in a definitely-wrong cluster)
  two or more   -> delta  (the chain closes by accidental alignment)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import INTEGER, SEED, Rule, ValidationError, check_fields
from .outcome_model import (
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
    build_dual_joint,
    build_triple_joint,
)


@dataclass(frozen=True, slots=True)
class GenerativeSpec:
    """A complete generative model: outcome params plus redistribution policy."""

    params: DualOutcomeParams | TripleOutcomeParams = field(metadata={"rule": Rule(
        lambda v: isinstance(v, (DualOutcomeParams, TripleOutcomeParams)),
        "a DualOutcomeParams or a TripleOutcomeParams")})
    policy: RedistributionPolicy = field(metadata={"rule": Rule(
        lambda v: isinstance(v, RedistributionPolicy), "a RedistributionPolicy")})

    __post_init__ = check_fields

    @property
    def kind(self) -> str:
        return "dual" if isinstance(self.params, DualOutcomeParams) else "triple"


SPEC = Rule(lambda v: isinstance(v, GenerativeSpec), "a GenerativeSpec")


@dataclass(frozen=True, slots=True)
class OutcomeCounts:
    """Per-outcome tallies from a Monte Carlo run.

    ``case2_*`` splits the redistributed mass: corrected (counted correct),
    aligned (reconstructed but wrong), unreconstructed (wrong).
    """

    case11: int
    case12: int
    case2_corrected: int
    case2_aligned: int
    case2_unreconstructed: int

    @property
    def n_case2(self) -> int:
        return self.case2_corrected + self.case2_aligned + self.case2_unreconstructed


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Accuracy plus case masses from one oracle evaluation.

    ``stderr`` and ``n_samples`` are 0 for exact enumeration. Monte Carlo
    results additionally carry the integer outcome tallies.
    """

    accuracy: float
    case_masses: tuple[float, float, float]
    stderr: float = 0.0
    n_samples: int = 0
    counts: OutcomeCounts | None = None


# (cell index, wrong hops, first-hop bit) per joint cell, by table size.
# Cells come all-correct first, that is by falling index: (1,1), (1,0),
# (0,1), (0,0) for a round trip and (1,1,1), (1,1,0), ..., (0,0,0) for a
# pivot cycle. The enumeration's sums and the Monte Carlo cell draw depend
# on this order.
_EVENTS = {
    1 << hops: tuple(
        (i, hops - i.bit_count(), i >> (hops - 1)) for i in reversed(range(1 << hops))
    )
    for hops in (2, 3)
}


def _event_table(spec: GenerativeSpec) -> list[tuple[float, float, int]]:
    """(mass, reconstruction probability, first-hop bit) per joint cell, in
    ``_EVENTS`` order."""
    cells = (build_dual_joint if spec.kind == "dual" else build_triple_joint)(spec.params)
    d = float(spec.params.delta)
    recon = (1.0, 0.0, d, d)  # by wrong hops
    return [(cells[i], recon[wrong], hop1) for i, wrong, hop1 in _EVENTS[len(cells)]]


def _walk(spec: GenerativeSpec) -> OracleResult:
    """Exact event-tree summation shared by both enumerators.

    For each joint cell: reconstructed mass goes to case 1.1 (correct) if
    the first hop was correct, else to case 1.2 (incorrect but kept);
    unreconstructed mass is case 2, of which the policy's alpha share
    becomes correct and the rest stays incorrect.
    """
    alpha = float(spec.policy.alpha)
    acc = 0.0
    case11 = case12 = case2 = 0.0
    for mass, r, hop1 in _event_table(spec):
        reconstructed = mass * r
        unreconstructed = mass * (1.0 - r)
        if hop1:
            case11 += reconstructed
        else:
            case12 += reconstructed
        case2 += unreconstructed
        acc += reconstructed * hop1 + unreconstructed * alpha
    return OracleResult(accuracy=acc, case_masses=(case11, case12, case2))


def enumerate_dual(spec: GenerativeSpec) -> OracleResult:
    """Exact event-tree summation of the dual accuracy over the four cells."""
    SPEC.require(spec, "spec")
    if spec.kind != "dual":
        raise ValidationError("enumerate_dual requires a dual GenerativeSpec")
    return _walk(spec)


def enumerate_triple(spec: GenerativeSpec) -> OracleResult:
    """Exact event-tree summation of the multi-step accuracy.

    Same walk as enumerate_dual over the eight cells of the 3-hop cycle,
    with the reconstruction rule documented at module level.
    """
    SPEC.require(spec, "spec")
    if spec.kind != "triple":
        raise ValidationError("enumerate_triple requires a triple GenerativeSpec")
    return _walk(spec)


# Counter-mix generator: sample i's randomness comes only from (seed, i),
# so chunking and worker count cannot change the stream.
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Map (seed, counter) pairs to f64 uniforms in [0, 1), vectorized.

    Implements the splitmix64 output function on state seed + (c+1)*golden;
    statistically solid for simulation purposes and trivially parallel.
    The hash runs in place on one uint64 copy of ``counters`` (which are
    left as they were) plus one scratch array.
    """
    z = counters.astype(np.uint64)
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z += np.uint64(1)
        z *= _GOLD
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= mix
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    del t
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


# Samples per Monte Carlo chunk. A chunk's uint64, float64 and bool
# arrays peak at 0.53 MiB at 2^14 (tracemalloc), so they fit in L2.
# In a sweep of 2^13..2^17 on the simulate benchmark (2-vCPU Xeon, 2 MB
# L2) 2^14 was fastest; below it the per-chunk Python overhead costs.
_CHUNK = 1 << 14
# sample i hashes counters 3i, 3i + 1 and 3i + 2, which must not wrap a uint64
_MAX_SAMPLES = int(np.iinfo(np.uint64).max) // 3


def monte_carlo(spec: GenerativeSpec, n: int, seed: int) -> OracleResult:
    """Seeded i.i.d. sampling of the event tree; stochastic twin of the enumerators.

    Each sample consumes three uniforms (cell, reconstruction flag,
    redistribution outcome) derived from its own index, and results are
    reduced with integer counts, so identical (spec, n, seed) inputs
    yield bit-identical output under any chunking. Samples are drawn one
    chunk of ``_CHUNK`` at a time and one stream at a time, each reduced
    and freed before the next is drawn, so the working set is a few arrays
    of one chunk whatever n is.
    """
    SPEC.require(spec, "spec")
    if not (INTEGER.ok(n) and 1 <= n <= _MAX_SAMPLES):
        raise ValidationError(f"n must be an integer in [1, {_MAX_SAMPLES}], got {n!r}")
    SEED.require(seed, "seed")
    masses, recon, first_hop = (np.array(col) for col in zip(*_event_table(spec)))
    cum = np.cumsum(masses)
    hop1_of = first_hop == 1
    alpha, beta = spec.policy.alpha, spec.policy.beta

    n11 = n12 = n2a = n2b = 0
    for start in range(0, n, _CHUNK):
        # sample i draws its cell, reconstruction and redistribution uniforms
        # at counters 3i, 3i + 1 and 3i + 2: one buffer, bumped in place
        ctr = np.arange(start, min(start + _CHUNK, n), dtype=np.uint64)
        ctr *= np.uint64(3)
        which = np.searchsorted(cum, counter_uniforms(seed, ctr), side="right")
        np.minimum(which, len(cum) - 1, out=which)
        hop1, r = hop1_of[which], recon[which]
        del which

        ctr += np.uint64(1)
        reconstructed = counter_uniforms(seed, ctr) < r
        del r
        n_rec = int(np.count_nonzero(reconstructed))
        hop1 &= reconstructed
        n_rec11 = int(np.count_nonzero(hop1))
        n11 += n_rec11
        n12 += n_rec - n_rec11

        ctr += np.uint64(1)
        u = counter_uniforms(seed, ctr)
        u[reconstructed] = np.inf  # only unreconstructed mass is redistributed
        # alpha + beta >= alpha, so the aligned samples are the difference
        n_corrected = int(np.count_nonzero(u < alpha))
        n2a += n_corrected
        n2b += int(np.count_nonzero(u < alpha + beta)) - n_corrected
        del u  # before the next chunk draws its streams

    # the five outcomes are disjoint and cover every sample, and a sample is
    # correct exactly when it is case 1.1 or case 2 corrected
    p_hat = (n11 + n2a) / n
    counts = OutcomeCounts(n11, n12, n2a, n2b, n - n11 - n12 - n2a - n2b)
    return OracleResult(
        accuracy=p_hat,
        case_masses=(n11 / n, n12 / n, counts.n_case2 / n),
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / n),
        n_samples=n,
        counts=counts,
    )


@dataclass(frozen=True, slots=True)
class ErrataRecord:
    """One formula comparison: shortcut value vs moment-consistent value."""

    name: str
    shortcut: float
    consistent: float

    @property
    def abs_diff(self) -> float:
        return abs(self.shortcut - self.consistent)


def errata_report(params: TripleOutcomeParams) -> list[ErrataRecord]:
    """Compare shortcut triple-cycle formulas against the consistent cells.

    The shortcut forms drop or factor some dependence cross-terms (they
    are exact at lam1 = lam2 = 0):

        cell(1,0,0):  q12*(1-q23)*(1-q31) + lam2           (drops -2*lam1)
        case 1.1:     the cell(1,1,1)/cell(1,0,0) sum built on that cell
        case 1.2:     delta*(1-q12)*(1-q23*q31 - lam1 + lam2)

    The consistent side comes from build_triple_joint and the enumeration
    case masses, so any nonzero difference pins the shortcut as the
    inconsistent variant.
    """
    q1, q2, q3 = params.q12, params.q23, params.q31
    l1, l2, d = params.lam1, params.lam2, params.delta
    cells = build_triple_joint(params)
    neutral = GenerativeSpec(params, RedistributionPolicy(1.0, 0.0, 0.0))
    case11, case12, _ = enumerate_triple(neutral).case_masses

    shortcut_100 = q1 * (1.0 - q2) * (1.0 - q3) + l2
    return [
        ErrataRecord("cell(1,0,0)", shortcut_100, cells[0b100]),
        ErrataRecord("case11", cells[0b111] + d * shortcut_100, case11),
        ErrataRecord("case12", d * (1.0 - q1) * (1.0 - q2 * q3 - l1 + l2), case12),
    ]


def errata_to_text(records: list[ErrataRecord]) -> str:
    """One line per formula: name, shortcut value, consistent value, |difference|."""
    lines = ["formula shortcut consistent abs_diff"]
    for r in records:
        lines.append(f"{r.name} {r.shortcut!r} {r.consistent!r} {r.abs_diff!r}")
    return "\n".join(lines) + "\n"
