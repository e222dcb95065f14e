"""Exact accuracy quantities, the round-trip census and redistribution estimators.

Correctness is exact cluster membership: a translation of x is correct
when it lands in x's cluster, whatever the two languages. Because
translators are tabular and worlds are finite, every accuracy here is an
exact sum over the world: no sampling, no decoding heuristics beyond the
greedy tie-break of ``TabularTranslator.greedy_all`` (lowest id wins).

The estimator report counts, from two greedy round-trip censuses, what dual
training did to the sentences the baseline chain failed to reconstruct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Rule, ValidationError
from .oracle import OutcomeCounts
from .synth_lang import WORLD, World
from .translator import TRANSLATOR, TabularTranslator, shifted_exp

# rows of a score matrix that ``accuracy`` exponentiates at once: 64 rows of
# a 600-sentence world are 300 KB, where the whole matrix would be 2.9 MB
_BLOCK_ROWS = 64
# each of the two systems that ``estimators`` compares
_PAIR = Rule(lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(TRANSLATOR.ok, v)),
             "a (forward, backward) pair of TabularTranslators")


@dataclass(frozen=True)
class AccuracyReport:
    """Exact accuracies of one translator.

    p_hat       greedy accuracy: mu-mass of sources whose greedy
                translation lands in the correct cluster
    p_expected  stochastic-decoding accuracy: mu-weighted probability
                mass the rows place on the correct cluster
    """

    p_hat: float
    p_expected: float


@dataclass(frozen=True)
class EstimatorReport:
    """Empirical redistribution estimates over a set of source sentences.

    alpha_hat / beta_hat / gamma_hat partition the baseline-failure set
    (None when that set is empty). eta_hat is the fraction of
    baseline-reconstructed items still reconstructed by the second system
    (None when nothing reconstructs); eta_raw is the unconditioned count
    ratio (second-system reconstructions over baseline reconstructions),
    which can exceed 1.
    """

    alpha_hat: float | None
    beta_hat: float | None
    gamma_hat: float | None
    eta_hat: float | None
    eta_raw: float | None
    counts: dict[str, int] = field(default_factory=dict)


def _check_defined_on(t: TabularTranslator, world: World) -> None:
    TRANSLATOR.require(t, "t")
    WORLD.require(world, "world")
    n = world.n_sentences
    if t.theta.shape != (n, n):
        raise ValidationError(
            f"translator theta shape {t.theta.shape} does not match world ({n}, {n})"
        )
    world.check_language(t.src_lang)
    world.check_language(t.dst_lang)


def accuracy(t: TabularTranslator, world: World) -> AccuracyReport:
    """Exact greedy and expected accuracy of a translator on a world.

    Rows are scored ``_BLOCK_ROWS`` at a time, so no temporary the size
    of ``theta`` exists. The bits are those of the whole-matrix masked
    softmax ``mu @ (row_probs(theta) * mask).sum(axis=1)``: each kept
    cell gets the same exp, row total and division, every other cell is
    +0.0 as the mask makes it, and each row is summed over the same
    contiguous row of n cells.
    """
    _check_defined_on(t, world)
    clusters = world.cluster_of
    mu = world.mu[t.src_lang]
    n, s = world.n_sentences, world.cluster_size
    on_cluster = np.empty(n)
    for lo in range(0, n, _BLOCK_ROWS):
        block = t.theta[lo : lo + _BLOCK_ROWS]
        b = len(block)
        rows, home = np.arange(b), clusters[lo : lo + b]
        e, total = shifted_exp(block)
        cells = e.reshape(b, -1, s)  # a (row, cluster, offset) view of e
        kept = cells[rows, home] / total
        e.fill(0.0)
        cells[rows, home] = kept
        on_cluster[lo : lo + b] = e.sum(axis=1)

    p_hat = float(mu @ (clusters[t.greedy_all()] == clusters))
    p_expected = float(mu @ on_cluster)
    # an all-correct translator on a skewed world can sum one ulp above 1
    return AccuracyReport(p_hat=min(p_hat, 1.0), p_expected=min(p_expected, 1.0))


def round_trip_cells(fwd: np.ndarray, bwd: np.ndarray, world: World) -> np.ndarray:
    """The one round-trip measurement: for each source sentence x, the
    probability of each cell of x -> y -> z, as the rows 11, 10, 01, 00r, 00n
    of a (5, n) array. Bit 1 is y in x's cluster, bit 2 z in y's cluster; 00r
    is a 00 chain back in x's cluster. A law is the greedy target id of each
    source (``greedy_all()``: cells exactly 0 or 1, from n-vectors only) or
    the (n, n) matrix of row distributions. p21r is ``mu @ (cells[0] + cells[2])``."""
    clusters = world.cluster_of

    def home(law, weight, ends=clusters):
        """sum_y law(x, y) weight[y] over the y with ends[y] in x's cluster."""
        if law.ndim == 1:
            return weight[law] * (ends[law] == clusters)
        return (law * (ends == clusters[:, None])) @ weight

    ones = np.ones(world.n_sentences)
    hop1 = home(fwd, ones)
    ok2 = home(bwd, ones)  # per intermediate y: hop 2 lands in y's cluster
    c11 = home(fwd, ok2)
    hop2 = ok2[fwd] if fwd.ndim == 1 else fwd @ ok2
    if bwd.ndim == 1:  # greedy return: y counts when bwd[y] lands in x's cluster
        back = home(fwd, ones, clusters[bwd])
    else:
        back = home(bwd[fwd] if fwd.ndim == 1 else fwd @ bwd, ones)
    return np.array([c11, hop1 - c11, hop2 - c11, back - c11, 1.0 - hop1 - hop2 - back + 2.0 * c11])


def _report(counts: dict[str, int]) -> EstimatorReport:
    """Estimator ratios from a tally dict; None where a denominator is empty."""
    n_fail, n_ok = counts["n_vanilla_fail"], counts["n_vanilla_recon"]
    return EstimatorReport(
        alpha_hat=counts["n_corrected"] / n_fail if n_fail else None,
        beta_hat=counts["n_aligned"] / n_fail if n_fail else None,
        gamma_hat=counts["n_unreconstructed"] / n_fail if n_fail else None,
        eta_hat=counts["n_kept"] / n_ok if n_ok else None,
        eta_raw=counts["n_dual_recon"] / n_ok if n_ok else None,
        counts=counts,
    )


def estimators(
    vanilla: tuple[TabularTranslator, TabularTranslator],
    dual: tuple[TabularTranslator, TabularTranslator],
    world: World,
) -> EstimatorReport:
    """Empirical redistribution estimates comparing two translator pairs.

    Each pair is (forward, backward) and must compose into a round trip.
    Over every sentence of the pair's source language, decoded greedily,
    partition the set the vanilla chain fails to reconstruct by what the
    dual chain does with it (corrected / aligned-but-wrong / still
    unreconstructed); estimate the kept-reconstruction rate eta over the
    complementary set. Undefined ratios (empty denominators) are None.
    """
    _PAIR.require(vanilla, "vanilla")
    _PAIR.require(dual, "dual")
    for fwd, bwd in (vanilla, dual):
        _check_defined_on(fwd, world)
        _check_defined_on(bwd, world)
        if (bwd.src_lang, bwd.dst_lang) != (fwd.dst_lang, fwd.src_lang):
            raise ValidationError(
                f"translators do not compose: {fwd.src_lang}->{fwd.dst_lang} "
                f"then {bwd.src_lang}->{bwd.dst_lang}"
            )
    # greedy cells are 0 or 1, so every sum and product below is an exact count
    v, d = (round_trip_cells(f.greedy_all(), b.greedy_all(), world) for f, b in (vanilla, dual))
    v_recon, d_recon = v[0] + v[3], d[0] + d[3]
    fail = 1.0 - v_recon
    return _report({
        "n_vanilla_fail": int(fail.sum()),
        "n_vanilla_recon": int(v_recon.sum()),
        "n_corrected": int(fail @ d[0]),
        "n_aligned": int(fail @ d[3]),
        "n_unreconstructed": int(fail @ (1.0 - d_recon)),
        "n_kept": int(v_recon @ d_recon),
        "n_dual_recon": int(d_recon.sum()),
    })


def estimators_from_counts(counts: OutcomeCounts) -> EstimatorReport:
    """Estimator report from simulated outcome tallies.

    The tallies come from the generative outcome simulator, where the
    baseline-failure set is exactly the redistributed mass and every
    baseline reconstruction is kept, so eta_hat is 1 whenever defined.
    """
    n_fail = counts.n_case2
    n_ok = counts.case11 + counts.case12
    return _report(
        {
            "n_vanilla_fail": n_fail,
            "n_vanilla_recon": n_ok,
            "n_corrected": counts.case2_corrected,
            "n_aligned": counts.case2_aligned,
            "n_unreconstructed": counts.case2_unreconstructed,
            "n_kept": n_ok,
            "n_dual_recon": n_ok + counts.case2_corrected + counts.case2_aligned,
        }
    )
