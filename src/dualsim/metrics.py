"""Exact accuracy quantities and empirical redistribution estimators.

Correctness is exact cluster membership: a translation of x is correct
when it lands in x's cluster, whatever the two languages. Because
translators are tabular and worlds are finite, every accuracy here is an
exact sum over the world: no sampling, no decoding heuristics beyond the
documented greedy tie-break (argmax, lowest id wins).

The estimator report quantifies what dual training did to the mass that
the baseline chain failed to reconstruct; all chains are decoded greedily.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .oracle import OutcomeCounts
from .synth_lang import World
from .translator import TabularTranslator, row_probs, shifted_exp

__all__ = [
    "AccuracyReport",
    "EstimatorReport",
    "accuracy",
    "reconstruction_accuracy",
    "estimators",
    "estimators_from_counts",
]

# rows of a score matrix that ``accuracy`` exponentiates at once: 64 rows of
# a 600-sentence world are 300 KB, where the whole matrix would be 2.9 MB
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class AccuracyReport:
    """Exact accuracies of one translator.

    p_hat       greedy accuracy: mu-mass of sources whose argmax
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
    contiguous row of n cells. The row max is read from the argmax cell,
    which holds that very value.
    """
    _check_defined_on(t, world)
    clusters = world.cluster_of
    mu = world.mu[t.src_lang]
    n, s = world.n_sentences, world.cluster_size
    greedy = np.empty(n, dtype=np.intp)
    on_cluster = np.empty(n)
    for lo in range(0, n, _BLOCK_ROWS):
        block = t.theta[lo : lo + _BLOCK_ROWS]
        b = len(block)
        here = slice(lo, lo + b)
        rows, home = np.arange(b), clusters[here]
        greedy[here] = np.argmax(block, axis=1)  # first maximum, as greedy_all
        e, total = shifted_exp(block, block[rows, greedy[here]][:, None])
        cells = e.reshape(b, -1, s)  # a (row, cluster, offset) view of e
        kept = cells[rows, home] / total
        e.fill(0.0)
        cells[rows, home] = kept
        on_cluster[here] = e.sum(axis=1)

    p_hat = float(mu @ (clusters[greedy] == clusters))
    p_expected = float(mu @ on_cluster)
    # an all-correct translator on a skewed world can sum one ulp above 1
    return AccuracyReport(p_hat=min(p_hat, 1.0), p_expected=min(p_expected, 1.0))


def reconstruction_accuracy(t_fwd: TabularTranslator, t_bwd: TabularTranslator, world: World) -> float:
    """Exact return-hop accuracy under the forward translator's output distribution.

    Pushes mu through the forward rows, then scores the backward
    translator greedily at every intermediate sentence:
    ``sum_x mu(x) sum_y Pr(y|x; fwd) * [greedy_bwd(y) lands in y's cluster]``.
    """
    _check_defined_on(t_fwd, world)
    _check_defined_on(t_bwd, world)
    if t_fwd.dst_lang != t_bwd.src_lang or t_fwd.src_lang != t_bwd.dst_lang:
        raise ValidationError(
            f"translators do not compose: {t_fwd.src_lang}->{t_fwd.dst_lang} "
            f"then {t_bwd.src_lang}->{t_bwd.dst_lang}"
        )
    clusters = world.cluster_of
    bwd_ok = (clusters[t_bwd.greedy_all()] == clusters).astype(float)
    pushforward = world.mu[t_fwd.src_lang] @ row_probs(t_fwd.theta)
    # capped like accuracy: an all-correct pair can sum one ulp above 1
    return min(float(pushforward @ bwd_ok), 1.0)


def _chain(world: World, pair: tuple[TabularTranslator, TabularTranslator]):
    """Greedy round trip of every source sentence: returns (hop1 correct,
    reconstructed) boolean arrays."""
    fwd, bwd = pair
    clusters = world.cluster_of
    ys = fwd.greedy_all()
    hop1 = clusters[ys] == clusters
    recon = clusters[bwd.greedy_all()[ys]] == clusters
    return hop1, recon


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

    Over every sentence of the pair's source language, partition the set
    the vanilla chain fails to reconstruct by what the dual chain does
    with it (corrected / aligned-but-wrong / still unreconstructed);
    estimate the kept-reconstruction rate eta over the complementary set.
    Undefined ratios (empty denominators) are reported as None, never as
    zero.
    """
    for t in (*vanilla, *dual):
        _check_defined_on(t, world)

    _, v_recon = _chain(world, vanilla)
    d_hop1, d_recon = _chain(world, dual)

    fail = ~v_recon
    return _report(
        {
            "n_vanilla_fail": int(fail.sum()),
            "n_vanilla_recon": int(v_recon.sum()),
            "n_corrected": int((fail & d_hop1 & d_recon).sum()),
            "n_aligned": int((fail & ~d_hop1 & d_recon).sum()),
            "n_unreconstructed": int((fail & ~d_recon).sum()),
            "n_kept": int((v_recon & d_recon).sum()),
            "n_dual_recon": int(d_recon.sum()),
        }
    )


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
