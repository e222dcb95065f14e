"""Shared helpers for the test suite.

The random parameter draws are the package's own (``dualsim.outcome_model``),
so the tests sample exactly the distributions ``dualsim verify`` does.

The log-likelihood references ``log_prob``, ``loop_log_prob`` and
``loop_log_prob_bound`` are test oracles that no command needs, so they
live here. ``log_prob`` and ``loop_log_prob_bound`` compute their own
log-softmax, independent of the ``row_probs`` and ``log_prob_grad_row``
they check.
"""

from __future__ import annotations

import numpy as np

from dualsim.errors import ValidationError
from dualsim.outcome_model import (  # noqa: F401  (re-exported to the tests)
    random_dual_params,
    random_policy,
    random_triple_params,
)
from dualsim.translator import TabularTranslator, row_probs


def log_prob(t: TabularTranslator, x: int, y: int) -> float:
    """ln Pr(y | x) under translator ``t``."""
    row = t.theta[x]
    m = row.max()
    return float(row[y] - m - np.log(np.exp(row - m).sum()))


def _check_cycle(
    t1: TabularTranslator, t2: TabularTranslator, t3: TabularTranslator
) -> None:
    if t1.dst_lang != t2.src_lang or t2.dst_lang != t3.src_lang or t3.dst_lang != t1.src_lang:
        raise ValidationError("translators do not form a closed 3-hop cycle")


def loop_log_prob(
    t1: TabularTranslator, t2: TabularTranslator, t3: TabularTranslator, x: int
) -> float:
    """Exact log-probability that the 3-hop cycle maps x back to itself.

    ln sum_{y,z} Pr(y|x; t1) Pr(z|y; t2) Pr(x|z; t3), summed over all
    intermediate sentences (exact on these finite worlds).
    """
    _check_cycle(t1, t2, t3)
    p1 = row_probs(t1.theta[x])
    p2 = row_probs(t2.theta)
    p3_col = row_probs(t3.theta)[:, x]
    return float(np.log(p1 @ p2 @ p3_col))


def loop_log_prob_bound(
    t1: TabularTranslator, t2: TabularTranslator, t3: TabularTranslator, x: int
) -> float:
    """Lower bound on loop_log_prob: expected last-hop log-likelihood.

    sum_{y,z} Pr(y|x; t1) Pr(z|y; t2) ln Pr(x|z; t3). Concavity of ln
    makes this a true lower bound; its sampled gradient with respect to
    the last hop is exactly the reconstruction update the trainers apply.
    """
    _check_cycle(t1, t2, t3)
    p1 = row_probs(t1.theta[x])
    p2 = row_probs(t2.theta)
    th3 = t3.theta
    z = th3 - th3.max(axis=1, keepdims=True)
    log_p3 = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(p1 @ p2 @ log_p3[:, x])


def perfect_translator(world, i: int, j: int, scale: float = 60.0):
    """Deterministic cluster-correct translator: peak on the cluster head."""
    n, s = world.n_sentences, world.cluster_size
    theta = np.zeros((n, n))
    for x in range(n):
        theta[x, world.cluster_of[x] * s] = scale
    return TabularTranslator(i, j, theta)


def shifted_translator(world, i: int, j: int, scale: float = 60.0):
    """Deterministic translator that always lands one cluster off."""
    n, s, m = world.n_sentences, world.cluster_size, world.n_clusters
    theta = np.zeros((n, n))
    for x in range(n):
        wrong = (world.cluster_of[x] + 1) % m
        theta[x, wrong * s] = scale
    return TabularTranslator(i, j, theta)
