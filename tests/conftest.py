"""Shared helpers for the test suite.

The random parameter draws are the package's own (``dualsim.outcome_model``),
so the tests sample exactly the distributions ``dualsim verify`` does.

The log-likelihood references ``log_prob``, ``loop_log_prob`` and
``loop_log_prob_bound`` are test oracles that no command needs, so they
live here. ``log_prob`` and ``loop_log_prob_bound`` compute their own
log-softmax, independent of the ``row_probs`` and ``log_prob_grad_row``
they check.

``named_dual_cells``, ``named_triple_cells`` (checked by ``checked_cells``)
and ``expr_counter_uniforms`` are the plain forms of the joint-table
builders and the counter hash: one named cell at a time, one numpy
expression at a time. The package's allocation-light kernels must match
them bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from dualsim.errors import InfeasibleParamsError, ValidationError
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


def checked_cells(named: dict[tuple[int, ...], float]) -> tuple[float, ...]:
    """Raise InfeasibleParamsError on the first negative cell in ``named``'s
    order; otherwise return the cells in bit order (first hop most significant)."""
    for cell, value in named.items():
        if value < 0.0:
            raise InfeasibleParamsError(cell, value)
    hops = len(next(iter(named)))
    return tuple(named[bits] for bits in itertools.product((0, 1), repeat=hops))


def named_dual_cells(params) -> dict[tuple[int, ...], float]:
    """Reference round-trip cells by hop bits, in the documented order."""
    p, q, lam = params.p12, params.p21r, params.lam
    return {
        (1, 1): p * q + lam,
        (1, 0): p * (1.0 - q) - lam,
        (0, 1): (1.0 - p) * q - lam,
        (0, 0): (1.0 - p) * (1.0 - q) + lam,
    }


def named_triple_cells(params) -> dict[tuple[int, ...], float]:
    """Reference pivot-cycle cells by hop bits, in the documented order."""
    q1, q2, q3 = params.q12, params.q23, params.q31
    l1, l2 = params.lam1, params.lam2
    r1, r2, r3 = 1.0 - q1, 1.0 - q2, 1.0 - q3
    return {
        (1, 1, 1): q1 * q2 * q3 + l2,
        (1, 1, 0): q1 * q2 * r3 + l1 - l2,
        (1, 0, 1): q1 * r2 * q3 + l1 - l2,
        (0, 1, 1): r1 * q2 * q3 + l1 - l2,
        (1, 0, 0): q1 * r2 * r3 - 2.0 * l1 + l2,
        (0, 1, 0): r1 * q2 * r3 - 2.0 * l1 + l2,
        (0, 0, 1): r1 * r2 * q3 - 2.0 * l1 + l2,
        (0, 0, 0): r1 * r2 * r3 + 3.0 * l1 - l2,
    }


def expr_counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Reference splitmix64 counter hash, one temporary per expression."""
    gold = np.uint64(0x9E3779B97F4A7C15)
    c = counters.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (c + np.uint64(1)) * gold
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
