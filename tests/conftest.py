"""Shared helpers for the test suite.

The random parameter draws are the package's own (``dualsim.outcome_model``),
so the tests sample exactly the distributions ``dualsim verify`` does.
"""

from __future__ import annotations

import numpy as np

from dualsim.outcome_model import (  # noqa: F401  (re-exported to the tests)
    random_dual_params,
    random_policy,
    random_triple_params,
)


def perfect_translator(world, i: int, j: int, scale: float = 60.0):
    """Deterministic cluster-correct translator: peak on the cluster head."""
    from dualsim.translator import TabularTranslator

    n, s = world.n_sentences, world.cluster_size
    theta = np.zeros((n, n))
    for x in range(n):
        theta[x, world.cluster_of[x] * s] = scale
    return TabularTranslator(i, j, theta)


def shifted_translator(world, i: int, j: int, scale: float = 60.0):
    """Deterministic translator that always lands one cluster off."""
    from dualsim.translator import TabularTranslator

    n, s, m = world.n_sentences, world.cluster_size, world.n_clusters
    theta = np.zeros((n, n))
    for x in range(n):
        wrong = (world.cluster_of[x] + 1) % m
        theta[x, wrong * s] = scale
    return TabularTranslator(i, j, theta)
