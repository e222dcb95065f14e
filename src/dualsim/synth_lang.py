"""Synthetic clustered language worlds and corpus sampling.

A world is ``k`` finite languages, each holding ``m * s`` sentences split
into ``m`` semantic clusters of ``s`` sentences: ids [c*s, (c+1)*s) form
cluster c in every language. Every ground-truth translator is the
identity on cluster ids, which makes all compositions trivially
consistent (the forward map of a backward map is the identity, and any
pivot triangle closes). Sentences are opaque integer ids; there is no
text anywhere.

Per-language sentence distributions are controlled by ``skew``: 0 gives
an exactly uniform distribution, larger values an increasingly lopsided
one (log-normal weights, normalized). ``build_corpus`` is the one
sampler of training data: cluster-correct parallel pairs for every
ordered language pair and monolingual ids for every language.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class World:
    """Immutable synthetic multi-language world.

    mu          (k, m*s) rows: per-language sentence distributions
    cluster_of  read-only (m*s,) sentence id -> cluster id, x // s in every language
    """

    n_langs: int
    n_clusters: int
    cluster_size: int
    mu: np.ndarray

    def __post_init__(self) -> None:
        if self.mu.shape != (self.n_langs, self.n_sentences):
            raise ValidationError("mu shape does not match world dimensions")
        if not np.all(np.abs(self.mu.sum(axis=1) - 1.0) <= 1e-12):
            raise ValidationError("every per-language distribution must sum to 1 within 1e-12")
        if np.any(self.mu < 0.0):
            raise ValidationError("sentence probabilities must be nonnegative")
        _frozen(self.mu)

    @property
    def n_sentences(self) -> int:
        return self.n_clusters * self.cluster_size

    @property
    def cluster_of(self) -> np.ndarray:
        return _frozen(np.arange(self.n_sentences) // self.cluster_size)

    def check_language(self, lang: int) -> int:
        if not 0 <= lang < self.n_langs:
            raise ValidationError(f"language id {lang} out of range [0, {self.n_langs})")
        return lang


@dataclass(frozen=True)
class Corpus:
    """Sampled training data: parallel pairs per ordered language pair,
    monolingual sentence ids per language.

    ``parallel[(i, j)]`` is an (n, 2) int array of (source id, target id);
    by construction every pair is cluster-correct. Each ordered direction
    carries its own independent draws, so the two translators of a pair
    start from genuinely different supervised knowledge, the asymmetry
    that reconstruction training then transfers across.
    """

    parallel: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    monolingual: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for arr in self.parallel.values():
            _frozen(arr)
        for arr in self.monolingual.values():
            _frozen(arr)


def generate_world(k: int, m: int, s: int, skew: float, seed: int) -> World:
    """Build a k-language world with m clusters of s sentences each.

    skew = 0 gives exactly uniform mu; skew > 0 draws weights
    exp(skew * N(0,1)) per sentence and normalizes. Deterministic in
    (arguments, seed).
    """
    if k < 2:
        raise ValidationError(f"need at least 2 languages, got {k}")
    if m < 1 or s < 1:
        raise ValidationError(f"cluster counts must be positive, got m={m}, s={s}")
    if skew < 0.0:
        raise ValidationError(f"skew must be nonnegative, got {skew!r}")
    rng = np.random.default_rng(seed)
    n = m * s
    if skew == 0.0:
        mu = np.full((k, n), 1.0 / n)
    else:
        with np.errstate(over="ignore"):
            weights = np.exp(skew * rng.standard_normal((k, n)))
            totals = weights.sum(axis=1, keepdims=True)
        if not np.all((totals > 0.0) & (totals < np.inf)):
            raise ValidationError(f"skew {skew!r} is too large: the sentence weights overflow")
        mu = weights / totals
    return World(n_langs=k, n_clusters=m, cluster_size=s, mu=mu)


def build_corpus(
    world: World,
    parallel_per_pair: int,
    monolingual_per_language: int,
    seed: int,
    within_cluster: str = "mu",
) -> Corpus:
    """Sample an independent parallel dataset per ordered language pair
    plus monolingual data per language.

    Parallel sources from language i follow mu_i; each target is drawn
    inside the source's cluster, either from mu_j restricted and
    renormalized to that cluster (``within_cluster="mu"``, the default)
    or uniformly over the cluster (``within_cluster="uniform"``), so every
    pair is cluster-correct. Monolingual ids from language i are i.i.d.
    draws from mu_i.

    Each ordered pair, then each language, draws from its own generator,
    spawned from ``seed`` in that order, so the whole corpus is
    reproducible from (world, arguments, seed).
    """
    if parallel_per_pair < 0 or monolingual_per_language < 0:
        raise ValidationError(
            "corpus sizes must be nonnegative, got "
            f"{parallel_per_pair} parallel and {monolingual_per_language} monolingual"
        )
    if within_cluster not in ("mu", "uniform"):
        raise ValidationError(f"unknown within_cluster mode {within_cluster!r}")
    k, s = world.n_langs, world.cluster_size
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    children = np.random.SeedSequence(seed).spawn(len(pairs) + k)
    parallel: dict[tuple[int, int], np.ndarray] = {}
    for child, (i, j) in zip(children[: len(pairs)], pairs):
        rng = np.random.default_rng(child)
        xs = rng.choice(world.n_sentences, size=parallel_per_pair, p=world.mu[i])
        clusters = world.cluster_of[xs]
        if within_cluster == "mu":
            block = world.mu[j].reshape(world.n_clusters, s)
        else:
            block = np.ones((world.n_clusters, s))
        block = block / block.sum(axis=1, keepdims=True)
        cum = np.cumsum(block, axis=1)
        u = rng.random(parallel_per_pair)
        offsets = (u[:, None] > cum[clusters]).sum(axis=1)
        np.clip(offsets, 0, s - 1, out=offsets)
        ys = clusters * s + offsets
        parallel[(i, j)] = np.column_stack([xs, ys]).astype(np.int64)
    monolingual: dict[int, np.ndarray] = {}
    for child, lang in zip(children[len(pairs) :], range(k)):
        rng = np.random.default_rng(child)
        xs = rng.choice(world.n_sentences, size=monolingual_per_language, p=world.mu[lang])
        monolingual[lang] = xs.astype(np.int64)
    return Corpus(parallel=parallel, monolingual=monolingual)
