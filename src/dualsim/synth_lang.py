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

from .errors import (COUNT, DIRECTION, LANGUAGE, MAPPING, MAX_ENTRIES, NONNEGATIVE, SEED, SIZE,
                     Rule, ValidationError, check_fields)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _array(value, dtype: type, shape: tuple[int | None, ...], what: str) -> np.ndarray:
    """``value`` as an array of ``dtype`` and ``shape`` (None: any length),
    the caller's own array when it already is one, else a converted copy."""
    try:
        arr = np.asarray(value)
        # a value that casts to dtype only with loss (a float id) is no array of
        # it; an empty list reads as float64 and holds no value to lose
        arr = arr.astype(dtype, casting="safe" if arr.size else "unsafe", copy=False)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{what} is not an array of {dtype.__name__}: {e}") from None
    if arr.ndim != len(shape) or any(d not in (None, got) for d, got in zip(shape, arr.shape)):
        dims = ", ".join("n" if d is None else str(d) for d in shape)
        raise ValidationError(f"{what} must have shape ({dims}), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class World:
    """Immutable synthetic multi-language world.

    mu          (k, m*s) float64 rows, converted from any array-like:
                per-language sentence distributions, each with positive
                mass on every cluster
    cluster_of  read-only (m*s,) sentence id -> cluster id, x // s in every language
    """

    n_langs: int = field(metadata={"rule": COUNT})
    n_clusters: int = field(metadata={"rule": COUNT})
    cluster_size: int = field(metadata={"rule": COUNT})
    mu: np.ndarray

    def __post_init__(self) -> None:
        check_fields(self)  # the sizes; mu's checks follow
        shape = (self.n_langs, self.n_sentences)
        object.__setattr__(self, "mu", _array(self.mu, np.float64, shape, "mu"))
        # build_corpus draws every parallel target inside its source's
        # cluster; checked first, so that a NaN row fails here
        by_cluster = self.mu.reshape(self.n_langs, self.n_clusters, self.cluster_size)
        if not np.all(by_cluster.sum(axis=2) > 0.0):
            raise ValidationError("some language puts no mass on a cluster")
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
        LANGUAGE.require(lang, "language id")
        if lang >= self.n_langs:
            raise ValidationError(f"language id {lang} out of range [0, {self.n_langs})")
        return lang


@dataclass(frozen=True)
class Corpus:
    """Sampled training data: parallel pairs per ordered language pair,
    monolingual sentence ids per language.

    ``parallel[(i, j)]`` is an (n, 2) int64 array of (source id, target id)
    and ``monolingual[i]`` an (n,) int64 array, each converted from any
    array-like and read-only; by construction every pair is
    cluster-correct. Each ordered direction carries its own independent
    draws, so the two translators of a pair start from genuinely different
    supervised knowledge, the asymmetry that reconstruction training then
    transfers across.
    """

    parallel: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, metadata={"rule": MAPPING})
    monolingual: dict[int, np.ndarray] = field(default_factory=dict, metadata={"rule": MAPPING})

    def __post_init__(self) -> None:
        check_fields(self)  # both are mappings; their keys and arrays follow
        # the trainers only look keys up: data under a key that names no language is ignored
        for key in self.parallel:
            DIRECTION.require(key, "parallel key")
        for lang in self.monolingual:
            LANGUAGE.require(lang, "monolingual key")
        parallel = {
            key: _array(v, np.int64, (None, 2), f"parallel{key}")
            for key, v in self.parallel.items()
        }
        monolingual = {
            lang: _array(v, np.int64, (None,), f"monolingual[{lang}]")
            for lang, v in self.monolingual.items()
        }
        for arr in (*parallel.values(), *monolingual.values()):
            _frozen(arr)
        object.__setattr__(self, "parallel", parallel)
        object.__setattr__(self, "monolingual", monolingual)


WORLD = Rule(lambda v: isinstance(v, World), "a World")
CORPUS = Rule(lambda v: isinstance(v, Corpus), "a Corpus")


def generate_world(k: int, m: int, s: int, skew: float, seed: int) -> World:
    """Build a k-language world with m clusters of s sentences each.

    Each sentence weighs exp(skew * N(0,1)), normalized per language; at
    skew = 0 every weight is exactly 1, so every entry of mu is the double
    nearest 1/n. A skew that leaves some language's cluster with no mass,
    or overflows the weights, fails :class:`World`'s checks and is
    rejected as too large.
    Deterministic in (arguments, seed).
    """
    for name, count in (("k", k), ("m", m), ("s", s)):
        COUNT.require(count, name)
    NONNEGATIVE.require(skew, "skew")
    SEED.require(seed, "seed")
    if k < 2:
        raise ValidationError(f"need at least 2 languages, got {k}")
    if k * m * s > MAX_ENTRIES:
        raise ValidationError(f"a world of {k} x {m * s} sentence weights does not fit one array")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(skew * rng.standard_normal((k, m * s)))
        # an overflowed weight makes its language's row NaN, which World rejects
        mu = weights / weights.sum(axis=1, keepdims=True)
    try:
        return World(n_langs=k, n_clusters=m, cluster_size=s, mu=mu)
    except ValidationError as e:
        raise ValidationError(f"skew {skew!r} is too large: {e}") from None


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
    WORLD.require(world, "world")
    for name, size in (("parallel_per_pair", parallel_per_pair),
                       ("monolingual_per_language", monolingual_per_language)):
        SIZE.require(size, name)
    SEED.require(seed, "seed")
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
