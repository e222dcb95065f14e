"""World generation and corpus sampling."""

import hashlib
import re

import numpy as np
import pytest

from dualsim.errors import MAX_ENTRIES, ValidationError
from dualsim.synth_lang import Corpus, World, build_corpus, generate_world


class TestGenerateWorld:
    def test_minimal_world(self):
        world = generate_world(2, 1, 1, 0.0, 0)
        assert world.n_sentences == 1
        assert np.allclose(world.mu, 1.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("m, s", [(3, 1), (7, 1), (50, 4), (150, 4)])
    def test_uniform_entries(self, k, m, s):
        # every entry is the double nearest 1/n, also where 1/n is inexact
        mu = generate_world(k, m, s, 0.0, 0).mu
        assert mu.tobytes() == np.full((k, m * s), 1.0 / (m * s)).tobytes()

    def test_determinism(self):
        w1 = generate_world(3, 10, 2, 0.7, 42)
        w2 = generate_world(3, 10, 2, 0.7, 42)
        assert np.array_equal(w1.mu, w2.mu)
        assert np.array_equal(w1.cluster_of, w2.cluster_of)

    def test_skew_gives_nonuniform_normalized(self):
        world = generate_world(2, 10, 3, 1.0, 1)
        assert np.ptp(world.mu[0]) > 0
        assert np.allclose(world.mu.sum(axis=1), 1.0, atol=1e-12)

    def test_cluster_layout_is_contiguous_and_read_only(self):
        world = generate_world(3, 4, 5, 0.9, 2)
        assert np.array_equal(world.cluster_of, np.arange(20) // 5)
        with pytest.raises(ValueError):
            world.cluster_of[0] = 1

    def test_mu_is_immutable(self):
        world = generate_world(2, 2, 2, 0.0, 0)
        with pytest.raises(ValueError):
            world.mu[0, 0] = 0.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            generate_world(1, 5, 2, 0.0, 0)
        with pytest.raises(ValidationError):
            generate_world(2, 0, 2, 0.0, 0)
        with pytest.raises(ValidationError):
            generate_world(2, 5, 2, -1.0, 0)
        # each raised numpy's TypeError, ValueError or OverflowError, or ran
        # on a seed outside the rule of every seed
        for args, message in (
            ((3.0, 5, 2, 0.0, 0), f"k must be an integer in [1, {MAX_ENTRIES}], got 3.0"),
            ((3, 2.5, 2, 0.0, 0), f"m must be an integer in [1, {MAX_ENTRIES}], got 2.5"),
            ((3, 5, True, 0.0, 0), f"s must be an integer in [1, {MAX_ENTRIES}], got True"),
            ((2**64, 1, 1, 0.0, 0), f"k must be an integer in [1, {MAX_ENTRIES}], got {2**64}"),
            ((2**30, 2**30, 2, 0.0, 0), f"a world of {2**30} x {2**31} sentence weights does not fit"),
            ((3, 5, 2, "1", 0), "skew must be a nonnegative finite number, got '1'"),
            ((3, 5, 2, 10**400, 0), "skew must be a nonnegative finite number, got 1000"),
            ((3, 5, 2, 0.0, -1), "seed must be a nonnegative integer below 2**64, got -1"),
            ((3, 5, 2, 0.0, 2**64), f"seed must be a nonnegative integer below 2**64, got {2**64}"),
        ):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
                generate_world(*args)

    @pytest.mark.parametrize(
        "skew, message",
        [(800.0, "skew 800.0 is too large: "),
         (np.inf, "skew must be a nonnegative finite number, got inf$"),
         (np.nan, "skew must be a nonnegative finite number, got nan$")],
        ids=["800.0", "inf", "nan"],
    )
    def test_overflowing_skew_names_the_skew(self, skew, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            generate_world(3, 5, 2, skew, 0)
        # weights that do not overflow can still leave a cluster with no mass
        with pytest.raises(ValidationError, match="^skew 200.0 is too large: some language puts"):
            generate_world(3, 50, 4, 200.0, 0)

    def test_world_rejects_a_language_with_no_mass_on_a_cluster(self):
        # build_corpus would draw language 1's targets in cluster 1 with probability 0
        mu = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="^some language puts no mass on a cluster$"):
            World(n_langs=2, n_clusters=2, cluster_size=2, mu=mu)

    def test_world_rejects_sizes_that_are_no_positive_integer(self):
        # -1 passed the integer rule and reached numpy's reshape, a bare ValueError
        for sizes, message in (
            ((2, -1, -1), f"n_clusters must be an integer in [1, {MAX_ENTRIES}], got -1"),
            ((2, 0, 1), f"n_clusters must be an integer in [1, {MAX_ENTRIES}], got 0"),
            ((2.0, 1, 1), f"n_langs must be an integer in [1, {MAX_ENTRIES}], got 2.0"),
            ((2, 1, True), f"cluster_size must be an integer in [1, {MAX_ENTRIES}], got True"),
        ):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                World(*sizes, mu=[[1.0], [1.0]])

    def test_world_converts_mu(self):
        # a nested list or a float32 array is held as read-only float64
        for mu in ([[1.0], [1.0]], np.ones((2, 1), dtype=np.float32)):
            world = World(n_langs=2, n_clusters=1, cluster_size=1, mu=mu)
            assert world.mu.dtype == np.float64 and not world.mu.flags.writeable
        for mu in ([1.0, 1.0], [[1.0], [1.0, 0.0]], "x"):
            with pytest.raises(ValidationError, match="^mu "):
                World(n_langs=2, n_clusters=1, cluster_size=1, mu=mu)


class TestSampleParallel:
    """The parallel pairs ``build_corpus`` draws for every ordered pair."""

    def test_empty(self):
        world = generate_world(2, 3, 2, 0.0, 0)
        assert build_corpus(world, 0, 0, 1).parallel[(0, 1)].shape == (0, 2)

    def test_forced_single_sentence(self):
        world = generate_world(2, 1, 1, 0.0, 0)
        corpus = build_corpus(world, 20, 0, 1)
        assert all(np.all(pairs == 0) for pairs in corpus.parallel.values())

    def test_pairs_always_cluster_correct(self):
        world = generate_world(3, 8, 3, 0.9, 5)
        for seed in range(3):
            for pairs in build_corpus(world, 500, 0, seed).parallel.values():
                assert np.all(world.cluster_of[pairs[:, 0]] == world.cluster_of[pairs[:, 1]])

    def test_cluster_frequencies_near_uniform(self):
        m = 10
        world = generate_world(2, m, 2, 0.0, 0)
        n = 100_000
        pairs = build_corpus(world, n, 0, 7).parallel[(0, 1)]
        freqs = np.bincount(world.cluster_of[pairs[:, 0]], minlength=m) / n
        assert np.all(np.abs(freqs - 1.0 / m) <= 4.0 / np.sqrt(n))

    def test_uniform_within_cluster_mode(self):
        world = generate_world(2, 4, 3, 1.2, 9)
        corpus = build_corpus(world, 300, 0, 2, within_cluster="uniform")
        for pairs in corpus.parallel.values():
            assert np.all(world.cluster_of[pairs[:, 0]] == world.cluster_of[pairs[:, 1]])
        with pytest.raises(ValidationError):
            build_corpus(world, 5, 0, 2, within_cluster="nope")

    def test_determinism(self):
        world = generate_world(2, 5, 3, 0.4, 11)
        c1, c2 = build_corpus(world, 100, 0, 13), build_corpus(world, 100, 0, 13)
        assert all(np.array_equal(c1.parallel[key], c2.parallel[key]) for key in c1.parallel)


class TestSampleMonolingual:
    """The monolingual ids ``build_corpus`` draws for every language."""

    def test_empty(self):
        world = generate_world(2, 3, 2, 0.0, 0)
        assert build_corpus(world, 0, 0, 1).monolingual[0].shape == (0,)

    def test_single_sentence(self):
        world = generate_world(2, 1, 1, 0.0, 0)
        assert np.all(build_corpus(world, 0, 50, 3).monolingual[1] == 0)

    def test_frequencies_match_mu(self):
        world = generate_world(2, 5, 2, 0.0, 0)
        n = 100_000
        draws = build_corpus(world, 0, n, 23).monolingual[0]
        freqs = np.bincount(draws, minlength=world.n_sentences) / n
        assert np.all(np.abs(freqs - world.mu[0]) <= 4.0 / np.sqrt(n))


class TestBuildCorpus:
    def test_shapes_and_directions(self):
        world = generate_world(3, 4, 2, 0.0, 0)
        corpus = build_corpus(world, 30, 100, 5)
        assert set(corpus.parallel) == {(i, j) for i in range(3) for j in range(3) if i != j}
        assert all(arr.shape == (30, 2) for arr in corpus.parallel.values())
        assert set(corpus.monolingual) == {0, 1, 2}
        assert all(arr.shape == (100,) for arr in corpus.monolingual.values())

    def test_directions_are_independent_draws(self):
        world = generate_world(2, 10, 3, 0.0, 0)
        corpus = build_corpus(world, 200, 10, 5)
        mirrored = corpus.parallel[(1, 0)][:, ::-1]
        assert not np.array_equal(corpus.parallel[(0, 1)], mirrored)

    def test_determinism(self):
        world = generate_world(3, 4, 2, 0.3, 1)
        c1 = build_corpus(world, 25, 60, 9)
        c2 = build_corpus(world, 25, 60, 9)
        for key in c1.parallel:
            assert np.array_equal(c1.parallel[key], c2.parallel[key])
        for key in c1.monolingual:
            assert np.array_equal(c1.monolingual[key], c2.monolingual[key])

    def test_rejects_bad_sizes_and_seed(self):
        # each raised numpy's TypeError, ValueError or OverflowError, or ran
        # on a seed outside the rule of every seed
        world = generate_world(2, 3, 2, 0.0, 0)
        size = f"must be an integer in [0, {MAX_ENTRIES}], got"
        for args, message in (
            ((2.5, 3, 0), f"parallel_per_pair {size} 2.5"),
            ((3, True, 0), f"monolingual_per_language {size} True"),
            ((-1, 3, 0), f"parallel_per_pair {size} -1"),
            ((3, 2**64, 0), f"monolingual_per_language {size} {2**64}"),
            ((3, 3, -1), "seed must be a nonnegative integer below 2**64, got -1"),
            ((3, 3, 2**64), f"seed must be a nonnegative integer below 2**64, got {2**64}"),
            ((3, 3, 1.0), "seed must be a nonnegative integer below 2**64, got 1.0"),
        ):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                build_corpus(world, *args)

    def test_corpus_converts_ids(self):
        corpus = Corpus(parallel={(0, 1): [[0, 1]]}, monolingual={0: [1, 2], 1: []})
        for arr, shape in ((corpus.parallel[(0, 1)], (1, 2)), (corpus.monolingual[0], (2,)),
                           (corpus.monolingual[1], (0,))):
            assert arr.dtype == np.int64 and arr.shape == shape and not arr.flags.writeable
        # the int64 cast truncated float ids: [1.5, 2.9] was held as [1, 2]
        for bad in ({"parallel": {(0, 1): [0, 1]}}, {"parallel": {(0, 1): [[0, 1, 2]]}},
                    {"monolingual": {0: [[1, 2]]}}, {"monolingual": {0: ["a"]}},
                    {"monolingual": {0: [1.5, 2.9]}}, {"parallel": {(0, 1): [[0.5, 1]]}}):
            with pytest.raises(ValidationError):
                Corpus(**bad)

    @pytest.mark.parametrize("data, key", [
        ({"parallel": {(0, 0): [[0, 1]]}}, "(0, 0)"),
        ({"parallel": {("a", 9): [[0, 1]]}}, "('a', 9)"),
        ({"parallel": {(-1, 0): [[0, 1]]}}, "(-1, 0)"),
        ({"parallel": {(0, 1, 2): [[0, 1]]}}, "(0, 1, 2)"),
        ({"parallel": {(0, True): [[0, 1]]}}, "(0, True)"),
        ({"parallel": {1: [[0, 1]]}}, "1"),
        ({"monolingual": {"x": [1]}}, "'x'"),
        ({"monolingual": {-1: [1]}}, "-1"),
        ({"monolingual": {1.0: [1]}}, "1.0"),
    ], ids=["self-pair", "text-id", "negative-pair", "triple", "bool-id", "int-pair",
            "text-mono", "negative-mono", "float-mono"])
    def test_corpus_rejects_keys_that_name_no_language(self, data, key):
        # such keys were accepted, and the trainers, which only look keys up, ignored their data
        which = next(iter(data))
        what = {"parallel": "a pair of two different nonnegative integers",
                "monolingual": "a nonnegative integer"}[which]
        message = f"^{which} key must be {what}, got {re.escape(key)}$"
        with pytest.raises(ValidationError, match=message):
            Corpus(**data)

    # sha256 of every array in key order, recorded before the per-pair and
    # per-language samplers were folded into build_corpus: the fold must keep
    # each generator's stream and draw order. At skew 0 the "mu" and "uniform"
    # modes draw from the same within-cluster distribution.
    PINNED = {
        ("mu", 0.0): "86c9c54786bccd0ecee76183da0ce40342b723c23a3001ebaae3a935990fe195",
        ("mu", 1.0): "69e46f5f60ca61e04e82daaa16554a0f6eaf6f66881f9de7d033306ff014af73",
        ("uniform", 0.0): "86c9c54786bccd0ecee76183da0ce40342b723c23a3001ebaae3a935990fe195",
        ("uniform", 1.0): "abc5cf4e7afe1bdefb0e6ed707eefdb08485d601326ae29366b89d79e94c8d59",
    }

    @pytest.mark.parametrize("within_cluster, skew", sorted(PINNED))
    def test_arrays_match_pinned_digest(self, within_cluster, skew):
        world = generate_world(3, 5, 4, skew, 3)
        corpus = build_corpus(world, 40, 60, 11, within_cluster=within_cluster)
        h = hashlib.sha256()
        for arrays in (corpus.parallel, corpus.monolingual):
            for key in sorted(arrays):
                h.update(np.ascontiguousarray(arrays[key], dtype="<i8").tobytes())
        assert h.hexdigest() == self.PINNED[(within_cluster, skew)]
