"""World generation and corpus sampling."""

import hashlib

import numpy as np
import pytest

from dualsim.errors import ValidationError
from dualsim.synth_lang import build_corpus, generate_world


class TestGenerateWorld:
    def test_minimal_world(self):
        world = generate_world(2, 1, 1, 0.0, 0)
        assert world.n_sentences == 1
        assert np.allclose(world.mu, 1.0)

    def test_uniform_entries(self):
        world = generate_world(3, 50, 4, 0.0, 0)
        assert np.all(world.mu == 1.0 / 200)

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

    @pytest.mark.parametrize("skew", [800.0, np.inf, np.nan])
    def test_overflowing_skew_names_the_skew(self, skew):
        with pytest.raises(ValidationError, match=f"skew {skew!r}"):
            generate_world(3, 5, 2, skew, 0)


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
