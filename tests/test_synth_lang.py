"""World generation and corpus sampling."""

import numpy as np
import pytest

from dualsim.errors import ValidationError
from dualsim.synth_lang import (
    build_corpus,
    generate_world,
    sample_monolingual,
    sample_parallel,
)


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


class TestSampleParallel:
    def test_empty(self):
        world = generate_world(2, 3, 2, 0.0, 0)
        assert sample_parallel(world, 0, 1, 0, 1).shape == (0, 2)

    def test_forced_single_sentence(self):
        world = generate_world(2, 1, 1, 0.0, 0)
        pairs = sample_parallel(world, 0, 1, 20, 1)
        assert np.all(pairs == 0)

    def test_pairs_always_cluster_correct(self):
        world = generate_world(3, 8, 3, 0.9, 5)
        for seed in range(3):
            pairs = sample_parallel(world, 0, 1, 500, seed)
            assert np.all(
                world.cluster_of[0, pairs[:, 0]] == world.cluster_of[1, pairs[:, 1]]
            )

    def test_cluster_frequencies_near_uniform(self):
        m = 10
        world = generate_world(2, m, 2, 0.0, 0)
        n = 100_000
        pairs = sample_parallel(world, 0, 1, n, 7)
        freqs = np.bincount(world.cluster_of[0, pairs[:, 0]], minlength=m) / n
        assert np.all(np.abs(freqs - 1.0 / m) <= 4.0 / np.sqrt(n))

    def test_uniform_within_cluster_mode(self):
        world = generate_world(2, 4, 3, 1.2, 9)
        pairs = sample_parallel(world, 0, 1, 300, 2, within_cluster="uniform")
        assert np.all(world.cluster_of[0, pairs[:, 0]] == world.cluster_of[1, pairs[:, 1]])
        with pytest.raises(ValidationError):
            sample_parallel(world, 0, 1, 5, 2, within_cluster="nope")

    def test_same_language_rejected(self):
        world = generate_world(2, 3, 2, 0.0, 0)
        with pytest.raises(ValidationError):
            sample_parallel(world, 1, 1, 5, 0)

    def test_determinism(self):
        world = generate_world(2, 5, 3, 0.4, 11)
        assert np.array_equal(
            sample_parallel(world, 0, 1, 100, 13), sample_parallel(world, 0, 1, 100, 13)
        )


class TestSampleMonolingual:
    def test_empty(self):
        world = generate_world(2, 3, 2, 0.0, 0)
        assert sample_monolingual(world, 0, 0, 1).shape == (0,)

    def test_single_sentence(self):
        world = generate_world(2, 1, 1, 0.0, 0)
        assert np.all(sample_monolingual(world, 1, 50, 3) == 0)

    def test_frequencies_match_mu(self):
        world = generate_world(2, 5, 2, 0.0, 0)
        n = 100_000
        draws = sample_monolingual(world, 0, n, 23)
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
