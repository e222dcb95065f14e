"""Exact accuracy sums against sampling / brute-force oracles; estimators."""

import tracemalloc

import numpy as np
import pytest

from conftest import log_prob, perfect_translator, shifted_translator
from dualsim import metrics
from dualsim.errors import ValidationError
from dualsim.metrics import (
    accuracy,
    estimators,
    estimators_from_counts,
    reconstruction_accuracy,
)
from dualsim.oracle import OutcomeCounts
from dualsim.synth_lang import generate_world
from dualsim.translator import TabularTranslator, row_probs


class TestAccuracy:
    def test_oracle_aligned_translator(self):
        world = generate_world(2, 5, 3, 0.4, 2)
        rep = accuracy(perfect_translator(world, 0, 1), world)
        assert rep.p_hat == 1.0
        assert rep.p_expected == pytest.approx(1.0, abs=1e-9)

    def test_all_correct_is_exactly_one_on_a_skewed_world(self):
        # mu @ mask rounds one ulp above 1 here; report accepts only [0, 1]
        world = generate_world(3, 4, 2, 0.5, 0)
        rep = accuracy(perfect_translator(world, 0, 1), world)
        assert rep.p_hat == 1.0 and rep.p_expected == 1.0

    def test_uniform_rows(self):
        m = 8
        world = generate_world(2, m, 4, 0.0, 0)
        rep = accuracy(TabularTranslator(0, 1, np.zeros((32, 32))), world)
        assert rep.p_expected == pytest.approx(1.0 / m, abs=1e-12)
        # argmax of a constant row is sentence 0, correct only for cluster 0
        assert rep.p_hat == pytest.approx(1.0 / m, abs=1e-12)

    def test_matches_monte_carlo_decode(self):
        world = generate_world(2, 2, 2, 0.6, 3)
        rng = np.random.default_rng(0)
        t = TabularTranslator(0, 1, rng.normal(size=(4, 4)))
        rep = accuracy(t, world)

        n = 1_000_000
        xs = rng.choice(4, size=n, p=world.mu[0])
        greedy_ok = world.cluster_of[t.greedy_all()[xs]] == world.cluster_of[xs]
        p_hat_mc = greedy_ok.mean()
        se = np.sqrt(max(p_hat_mc * (1 - p_hat_mc), 1e-12) / n)
        assert abs(rep.p_hat - p_hat_mc) <= 4 * se

        probs = row_probs(t.theta)
        cum = probs.cumsum(axis=1)
        u = rng.random(n)
        ys = (u[:, None] > cum[xs]).sum(axis=1).clip(0, 3)
        exp_ok = world.cluster_of[ys] == world.cluster_of[xs]
        p_exp_mc = exp_ok.mean()
        se = np.sqrt(max(p_exp_mc * (1 - p_exp_mc), 1e-12) / n)
        assert abs(rep.p_expected - p_exp_mc) <= 4 * se

    def test_greedy_accuracy_equals_set_sum_for_deterministic_translator(self):
        # independent oracle: accumulate mu over sources whose decoded
        # translation lands in the correct cluster, one sentence at a time
        world = generate_world(2, 4, 3, 0.8, 5)
        rng = np.random.default_rng(6)
        t = TabularTranslator(0, 1, 40.0 * rng.normal(size=(12, 12)))
        expected = sum(
            world.mu[0, x]
            for x in range(12)
            if world.cluster_of[np.argmax(t.theta[x])] == world.cluster_of[x]
        )
        assert accuracy(t, world).p_hat == pytest.approx(expected, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        world = generate_world(2, 2, 2, 0.0, 0)
        with pytest.raises(ValidationError):
            accuracy(TabularTranslator(0, 1, np.zeros((3, 4))), world)

    def test_p_expected_is_the_masked_softmax_bit_for_bit(self):
        # accuracy scores rows in blocks; the reference is the whole-matrix
        # masked softmax and argmax. Worlds: skew 1 (mu far from uniform),
        # n = 145 (two full blocks and a partial one), s = 1 and m = 1
        worlds = [
            generate_world(3, 7, 5, 1.0, 4),
            generate_world(3, 29, 5, 1.0, 5),
            generate_world(2, 70, 1, 0.5, 6),
            generate_world(2, 1, 67, 0.5, 7),
        ]
        assert metrics._BLOCK_ROWS == 64
        rng = np.random.default_rng(9)
        for world in worlds:
            n = world.n_sentences
            clusters = world.cluster_of
            mask = np.equal.outer(clusters, clusters)
            for scale in (0.1, 3.0, 40.0):
                theta = scale * rng.normal(size=(n, n))
                t = TabularTranslator(0, 1, theta.copy())
                rep = accuracy(t, world)
                z = theta - theta.max(axis=1, keepdims=True)
                e = np.exp(z)
                probs = e / e.sum(axis=1, keepdims=True)
                expected = min(float(world.mu[0] @ (probs * mask).sum(axis=1)), 1.0)
                assert rep.p_expected == expected
                greedy_ok = clusters[np.argmax(theta, axis=1)] == clusters
                assert rep.p_hat == min(float(world.mu[0] @ greedy_ok), 1.0)
                assert t.theta.tobytes() == theta.tobytes()

    def test_peak_memory_is_one_score_matrix(self):
        # theta is the one score matrix: scoring adds two 64-row blocks at
        # most (0.24 of theta here), so an n x n temporary, or even an n x n
        # bool mask (1/8 of theta), breaks the bound
        world = generate_world(2, 150, 4, 1.0, 0)
        t = TabularTranslator(0, 1, np.random.default_rng(1).normal(size=(600, 600)))
        accuracy(t, world)
        tracemalloc.start()
        try:
            accuracy(t, world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * t.theta.nbytes


class TestReconstructionAccuracy:
    def test_perfect_pair(self):
        world = generate_world(2, 4, 2, 0.0, 1)
        fwd = perfect_translator(world, 0, 1)
        bwd = perfect_translator(world, 1, 0)
        assert reconstruction_accuracy(fwd, bwd, world) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_pair_is_exactly_one_on_a_skewed_world(self):
        # the pushforward sums one ulp above 1 here without the cap
        world = generate_world(3, 4, 2, 0.5, 24)
        for i, j in ((0, 1), (1, 0)):
            fwd, bwd = perfect_translator(world, i, j), perfect_translator(world, j, i)
            assert reconstruction_accuracy(fwd, bwd, world) == 1.0

    def test_uniform_pair_symmetry(self):
        m = 5
        world = generate_world(2, m, 3, 0.0, 0)
        fwd = TabularTranslator(0, 1, np.zeros((15, 15)))
        bwd = TabularTranslator(1, 0, np.zeros((15, 15)))
        assert reconstruction_accuracy(fwd, bwd, world) == pytest.approx(1.0 / m, abs=1e-12)

    def test_matches_nested_loop_enumeration(self):
        world = generate_world(2, 2, 2, 0.7, 9)
        rng = np.random.default_rng(4)
        fwd = TabularTranslator(0, 1, rng.normal(size=(4, 4)))
        bwd = TabularTranslator(1, 0, rng.normal(size=(4, 4)))
        # independent oracle: explicit double loop over (x, y)
        expected = 0.0
        for x in range(4):
            for y in range(4):
                back = np.argmax(bwd.theta[y])
                ok = world.cluster_of[back] == world.cluster_of[y]
                expected += world.mu[0, x] * np.exp(log_prob(fwd, x, y)) * ok
        assert reconstruction_accuracy(fwd, bwd, world) == pytest.approx(expected, abs=1e-12)

    def test_non_composing_rejected(self):
        world = generate_world(3, 2, 2, 0.0, 0)
        with pytest.raises(ValidationError):
            reconstruction_accuracy(
                TabularTranslator(0, 1, np.zeros((4, 4))),
                TabularTranslator(2, 0, np.zeros((4, 4))),
                world,
            )


class TestEstimators:
    def test_identical_pairs_put_all_failure_mass_in_gamma(self):
        world = generate_world(2, 5, 2, 0.0, 6)
        rng = np.random.default_rng(8)
        fwd = TabularTranslator(0, 1, 2.0 * rng.normal(size=(10, 10)))
        bwd = TabularTranslator(1, 0, 2.0 * rng.normal(size=(10, 10)))
        rep = estimators((fwd, bwd), (fwd, bwd), world)
        assert rep.counts["n_vanilla_fail"] > 0
        assert rep.alpha_hat == 0.0 and rep.beta_hat == 0.0 and rep.gamma_hat == 1.0
        assert rep.eta_hat == 1.0

    def test_partition_is_exact(self):
        world = generate_world(2, 6, 2, 0.5, 7)
        rng = np.random.default_rng(9)
        vanilla = (
            TabularTranslator(0, 1, rng.normal(size=(12, 12))),
            TabularTranslator(1, 0, rng.normal(size=(12, 12))),
        )
        dual = (
            TabularTranslator(0, 1, rng.normal(size=(12, 12))),
            TabularTranslator(1, 0, rng.normal(size=(12, 12))),
        )
        rep = estimators(vanilla, dual, world)
        if rep.alpha_hat is not None:
            assert rep.alpha_hat + rep.beta_hat + rep.gamma_hat == 1.0
        c = rep.counts
        assert c["n_corrected"] + c["n_aligned"] + c["n_unreconstructed"] == c["n_vanilla_fail"]
        if rep.eta_hat is not None:
            assert 0.0 <= rep.eta_hat <= 1.0

    def test_nothing_reconstructs_gives_undefined_eta(self):
        world = generate_world(2, 4, 2, 0.0, 0)
        fwd = shifted_translator(world, 0, 1)
        bwd = perfect_translator(world, 1, 0)  # round trip lands one cluster off
        rep = estimators((fwd, bwd), (fwd, bwd), world)
        assert rep.counts["n_vanilla_recon"] == 0
        assert rep.eta_hat is None and rep.eta_raw is None
        assert rep.gamma_hat == 1.0


class TestEstimatorsFromCounts:
    def test_ratios(self):
        rep = estimators_from_counts(OutcomeCounts(500, 20, 150, 130, 200))
        assert rep.alpha_hat == pytest.approx(150 / 480)
        assert rep.beta_hat == pytest.approx(130 / 480)
        assert rep.gamma_hat == pytest.approx(200 / 480)
        assert rep.alpha_hat + rep.beta_hat + rep.gamma_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.eta_hat == 1.0
        assert rep.eta_raw == pytest.approx((520 + 280) / 520)

    def test_empty_denominators(self):
        rep = estimators_from_counts(OutcomeCounts(10, 2, 0, 0, 0))
        assert rep.alpha_hat is None and rep.gamma_hat is None
        rep = estimators_from_counts(OutcomeCounts(0, 0, 3, 2, 1))
        assert rep.eta_hat is None
