"""Exact accuracy sums and the round-trip census against sampling /
brute-force oracles; estimators against the greedy-chain reference."""

import tracemalloc

import numpy as np
import pytest

from conftest import greedy_chain, log_prob, perfect_translator, shifted_translator
from dualsim import metrics
from dualsim.errors import ValidationError
from dualsim.metrics import accuracy, estimators, estimators_from_counts, round_trip_cells
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
            thetas = [scale * rng.normal(size=(n, n)) for scale in (0.1, 3.0, 40.0)]
            # rounded scores tie exactly and round small negatives to -0.0;
            # rows of +0.0, of -0.0, and a row whose maximum is a tie of
            # -0.0 and +0.0 follow, where a max read from the argmax cell
            # and one from theta.max could differ in sign
            tied = np.round(rng.normal(size=(n, n)))
            tied[0], tied[-1] = 0.0, -0.0
            tied[1] = -1.0
            tied[1, :2] = -0.0, 0.0
            for theta in thetas + [tied]:
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


def brute_force_cells(world, fwd, bwd):
    """The census by an explicit (x, y, z) triple loop over (n, n) laws."""
    c = world.cluster_of
    n = world.n_sentences
    cells = np.zeros((5, n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if c[y] == c[x]:
                    cell = 0 if c[z] == c[y] else 1
                elif c[z] == c[y]:
                    cell = 2
                else:
                    cell = 3 if c[z] == c[x] else 4
                cells[cell, x] += fwd[x, y] * bwd[y, z]
    return cells


class TestRoundTripCells:
    def test_matches_brute_force_triple_loop(self):
        # greedy or matrix law on each hop; s = 1 makes every sentence its
        # own cluster, and integer scores make greedy ties
        worlds = [
            generate_world(2, 4, 3, 0.7, 1),
            generate_world(2, 6, 1, 0.3, 2),
            generate_world(2, 2, 5, 1.0, 3),
        ]
        rng = np.random.default_rng(11)
        for world in worlds:
            n = world.n_sentences
            onehot = np.eye(n)
            for scores in (rng.normal(size=(2, n, n)), rng.integers(0, 2, size=(2, n, n))):
                laws = [
                    (TabularTranslator(0, 1, s).greedy_all(), row_probs(s.astype(float)))
                    for s in scores
                ]
                for fwd in laws[0]:
                    for bwd in laws[1]:
                        cells = round_trip_cells(fwd, bwd, world)
                        expected = brute_force_cells(
                            world,
                            onehot[fwd] if fwd.ndim == 1 else fwd,
                            onehot[bwd] if bwd.ndim == 1 else bwd,
                        )
                        assert cells.shape == (5, n)
                        np.testing.assert_allclose(cells, expected, rtol=0, atol=1e-12)
                        np.testing.assert_allclose(cells.sum(axis=0), 1.0, rtol=0, atol=1e-12)
                        if fwd.ndim == bwd.ndim == 1:
                            assert set(np.unique(cells)) <= {0.0, 1.0}
                            assert (cells.sum(axis=0) == 1.0).all()

    def test_perfect_pair(self):
        world = generate_world(2, 4, 2, 0.5, 1)
        fwd = perfect_translator(world, 0, 1)
        bwd = perfect_translator(world, 1, 0)
        greedy = round_trip_cells(fwd.greedy_all(), bwd.greedy_all(), world)
        assert (greedy[0] == 1.0).all() and (greedy[1:] == 0.0).all()
        stochastic = round_trip_cells(row_probs(fwd.theta), row_probs(bwd.theta), world)
        assert world.mu[0] @ (stochastic[0] + stochastic[2]) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_pair_symmetry(self):
        m = 5
        world = generate_world(2, m, 3, 0.0, 0)
        uniform = row_probs(np.zeros((15, 15)))
        cells = round_trip_cells(uniform, uniform, world)
        assert world.mu[0] @ (cells[0] + cells[2]) == pytest.approx(1.0 / m, abs=1e-12)
        assert world.mu[0] @ (cells[0] + cells[1]) == pytest.approx(1.0 / m, abs=1e-12)

    def test_p21r_is_the_pushforward_return_accuracy(self):
        # independent oracle: mu pushed through the forward rows, then the
        # greedy return hop scored at every intermediate sentence
        world = generate_world(2, 2, 2, 0.7, 9)
        rng = np.random.default_rng(4)
        fwd = TabularTranslator(0, 1, rng.normal(size=(4, 4)))
        bwd = TabularTranslator(1, 0, rng.normal(size=(4, 4)))
        expected = 0.0
        for x in range(4):
            for y in range(4):
                back = np.argmax(bwd.theta[y])
                ok = world.cluster_of[back] == world.cluster_of[y]
                expected += world.mu[0, x] * np.exp(log_prob(fwd, x, y)) * ok
        cells = round_trip_cells(row_probs(fwd.theta), bwd.greedy_all(), world)
        assert world.mu[0] @ (cells[0] + cells[2]) == pytest.approx(expected, abs=1e-12)

    def test_greedy_pair_allocates_no_n_by_m_temporary(self):
        # the greedy census is index arithmetic on n-vectors: its peak stays
        # under 20 float n-vectors (192 KB here), where one (n, m) bool mask
        # would take 1.44 MB
        n = 1200
        world = generate_world(2, n, 1, 1.0, 0)
        fwd, bwd = np.random.default_rng(2).integers(0, n, size=(2, n))
        round_trip_cells(fwd, bwd, world)
        tracemalloc.start()
        try:
            round_trip_cells(fwd, bwd, world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * n * 8, peak


class TestEstimators:
    def test_counts_match_the_greedy_chain_reference(self):
        worlds = [generate_world(2, 6, 2, 0.5, 7), generate_world(3, 5, 1, 0.0, 8)]
        rng = np.random.default_rng(12)
        for world in worlds:
            n = world.n_sentences
            for scale in (0.5, 3.0, 40.0):
                thetas = scale * rng.normal(size=(4, n, n))
                thetas[3] = np.round(thetas[3] / scale)  # greedy ties
                vanilla = (TabularTranslator(0, 1, thetas[0]), TabularTranslator(1, 0, thetas[1]))
                dual = (TabularTranslator(0, 1, thetas[2]), TabularTranslator(1, 0, thetas[3]))
                _, v_recon = greedy_chain(world, vanilla)
                d_hop1, d_recon = greedy_chain(world, dual)
                fail = ~v_recon
                assert estimators(vanilla, dual, world).counts == {
                    "n_vanilla_fail": int(fail.sum()),
                    "n_vanilla_recon": int(v_recon.sum()),
                    "n_corrected": int((fail & d_hop1 & d_recon).sum()),
                    "n_aligned": int((fail & ~d_hop1 & d_recon).sum()),
                    "n_unreconstructed": int((fail & ~d_recon).sum()),
                    "n_kept": int((v_recon & d_recon).sum()),
                    "n_dual_recon": int(d_recon.sum()),
                }

    def test_non_composing_rejected(self):
        world = generate_world(3, 2, 2, 0.0, 0)
        t01, t10, t20 = (TabularTranslator(i, j, np.zeros((4, 4))) for i, j in ((0, 1), (1, 0), (2, 0)))
        for vanilla, dual in (((t01, t20), (t01, t10)), ((t01, t10), (t01, t20))):
            with pytest.raises(ValidationError, match="0->1 then 2->0"):
                estimators(vanilla, dual, world)

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
