"""Training updates, gradients, round-trip dynamics, and loop bounds."""

import copy
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import log_prob, loop_log_prob, loop_log_prob_bound, perfect_translator
from dualsim.errors import ValidationError
from dualsim.learner import (
    dual_learning,
    evaluate,
    multistep_dual_learning,
    train_supervised,
)
from dualsim import learner
from dualsim.learner import _supervised_update
from dualsim.metrics import accuracy
from dualsim.synth_lang import Corpus, build_corpus, generate_world
from dualsim.translator import (
    TabularTranslator,
    TrainConfig,
    log_prob_grad_row,
    row_probs,
    sample_row,
)


def batch_log_lik(theta, xs, ys):
    z = theta - theta.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(np.mean(log_probs[xs, ys]))


def fd_row_grad(f, theta, row, h=1e-5):
    g = np.zeros(theta.shape[1])
    for col in range(theta.shape[1]):
        tp = theta.copy()
        tp[row, col] += h
        tm = theta.copy()
        tm[row, col] -= h
        g[col] = (f(tp) - f(tm)) / (2 * h)
    return g


class TestTabularTranslator:
    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        t = TabularTranslator(0, 1, 3.0 * rng.normal(size=(6, 6)))
        assert np.allclose(row_probs(t.theta).sum(axis=1), 1.0, atol=1e-9)

    def test_row_probs_of_a_matrix_is_row_by_row(self):
        theta = 3.0 * np.random.default_rng(2).normal(size=(7, 5))
        assert np.array_equal(row_probs(theta), np.stack([row_probs(r) for r in theta]))

    def test_row_probs_equals_the_three_temporary_softmax(self):
        rng = np.random.default_rng(31)
        for theta in (rng.normal(size=17), 30.0 * rng.normal(size=(9, 13))):
            z = theta - theta.max(axis=-1, keepdims=True)
            e = np.exp(z)
            assert row_probs(theta).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    def test_greedy_tie_breaks_to_lowest_id(self):
        theta = np.zeros((2, 5))
        theta[1, 2] = theta[1, 4] = 1.5
        t = TabularTranslator(0, 1, theta)
        assert t.greedy_all().tolist() == [0, 2]

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            TabularTranslator(0, 1, np.array([[0.0, np.inf]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_each_non_finite_score(self, bad):
        theta = np.zeros((3, 4))
        theta[1, 2] = bad
        with pytest.raises(ValidationError, match="finite scores"):
            TabularTranslator(0, 1, theta)

    def test_finite_check_builds_no_temporary(self):
        # a 600 x 600 theta is 2.9 MB; checking it must not allocate an
        # n x n mask (360 KB as bools)
        theta = np.zeros((600, 600))
        tracemalloc.start()
        try:
            TabularTranslator(0, 1, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * theta.nbytes

    def test_sampling_follows_rows(self):
        rng = np.random.default_rng(1)
        row = np.array([2.0, 0.0, -1.0])
        draws = np.array([sample_row(row, rng) for _ in range(20_000)])
        freqs = np.bincount(draws, minlength=3) / len(draws)
        assert np.all(np.abs(freqs - row_probs(row)) < 0.02)

    def test_config_validation(self):
        for rate in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="learning_rate"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValidationError):
            TrainConfig(steps=-1)
        with pytest.raises(ValidationError):
            TrainConfig(supervised_mix=1.5)
        with pytest.raises(ValidationError):
            TrainConfig(supervised_batch=0)


class TestTrainSupervised:
    def test_two_sentence_world_reaches_perfect_accuracy(self):
        world = generate_world(2, 2, 1, 0.0, 0)
        pairs = np.array([[0, 0], [1, 1]])
        cfg = TrainConfig(learning_rate=0.5, steps=400, supervised_batch=4, seed=1)
        t = train_supervised(0, 1, 2, pairs, cfg)
        assert accuracy(t, world).p_hat == 1.0

    def test_zero_steps_returns_zeros(self):
        out = train_supervised(2, 3, 4, np.array([[0, 1]]), TrainConfig(steps=0))
        assert (out.src_lang, out.dst_lang) == (2, 3)
        assert out.theta.shape == (4, 4) and not out.theta.any()

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError):
            train_supervised(0, 1, 4, np.empty((0, 2)), TrainConfig())

    def test_deterministic(self):
        pairs = np.array([[0, 1], [1, 0], [2, 3], [3, 2]])
        cfg = TrainConfig(steps=50, seed=9)
        assert np.array_equal(
            train_supervised(0, 1, 4, pairs, cfg).theta, train_supervised(0, 1, 4, pairs, cfg).theta
        )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_unwritten_rows_cost_no_resident_memory(self):
        # n = 700 is 3.9 MB, below the 4 MiB from which numpy asks for huge
        # pages; 10 pairs write at most 10 of the 700 rows. The peak is
        # VmHWM, the new process's own: ru_maxrss keeps the peak of the
        # forking test process across exec
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
        if thp.exists() and "[always]" in thp.read_text():
            pytest.skip("transparent huge pages back whole 2 MiB ranges on first write")
        script = textwrap.dedent(
            """
            import numpy as np
            from dualsim.learner import train_supervised
            from dualsim.translator import TrainConfig

            def peak_kib():
                with open("/proc/self/status") as fh:
                    return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))

            pairs = np.stack([np.arange(0, 700, 70), np.arange(10)], axis=1)
            cfg = TrainConfig(steps=50, seed=1)
            train_supervised(0, 1, 20, pairs % 20, cfg)  # warm every code path
            before = peak_kib()
            t = train_supervised(0, 1, 700, pairs, cfg)
            print(peak_kib() - before, t.theta.nbytes)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        grown_kib, nbytes = map(int, done.stdout.split())
        assert grown_kib * 1024 < nbytes / 4


class TestGradients:
    def test_row_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            theta = rng.normal(size=(n, n))
            x = int(rng.integers(n))
            y = int(rng.integers(n))
            analytic = log_prob_grad_row(theta[x], y)
            t = TabularTranslator(0, 1, theta)
            fd = fd_row_grad(
                lambda th: log_prob(TabularTranslator(0, 1, th), x, y), theta, x
            )
            assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-9)
            # untouched rows carry zero gradient
            other = (x + 1) % n
            fd_other = fd_row_grad(
                lambda th: log_prob(TabularTranslator(0, 1, th), x, y), theta, other
            )
            assert np.allclose(fd_other, 0.0, atol=1e-9)

    def test_supervised_batch_update_matches_finite_differences(self):
        rng_master = np.random.default_rng(3)
        for trial in range(10):
            n = 6
            theta0 = rng_master.normal(size=(n, n))
            pairs = rng_master.integers(0, n, size=(12, 2))
            lr, batch, seed = 0.3, 5, 100 + trial
            theta = theta0.copy()
            _supervised_update(theta, pairs, np.random.default_rng(seed), batch, lr)
            delta = theta - theta0
            idx = np.random.default_rng(seed).integers(0, len(pairs), size=batch)
            xs, ys = pairs[idx, 0], pairs[idx, 1]
            expected = np.zeros_like(theta0)
            for row in set(xs.tolist()):
                expected[row] = fd_row_grad(
                    lambda th: batch_log_lik(th, xs, ys), theta0, row
                )
            assert np.allclose(delta, lr * expected, rtol=1e-6, atol=1e-9)

    def test_supervised_update_adds_repeated_rows_like_add_at(self):
        # every batch row is the same source: the row takes batch additions
        # in batch order, each bit as np.add.at makes it
        rng = np.random.default_rng(41)
        theta0 = rng.normal(size=(5, 7))
        pairs = np.array([[3, y] for y in range(7)])
        lr, batch, seed = 0.7, 9, 12
        theta = theta0.copy()
        _supervised_update(theta, pairs, np.random.default_rng(seed), batch, lr)
        idx = np.random.default_rng(seed).integers(0, len(pairs), size=batch)
        xs, ys = pairs[idx, 0], pairs[idx, 1]
        upd = -row_probs(theta0[xs])
        upd[np.arange(batch), ys] += 1.0
        expected = theta0.copy()
        np.add.at(expected, xs, (lr / batch) * upd)
        assert theta.tobytes() == expected.tobytes()
        assert np.array_equal(theta[[0, 1, 2, 4]], theta0[[0, 1, 2, 4]])


def small_setup(seed=0, m=6, s=2, pairs=25, mono=200):
    world = generate_world(3, m, s, 0.0, seed)
    corpus = build_corpus(world, pairs, mono, seed + 1)
    n = world.n_sentences
    rng = np.random.default_rng(seed + 2)
    translators = {
        (i, j): TabularTranslator(i, j, 0.5 * rng.normal(size=(n, n)))
        for i in range(3)
        for j in range(3)
        if i != j
    }
    return world, corpus, translators


class TestDualLearning:
    def test_single_step_applies_exact_sampled_gradients(self):
        _, corpus, ts = small_setup()
        t12, t21 = ts[(0, 1)], ts[(1, 0)]
        lr = 0.7
        cfg = TrainConfig(learning_rate=lr, steps=1, supervised_mix=0.0, seed=5)
        d12, d21 = dual_learning(t12, t21, corpus, cfg)
        for before, after, partner_mono in (
            (t21, d21, corpus.monolingual[0]),
            (t12, d12, corpus.monolingual[1]),
        ):
            delta = after.theta - before.theta
            touched = np.nonzero(np.any(delta != 0.0, axis=1))[0]
            assert len(touched) == 1
            row = touched[0]
            target = int(np.argmax(delta[row]))
            assert target in partner_mono
            # replaying the exact update arithmetic must reproduce the row
            assert np.array_equal(
                after.theta[row],
                before.theta[row] + lr * log_prob_grad_row(before.theta[row], target),
            )

    def test_improves_over_vanilla_on_small_world(self):
        world = generate_world(2, 20, 2, 0.0, 3)
        corpus = build_corpus(world, 40, 400, 4)
        n = world.n_sentences
        sup = TrainConfig(learning_rate=0.5, steps=800, supervised_batch=8, seed=5)
        t12 = train_supervised(0, 1, n, corpus.parallel[(0, 1)], sup)
        t21 = train_supervised(1, 0, n, corpus.parallel[(1, 0)], sup)
        vanilla = accuracy(t12, world).p_hat
        cfg = TrainConfig(learning_rate=0.5, steps=2000, supervised_batch=8, seed=6)
        d12, _ = dual_learning(t12, t21, corpus, cfg)
        assert accuracy(d12, world).p_hat > vanilla

    def test_deterministic(self):
        _, corpus, ts = small_setup()
        cfg = TrainConfig(steps=60, seed=11)
        a = dual_learning(ts[(0, 1)], ts[(1, 0)], corpus, cfg)
        b = dual_learning(ts[(0, 1)], ts[(1, 0)], corpus, cfg)
        assert np.array_equal(a[0].theta, b[0].theta)
        assert np.array_equal(a[1].theta, b[1].theta)

    def test_replay_only_equals_pure_supervised_loop(self):
        _, corpus, ts = small_setup()
        t12, t21 = ts[(0, 1)], ts[(1, 0)]
        cfg = TrainConfig(learning_rate=0.4, steps=40, supervised_batch=6,
                          supervised_mix=1.0, seed=21)
        d12, d21 = dual_learning(t12, t21, corpus, cfg)
        # reference: replay loop with the same stream of random draws
        rng = np.random.default_rng(21)
        th12, th21 = t12.theta.copy(), t21.theta.copy()
        for _ in range(40):
            assert rng.random() < 1.0
            for theta, pairs in ((th12, corpus.parallel[(0, 1)]), (th21, corpus.parallel[(1, 0)])):
                idx = rng.integers(0, len(pairs), size=6)
                xs, ys = pairs[idx, 0], pairs[idx, 1]
                rows = theta[xs]
                z = rows - rows.max(axis=1, keepdims=True)
                probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
                upd = -probs
                upd[np.arange(6), ys] += 1.0
                np.add.at(theta, xs, (0.4 / 6) * upd)
        assert np.array_equal(d12.theta, th12)
        assert np.array_equal(d21.theta, th21)

    def test_rows_stay_normalized_after_training(self):
        _, corpus, ts = small_setup()
        cfg = TrainConfig(steps=300, seed=23)
        d12, d21 = dual_learning(ts[(0, 1)], ts[(1, 0)], corpus, cfg)
        for t in (d12, d21):
            assert np.allclose(row_probs(t.theta).sum(axis=1), 1.0, atol=1e-9)

    def test_missing_monolingual_rejected(self):
        world = generate_world(2, 3, 2, 0.0, 0)
        corpus = build_corpus(world, 10, 0, 1)
        t12 = TabularTranslator(0, 1, np.zeros((6, 6)))
        t21 = TabularTranslator(1, 0, np.zeros((6, 6)))
        with pytest.raises(ValidationError):
            dual_learning(t12, t21, corpus, TrainConfig(steps=5))

    def test_direction_mismatch_rejected(self):
        _, corpus, ts = small_setup()
        with pytest.raises(ValidationError):
            dual_learning(ts[(0, 1)], ts[(0, 2)], corpus, TrainConfig(steps=1))

    @pytest.mark.parametrize("reverse", [None, np.empty((0, 2), dtype=np.int64)],
                             ids=["missing", "empty"])
    def test_replay_needs_the_reverse_directions_own_pairs(self, reverse):
        # t21 replays corpus.parallel[(1, 0)], never the mirrored (0, 1) pairs
        _, corpus, ts = small_setup()
        parallel = {key: v for key, v in corpus.parallel.items() if key != (1, 0)}
        if reverse is not None:
            parallel[(1, 0)] = reverse
        no_reverse = Corpus(parallel=parallel, monolingual=corpus.monolingual)
        cfg = TrainConfig(steps=5, supervised_mix=1.0)
        with pytest.raises(ValidationError, match=r"parallel data for pair \(1, 0\)"):
            dual_learning(ts[(0, 1)], ts[(1, 0)], no_reverse, cfg)


class TestMultistepDualLearning:
    def test_two_languages_rejected(self):
        world = generate_world(2, 3, 2, 0.0, 0)
        corpus = build_corpus(world, 10, 50, 1)
        ts = {
            (0, 1): TabularTranslator(0, 1, np.zeros((6, 6))),
            (1, 0): TabularTranslator(1, 0, np.zeros((6, 6))),
        }
        with pytest.raises(ValidationError, match="degenerates"):
            multistep_dual_learning(ts, corpus, TrainConfig(steps=1))

    def test_missing_pivot_translators_rejected(self):
        _, corpus, ts = small_setup()
        del ts[(2, 0)]
        with pytest.raises(ValidationError, match="missing"):
            multistep_dual_learning(ts, corpus, TrainConfig(steps=1))

    def test_update_pivots_checks_pivot_data_before_training(self):
        # rejected up front, even when no step would reach a pivot update
        _, corpus, ts = small_setup()
        no_pivot_mono = Corpus(
            parallel=corpus.parallel,
            monolingual={**corpus.monolingual, 2: np.empty(0, dtype=np.int64)},
        )
        cfg = TrainConfig(steps=0, update_pivots=True)
        with pytest.raises(ValidationError, match="update_pivots"):
            multistep_dual_learning(ts, no_pivot_mono, cfg)
        multistep_dual_learning(ts, no_pivot_mono, TrainConfig(steps=0))

    def test_single_step_applies_exact_sampled_gradients(self):
        _, corpus, ts = small_setup(seed=7)
        lr = 0.6
        cfg = TrainConfig(learning_rate=lr, steps=1, supervised_mix=0.0, seed=13)
        out = multistep_dual_learning(ts, corpus, cfg)
        for key in ((0, 2), (2, 0), (1, 2), (2, 1)):
            assert np.array_equal(out[key].theta, ts[key].theta)  # pivots frozen
        for key, mono in (((1, 0), corpus.monolingual[0]), ((0, 1), corpus.monolingual[1])):
            delta = out[key].theta - ts[key].theta
            touched = np.nonzero(np.any(delta != 0.0, axis=1))[0]
            assert len(touched) == 1
            row = touched[0]
            target = int(np.argmax(delta[row]))
            assert target in mono
            assert np.array_equal(
                out[key].theta[row],
                ts[key].theta[row] + lr * log_prob_grad_row(ts[key].theta[row], target),
            )

    def test_update_pivots_flag_touches_pivot_pairs(self):
        _, corpus, ts = small_setup(seed=8)
        cfg = TrainConfig(steps=30, supervised_mix=0.0, update_pivots=True, seed=3)
        out = multistep_dual_learning(ts, corpus, cfg)
        assert any(
            not np.array_equal(out[key].theta, ts[key].theta)
            for key in ((0, 2), (2, 0), (1, 2), (2, 1))
        )

    def test_perfect_pivot_chain_lands_in_source_cluster(self):
        world, corpus, ts = small_setup(seed=9)
        rng = np.random.default_rng(4)
        t_0p = perfect_translator(world, 0, 2)
        t_p1 = perfect_translator(world, 2, 1)
        for _ in range(200):
            x = int(rng.integers(world.n_sentences))
            end = sample_row(t_p1.theta[sample_row(t_0p.theta[x], rng)], rng)
            assert world.cluster_of[end] == world.cluster_of[x]

    def test_perfect_pivots_give_cluster_correct_updates(self):
        world, corpus, ts = small_setup(seed=10)
        ts = dict(ts)
        for i, j in ((0, 2), (2, 0), (1, 2), (2, 1)):
            ts[(i, j)] = perfect_translator(world, i, j)
        cfg = TrainConfig(steps=40, supervised_mix=0.0, seed=14)
        out = multistep_dual_learning(ts, corpus, cfg)
        # every touched row of the 0->1 model was pushed toward a target
        # in its own cluster: pseudo-sources are cluster-faithful
        delta = out[(0, 1)].theta - ts[(0, 1)].theta
        for row in np.nonzero(np.any(delta > 0.0, axis=1))[0]:
            target = int(np.argmax(delta[row]))
            assert world.cluster_of[target] == world.cluster_of[row]

    def test_deterministic(self):
        _, corpus, ts = small_setup(seed=12)
        cfg = TrainConfig(steps=50, seed=19)
        a = multistep_dual_learning(ts, corpus, cfg)
        b = multistep_dual_learning(ts, corpus, cfg)
        for key in a:
            assert np.array_equal(a[key].theta, b[key].theta)

    @pytest.mark.parametrize("update_pivots", [False, True])
    def test_untouched_directions_are_the_callers_objects(self, update_pivots):
        # four languages, so that the pivot pair (2, 3) is never written
        world = generate_world(4, 3, 2, 0.5, 21)
        corpus = build_corpus(world, 20, 100, 22)
        n = world.n_sentences
        rng = np.random.default_rng(23)
        ts = {
            (i, j): TabularTranslator(i, j, rng.normal(size=(n, n)))
            for i in range(4) for j in range(4) if i != j
        }
        before = {key: t.theta.tobytes() for key, t in ts.items()}
        cfg = TrainConfig(steps=40, supervised_mix=0.25, update_pivots=update_pivots, seed=5)
        out = multistep_dual_learning(ts, corpus, cfg)
        written = {(0, 1), (1, 0)}
        if update_pivots:
            written |= {key for i in (0, 1) for q in (2, 3) for key in ((i, q), (q, i))}
        assert set(out) == set(ts)
        for key, t in ts.items():
            if key in written:
                assert out[key] is not t and not np.shares_memory(out[key].theta, t.theta)
                assert out[key].theta.tobytes() != before[key]
            else:
                assert out[key] is t
            assert t.theta.tobytes() == before[key]


class TestEvaluate:
    def test_record_structure_and_estimators(self):
        world, corpus, ts = small_setup(seed=15)
        phases = {
            "vanilla": {(0, 1): ts[(0, 1)], (1, 0): ts[(1, 0)]},
            "dual": {(0, 1): ts[(0, 1)], (1, 0): ts[(1, 0)]},
        }
        record = evaluate(phases, world)
        assert ("vanilla", (0, 1)) in record.accuracies
        assert "vanilla->dual" in record.estimator_reports
        rep = record.estimator_reports["vanilla->dual"]
        assert rep.eta_hat == 1.0  # identical systems keep every reconstruction

    def test_low_eta_is_warned_not_fatal(self):
        world, _, _ = small_setup(seed=16)
        from conftest import shifted_translator

        good = {(0, 1): perfect_translator(world, 0, 1), (1, 0): perfect_translator(world, 1, 0)}
        broken = {(0, 1): shifted_translator(world, 0, 1), (1, 0): perfect_translator(world, 1, 0)}
        record = evaluate({"vanilla": good, "dual": broken}, world)
        assert record.warnings
        assert "eta_hat" in record.warnings[0]

    def test_shared_translators_are_scored_once_and_like_copies(self, monkeypatch):
        world, corpus, ts = small_setup(seed=18)
        multi = multistep_dual_learning(ts, corpus, TrainConfig(steps=30, seed=4))
        assert multi[(0, 2)] is ts[(0, 2)]
        phases = {"vanilla": dict(ts), "dual": dict(ts), "multistep": multi}
        copies = {phase: copy.deepcopy(phase_ts) for phase, phase_ts in phases.items()}
        assert copies["vanilla"][(0, 2)] is not copies["dual"][(0, 2)]
        calls = []
        monkeypatch.setattr(
            learner, "accuracy", lambda t, w: calls.append(t) or accuracy(t, w)
        )
        shared = evaluate(phases, world)
        distinct = {id(t) for phase_ts in phases.values() for t in phase_ts.values()}
        assert len(calls) == len(distinct) == 8
        assert shared == evaluate(copies, world)
        assert len(shared.accuracies) == 18

    def test_full_pipeline_record_is_reproducible(self):
        world, corpus, ts = small_setup(seed=17)
        phases = {"vanilla": {(0, 1): ts[(0, 1)], (1, 0): ts[(1, 0)]}}
        r1 = evaluate(phases, world)
        r2 = evaluate(phases, world)
        assert r1.accuracies == r2.accuracies


class TestLoopLogProb:
    def _cycle(self, seed, scale=1.5):
        rng = np.random.default_rng(seed)
        n = 4  # m=2, s=2 world
        t1 = TabularTranslator(1, 2, scale * rng.normal(size=(n, n)))
        t2 = TabularTranslator(2, 0, scale * rng.normal(size=(n, n)))
        t3 = TabularTranslator(0, 1, scale * rng.normal(size=(n, n)))
        return t1, t2, t3

    def test_bound_below_exact_at_random_points(self):
        rng = np.random.default_rng(30)
        for trial in range(50):
            t1, t2, t3 = self._cycle(trial)
            x = int(rng.integers(4))
            exact = loop_log_prob(t1, t2, t3, x)
            bound = loop_log_prob_bound(t1, t2, t3, x)
            assert bound <= exact + 1e-10

    def test_exact_matches_brute_force_sum(self):
        t1, t2, t3 = self._cycle(99)
        x = 2
        total = 0.0
        for y in range(4):
            for z in range(4):
                total += np.exp(log_prob(t1, x, y) + log_prob(t2, y, z) + log_prob(t3, z, x))
        assert loop_log_prob(t1, t2, t3, x) == pytest.approx(np.log(total), abs=1e-12)

    def test_open_chain_rejected(self):
        t1, t2, _ = self._cycle(1)
        bad = TabularTranslator(1, 2, np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            loop_log_prob(t1, t2, bad, 0)
