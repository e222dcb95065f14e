"""Enumeration and Monte Carlo oracles, counter RNG, errata report."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    expr_counter_uniforms,
    random_dual_params,
    random_policy,
    random_triple_params,
)
from dualsim import oracle
from dualsim.errors import ValidationError
from dualsim.oracle import (
    GenerativeSpec,
    counter_uniforms,
    enumerate_dual,
    enumerate_triple,
    errata_report,
    errata_to_text,
    monte_carlo,
)
from dualsim.outcome_model import (
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
    build_triple_joint,
)
from dualsim.theory import predict_dual, predict_multistep


class TestEnumerateDual:
    def test_agrees_with_formula_on_random_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            params = random_dual_params(rng)
            policy = random_policy(rng)
            pred = predict_dual(params, policy)
            res = enumerate_dual(GenerativeSpec(params, policy))
            assert res.accuracy == pytest.approx(pred.p_d12, abs=1e-12)
            assert res.case_masses[0] == pytest.approx(pred.p_case11, abs=1e-12)
            assert res.case_masses[1] == pytest.approx(pred.p_case12, abs=1e-12)
            assert res.case_masses[2] == pytest.approx(pred.p_case2, abs=1e-12)
            assert sum(res.case_masses) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_regression_value(self):
        spec = GenerativeSpec(
            DualOutcomeParams(0.6, 0.7, 0.05, 0.1), RedistributionPolicy(0.3, 0.28, 0.42)
        )
        assert enumerate_dual(spec).accuracy == pytest.approx(0.6239, abs=1e-12)

    def test_no_redistribution_keeps_case11(self):
        params = DualOutcomeParams(0.55, 0.8, 0.03, 0.2)
        spec = GenerativeSpec(params, RedistributionPolicy(0.0, 0.0, 1.0))
        assert enumerate_dual(spec).accuracy == pytest.approx(
            0.55 * 0.8 + 0.03, abs=1e-12
        )

    def test_kind_mismatch(self):
        spec = GenerativeSpec(
            TripleOutcomeParams(0.5, 0.5, 0.5, 0.0, 0.0, 0.0),
            RedistributionPolicy(1.0, 0.0, 0.0),
        )
        with pytest.raises(ValidationError):
            enumerate_dual(spec)


class TestEnumerateTriple:
    def test_agrees_with_formula_on_random_draws(self):
        rng = np.random.default_rng(22)
        for with_dep in (False, True):
            for _ in range(300):
                params = random_triple_params(rng, with_dependence=with_dep)
                policy = random_policy(rng)
                pred = predict_multistep(params, policy)
                res = enumerate_triple(GenerativeSpec(params, policy))
                assert res.accuracy == pytest.approx(pred.q_m12, abs=1e-12)
                assert res.case_masses[0] == pytest.approx(pred.p_case11, abs=1e-12)
                assert res.case_masses[1] == pytest.approx(pred.p_case12, abs=1e-12)

    def test_frozen_regression_value(self):
        spec = GenerativeSpec(
            TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.1),
            RedistributionPolicy(0.3, 0.28, 0.42),
        )
        assert enumerate_triple(spec).accuracy == pytest.approx(0.53244, abs=1e-12)

    def test_full_correction_no_alignment(self):
        spec = GenerativeSpec(
            TripleOutcomeParams(0.3, 0.4, 0.5, 0.0, 0.0, 0.0),
            RedistributionPolicy(1.0, 0.0, 0.0),
        )
        assert enumerate_triple(spec).accuracy == pytest.approx(1.0, abs=1e-12)


class TestCounterUniforms:
    def test_range_and_determinism(self):
        idx = np.arange(10_000, dtype=np.uint64)
        u1 = counter_uniforms(123, idx)
        u2 = counter_uniforms(123, idx)
        u3 = counter_uniforms(124, idx)
        assert np.all((0.0 <= u1) & (u1 < 1.0))
        assert np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)
        assert abs(u1.mean() - 0.5) < 0.02

    def test_index_slicing_matches_full_stream(self):
        idx = np.arange(1000, dtype=np.uint64)
        full = counter_uniforms(9, idx)
        parts = np.concatenate([counter_uniforms(9, idx[:300]), counter_uniforms(9, idx[300:])])
        assert np.array_equal(full, parts)

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        counters=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.integers(min_value=2**64 - 2**20, max_value=2**64 - 1),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_expression_reference(self, seed, counters):
        """Bit for bit the one-expression-at-a-time hash in conftest, with the
        counters array left as it was, including counters that wrap."""
        c = np.array(counters, dtype=np.uint64)
        before = c.copy()
        u = counter_uniforms(seed, c)
        assert np.array_equal(c, before)
        assert u.dtype == np.float64
        assert u.tobytes() == expr_counter_uniforms(seed, before).tobytes()

    def test_uniformity_chi_square(self):
        # 100 bins over 1e6 draws: chi-square df=99, mean 99, sd ~14;
        # a mixing bug would blow way past the 99.99th percentile bound
        n, bins = 1_000_000, 100
        u = counter_uniforms(7, np.arange(n, dtype=np.uint64))
        counts = np.bincount((u * bins).astype(int), minlength=bins)
        expected = n / bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 160.0, chi2

    def test_no_serial_correlation(self):
        u = counter_uniforms(11, np.arange(200_000, dtype=np.uint64))
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.01


class TestMonteCarlo:
    def test_deterministic_rerun(self):
        spec = GenerativeSpec(
            DualOutcomeParams(0.6, 0.7, 0.05, 0.1), RedistributionPolicy(0.3, 0.28, 0.42)
        )
        r1 = monte_carlo(spec, 200_000, seed=5)
        r2 = monte_carlo(spec, 200_000, seed=5)
        assert r1.accuracy == r2.accuracy
        assert r1.counts == r2.counts

    def test_chunking_does_not_change_results(self, monkeypatch):
        spec = GenerativeSpec(
            DualOutcomeParams(0.6, 0.7, 0.05, 0.1), RedistributionPolicy(0.3, 0.28, 0.42)
        )
        base = monte_carlo(spec, 50_000, seed=3)
        monkeypatch.setattr(oracle, "_CHUNK", 777)
        chunked = monte_carlo(spec, 50_000, seed=3)
        assert base.accuracy == chunked.accuracy
        assert base.counts == chunked.counts

    @pytest.mark.parametrize(
        "params",
        [DualOutcomeParams(0.6, 0.7, 0.05, 0.1), TripleOutcomeParams(0.6, 0.7, 0.8, 0.02, 0.01, 0.1)],
        ids=["dual", "triple"],
    )
    def test_chunk_boundaries_match_one_chunk(self, monkeypatch, params):
        spec = GenerativeSpec(params, RedistributionPolicy(0.3, 0.28, 0.42))
        c = oracle._CHUNK
        for n in (c - 1, c, c + 1, 3 * c + 7):
            chunked = monte_carlo(spec, n, seed=11)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_CHUNK", n)
                whole = monte_carlo(spec, n, seed=11)
            assert chunked.counts == whole.counts, n
            assert chunked.accuracy == whole.accuracy, n

    def test_working_set_does_not_grow_with_n(self):
        spec = GenerativeSpec(
            TripleOutcomeParams(0.6, 0.7, 0.8, 0.02, 0.01, 0.1),
            RedistributionPolicy(0.3, 0.28, 0.42),
        )
        monte_carlo(spec, 1000, seed=1)  # first-call allocations are not working set

        def peak(n):
            tracemalloc.start()
            try:
                monte_carlo(spec, n, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(2_000_000)
        assert large < 1 * 2**20
        assert large <= 1.1 * small

    def test_degenerate_spec_exact(self):
        spec = GenerativeSpec(
            DualOutcomeParams(1.0, 1.0, 0.0, 0.0), RedistributionPolicy(1.0, 0.0, 0.0)
        )
        for seed in (0, 1, 99):
            assert monte_carlo(spec, 10_000, seed).accuracy == 1.0

    def test_within_four_stderr_of_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            params = random_dual_params(rng)
            policy = random_policy(rng)
            spec = GenerativeSpec(params, policy)
            exact = enumerate_dual(spec).accuracy
            res = monte_carlo(spec, 1_000_000, seed=17)
            assert abs(res.accuracy - exact) <= 4 * max(res.stderr, 1e-9)

    def test_stderr_halves_when_n_quadruples(self):
        spec = GenerativeSpec(
            DualOutcomeParams(0.6, 0.7, 0.05, 0.1), RedistributionPolicy(0.3, 0.28, 0.42)
        )
        exact = enumerate_dual(spec).accuracy
        ns = [40_000, 160_000, 640_000]
        errs = []
        for n in ns:
            res = monte_carlo(spec, n, seed=8)
            assert abs(res.accuracy - exact) <= 4 * res.stderr
            errs.append(res.stderr)
        assert errs[1] == pytest.approx(errs[0] / 2, rel=0.05)
        assert errs[2] == pytest.approx(errs[1] / 2, rel=0.05)

    def test_triple_sampling(self):
        spec = GenerativeSpec(
            TripleOutcomeParams(0.6, 0.7, 0.8, 0.02, 0.01, 0.1),
            RedistributionPolicy(0.3, 0.28, 0.42),
        )
        exact = enumerate_triple(spec).accuracy
        res = monte_carlo(spec, 500_000, seed=2)
        assert abs(res.accuracy - exact) <= 4 * res.stderr

    def test_rejects_zero_samples(self):
        spec = GenerativeSpec(
            DualOutcomeParams(0.5, 0.5, 0.0, 0.0), RedistributionPolicy(1.0, 0.0, 0.0)
        )
        with pytest.raises(ValidationError):
            monte_carlo(spec, 0, seed=1)
        # past (2**64 - 1) // 3 samples the uint64 counters wrap; 2**64 ran on
        # for some 10**15 chunks; True is no count
        for n in (2**64, (2**64 - 1) // 3 + 1, 10**400, True):
            with pytest.raises(ValidationError, match=r"^n must be an integer in \[1, "):
                monte_carlo(spec, n, seed=1)

    # -1 would alias seed 2**64 - 1 and 2**64 seed 0, True would run as seed
    # 1, and a float or str would end in a bare TypeError inside the hash
    @pytest.mark.parametrize(
        "seed", [-1, 2**64, True, 1.5, "1"], ids=["negative", "2**64", "bool", "float", "str"]
    )
    def test_rejects_a_seed_that_is_not_a_nonnegative_int(self, seed):
        spec = GenerativeSpec(
            DualOutcomeParams(0.5, 0.5, 0.0, 0.0), RedistributionPolicy(1.0, 0.0, 0.0)
        )
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            monte_carlo(spec, 10, seed)


class TestValueTypes:
    def test_spec_pool_memory(self):
        """A pool of 2048 triple specs, the verify benchmark's pool size, with
        numpy scalar fields as a Generator draws them; the value types carry
        no per-instance __dict__."""
        rng = np.random.default_rng(0)
        values = [tuple(rng.uniform(0.0, 0.01, size=6)) for _ in range(2048)]
        tracemalloc.start()
        try:
            pool = [
                GenerativeSpec(
                    TripleOutcomeParams(0.5 + a, 0.5 + b, 0.5 + c, d, e, f),
                    RedistributionPolicy(0.25, 0.25, 0.5),
                )
                for a, b, c, d, e, f in values
            ]
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(pool) == 2048
        # 2048 specs hold 530 KiB with slotted value types (Python 3.11,
        # numpy 2.4) and 786 KiB with a __dict__ per instance
        assert used < 600 * 2**10, used


class TestErrataReport:
    def test_all_match_without_dependence(self):
        records = errata_report(TripleOutcomeParams(0.6, 0.7, 0.8, 0.0, 0.0, 0.1))
        assert all(r.abs_diff <= 1e-12 for r in records)

    def test_pairwise_dependence_shifts_one_cell(self):
        lam1 = 0.05
        records = {
            r.name: r
            for r in errata_report(TripleOutcomeParams(0.5, 0.5, 0.5, lam1, 0.0, 0.1))
        }
        assert records["cell(1,0,0)"].abs_diff == pytest.approx(2 * lam1, abs=1e-12)
        assert records["case11"].abs_diff == pytest.approx(0.1 * 2 * lam1, abs=1e-12)

    def test_triple_dependence_leaves_cell_alone(self):
        records = {
            r.name: r
            for r in errata_report(TripleOutcomeParams(0.5, 0.5, 0.5, 0.0, 0.02, 0.1))
        }
        assert records["cell(1,0,0)"].abs_diff <= 1e-12

    def test_shortcuts_follow_their_docstring_formulas(self):
        # lam2 != 0, so a flipped sign on any lam2 term shows
        params = TripleOutcomeParams(0.6, 0.7, 0.8, lam1=0.01, lam2=0.004, delta=0.2)
        q1, q2, q3, l1, l2, d = 0.6, 0.7, 0.8, 0.01, 0.004, 0.2
        cells = build_triple_joint(params)
        cell_100 = q1 * (1 - q2) * (1 - q3) + l2
        records = {r.name: r for r in errata_report(params)}
        assert records["cell(1,0,0)"].shortcut == pytest.approx(cell_100, rel=0, abs=1e-15)
        assert records["case11"].shortcut == pytest.approx(
            cells[0b111] + d * cell_100, rel=0, abs=1e-15
        )
        assert records["case12"].shortcut == pytest.approx(
            d * (1 - q1) * (1 - q2 * q3 - l1 + l2), rel=0, abs=1e-15
        )
        assert records["cell(1,0,0)"].consistent == cells[0b100]

    def test_text_rendering(self):
        text = errata_to_text(errata_report(TripleOutcomeParams(0.5, 0.5, 0.5, 0.05, 0.0, 0.1)))
        lines = text.strip().splitlines()
        assert lines[0].startswith("formula")
        assert len(lines) == 4
        assert any(ln.startswith("cell(1,0,0)") for ln in lines)
