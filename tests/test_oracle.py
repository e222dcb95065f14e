"""Enumeration and Monte Carlo oracles, counter RNG, errata report."""

import numpy as np
import pytest

from conftest import random_dual_params, random_policy, random_triple_params
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

    def test_text_rendering(self):
        text = errata_to_text(errata_report(TripleOutcomeParams(0.5, 0.5, 0.5, 0.05, 0.0, 0.1)))
        lines = text.strip().splitlines()
        assert lines[0].startswith("formula")
        assert len(lines) == 4
        assert any(ln.startswith("cell(1,0,0)") for ln in lines)
