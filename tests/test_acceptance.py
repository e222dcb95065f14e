"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import hashlib
import time

import numpy as np

from conftest import (
    log_prob,
    loop_log_prob,
    loop_log_prob_bound,
    random_dual_params,
    random_policy,
    random_triple_params,
)
from dualsim.cli import DEFAULT_CONFIG, main
from dualsim.learner import _supervised_update
from dualsim.metrics import estimators_from_counts
from dualsim.oracle import (
    GenerativeSpec,
    enumerate_dual,
    enumerate_triple,
    errata_report,
    monte_carlo,
)
from dualsim.outcome_model import DualOutcomeParams, RedistributionPolicy, TripleOutcomeParams
from dualsim.theory import (
    dual_improvement,
    multistep_condition,
    predict_dual,
    predict_multistep,
    proportional_dual_accuracy,
    proportional_policy,
)
from dualsim.translator import TabularTranslator, log_prob_grad_row


def check(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def nan_max(values):
    """Largest value, or NaN if any value is NaN (builtin max can drop a NaN)."""
    return float(np.max(values))


def test_criterion_1_dual_formula_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    diffs = []
    for _ in range(1000):
        params = random_dual_params(rng)
        policy = random_policy(rng)
        pred = predict_dual(params, policy).p_d12
        exact = enumerate_dual(GenerativeSpec(params, policy)).accuracy
        diffs.append(abs(pred - exact))
    worst = nan_max(diffs)
    elapsed = time.perf_counter() - start
    check(
        1,
        "dual formula vs enumeration",
        worst <= 1e-12 and elapsed < 1.0,
        f"max|diff|={worst:.2e} over 1000 draws in {elapsed:.2f}s",
    )


def test_criterion_2_proportional_closed_form_identity():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    diffs = []
    for _ in range(1000):
        params = random_dual_params(rng)
        gamma = rng.uniform(0.0, 1.0)
        closed = proportional_dual_accuracy(params, gamma)
        via_policy = predict_dual(params, proportional_policy(params, gamma)).p_d12
        diffs.append(abs(closed - via_policy))
    worst = nan_max(diffs)
    elapsed = time.perf_counter() - start
    check(
        2,
        "proportional closed form identity",
        worst <= 1e-12 and elapsed < 1.0,
        f"max|diff|={worst:.2e} over 1000 draws in {elapsed:.2f}s",
    )


def test_criterion_3_triple_formula_oracle_equivalence_and_errata():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    diffs = []
    for _ in range(1000):
        params = random_triple_params(rng, with_dependence=False)
        policy = random_policy(rng)
        pred = predict_multistep(params, policy).q_m12
        exact = enumerate_triple(GenerativeSpec(params, policy)).accuracy
        diffs.append(abs(pred - exact))
    worst = nan_max(diffs)
    elapsed = time.perf_counter() - start

    lam1 = 0.05
    records = {r.name: r for r in errata_report(TripleOutcomeParams(0.5, 0.5, 0.5, lam1, 0.0, 0.1))}
    errata_dev = abs(records["cell(1,0,0)"].abs_diff - 2 * lam1)
    check(
        3,
        "triple formula vs enumeration + errata",
        worst <= 1e-12 and errata_dev <= 1e-12 and elapsed < 1.0,
        f"max|diff|={worst:.2e}, |errata-2*lam1|={errata_dev:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_monte_carlo_consistency():
    rng = np.random.default_rng(104)
    excursions = 0
    n = 1_000_000
    for trial in range(20):
        if trial % 2 == 0:
            params = random_dual_params(rng)
            policy = random_policy(rng)
            spec = GenerativeSpec(params, policy)
            exact = enumerate_dual(spec).accuracy
        else:
            params = random_triple_params(rng, with_dependence=(trial % 4 == 3))
            policy = random_policy(rng)
            spec = GenerativeSpec(params, policy)
            exact = enumerate_triple(spec).accuracy
        res = monte_carlo(spec, n, seed=500 + trial)
        if not abs(res.accuracy - exact) <= 4 * max(res.stderr, 1e-9):
            excursions += 1
    check(
        4,
        "monte carlo within 4 stderr",
        excursions <= 1,
        f"{excursions} excursions in 20 specs at n={n}",
    )


def test_criterion_5_improvement_condition_grids():
    dual_ok = True
    for p21r in np.linspace(0.005, 0.995, 100):
        for delta in np.linspace(0.005, 0.995, 100):
            imp = dual_improvement(DualOutcomeParams(0.5, p21r, 0.0, delta), 0.0)
            if (imp > 0) != (p21r > delta / (1 + delta)):
                dual_ok = False
    multi_ok = True
    for t in np.linspace(0.005, 0.995, 100):
        for delta in np.linspace(0.005, 0.995, 100):
            if multistep_condition(t, t, delta) != (t > delta / (delta + 0.5)):
                multi_ok = False
    check(
        5,
        "improvement condition sign grids",
        dual_ok and multi_ok,
        "two 100x100 grids agree",
    )


def test_criterion_6_gradients_match_finite_differences():
    rng = np.random.default_rng(106)
    checked = 0
    ok = True

    def fd_row(f, theta, row, h=1e-5):
        g = np.zeros(theta.shape[1])
        for col in range(theta.shape[1]):
            tp = theta.copy()
            tp[row, col] += h
            tm = theta.copy()
            tm[row, col] -= h
            g[col] = (f(tp) - f(tm)) / (2 * h)
        return g

    # sampled single-pair updates (reconstruction and pivot steps)
    for _ in range(12):
        n = int(rng.integers(3, 9))
        theta = rng.normal(size=(n, n))
        x, y = int(rng.integers(n)), int(rng.integers(n))
        analytic = log_prob_grad_row(theta[x], y)
        fd = fd_row(lambda th: log_prob(TabularTranslator(0, 1, th), x, y), theta, x)
        ok &= bool(np.allclose(analytic, fd, rtol=1e-6, atol=1e-9))
        checked += 1

    # supervised minibatch updates
    for trial in range(8):
        n = 6
        theta0 = rng.normal(size=(n, n))
        pairs = rng.integers(0, n, size=(10, 2))
        lr, batch, seed = 0.3, 4, 900 + trial
        theta = theta0.copy()
        _supervised_update(theta, pairs, np.random.default_rng(seed), batch, lr)
        idx = np.random.default_rng(seed).integers(0, len(pairs), size=batch)
        xs, ys = pairs[idx, 0], pairs[idx, 1]

        def batch_mean(th):
            z = th - th.max(axis=1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(np.mean(lp[xs, ys]))

        expected = np.zeros_like(theta0)
        for row in set(xs.tolist()):
            expected[row] = fd_row(batch_mean, theta0, row)
        ok &= bool(np.allclose(theta - theta0, lr * expected, rtol=1e-6, atol=1e-9))
        checked += 1

    check(6, "update directions vs finite differences", ok and checked >= 20, f"{checked} configs")


# sha256 of the three CSVs that `dualsim train` writes on the default config
DEFAULT_TRAIN_DIGESTS = {
    "accuracy.csv": "2cacc93ba19f7132fedf355efecd61269f54892fdf75b7158d9dd1a6e2dca6a2",
    "estimators.csv": "3b354a770156ee149d581cfd23b2ad9f3b4453910ae2fa2f01d47b6518cabe14",
    "summary.csv": "df522fc4c0707f02741676b0373e01306a34e8f1d36a37c56becba83365e90ee",
}


def test_criterion_7_end_to_end_learning_ordering(tmp_path):
    start = time.perf_counter()
    assert main(["train", "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start
    moved = sorted(
        name for name, digest in DEFAULT_TRAIN_DIGESTS.items()
        if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != digest
    )
    p_hat = {"vanilla": [], "dual": [], "multistep": []}
    for line in (tmp_path / "accuracy.csv").read_text(encoding="utf-8").splitlines()[1:]:
        _, _seed, phase, i, j, value, _ = line.split(",")
        if (i, j) == ("0", "1"):
            p_hat[phase].append(float(value))
    seeds = DEFAULT_CONFIG["train"]["seeds"]
    v, d, m = (float(np.mean(p_hat[phase])) for phase in ("vanilla", "dual", "multistep"))
    check(
        7,
        "end-to-end phase ordering",
        d >= v + 0.02 and m >= d + 0.01 and elapsed < 300.0 and not moved
        and all(len(vals) == len(seeds) for vals in p_hat.values()),
        f"vanilla={v:.4f} dual={d:.4f} multistep={m:.4f} in {elapsed:.0f}s over {len(seeds)} seeds"
        f"; outputs off their pinned sha256: {moved or 'none'}",
    )


def test_criterion_8_estimator_recovery():
    alpha, beta, gamma = 0.30, 0.28, 0.42
    spec = GenerativeSpec(
        DualOutcomeParams(0.65, 0.73, 0.0, 0.1), RedistributionPolicy(alpha, beta, gamma)
    )
    res = monte_carlo(spec, 100_000, seed=42)
    rep = estimators_from_counts(res.counts)
    n_fail = rep.counts["n_vanilla_fail"]
    se_alpha = np.sqrt(alpha * (1 - alpha) / n_fail)
    se_gamma = np.sqrt(gamma * (1 - gamma) / n_fail)
    ok = abs(rep.alpha_hat - alpha) <= 3 * se_alpha and abs(rep.gamma_hat - gamma) <= 3 * se_gamma
    check(
        8,
        "estimator recovery",
        ok,
        f"alpha_hat={rep.alpha_hat:.4f} (3se={3 * se_alpha:.4f}), "
        f"gamma_hat={rep.gamma_hat:.4f} (3se={3 * se_gamma:.4f}), n_fail={n_fail}",
    )


def test_criterion_9_loop_bound_never_exceeds_exact():
    rng = np.random.default_rng(109)
    n = 4  # fully enumerable world: 2 clusters of 2 sentences, 3 languages
    gaps = []
    for _ in range(50):
        t1 = TabularTranslator(1, 2, 1.5 * rng.normal(size=(n, n)))
        t2 = TabularTranslator(2, 0, 1.5 * rng.normal(size=(n, n)))
        t3 = TabularTranslator(0, 1, 1.5 * rng.normal(size=(n, n)))
        x = int(rng.integers(n))
        gaps.append(loop_log_prob_bound(t1, t2, t3, x) - loop_log_prob(t1, t2, t3, x))
    worst = nan_max(gaps)
    check(
        9,
        "sampled-path lower bound",
        worst <= 1e-10,
        f"max(bound - exact)={worst:.2e} over 50 random parameter points",
    )
