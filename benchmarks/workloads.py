"""The four benchmark workloads, their inputs and their correctness gates.

Each workload is driven as a closed loop in one single-threaded process:
an op starts when the previous one returns, because every caller of this
library waits for its result. The workload seed given to the runner only
chooses the inputs (the order of run seeds, the parameter draws, the
order of Monte Carlo specs); the library receives the generated inputs.

Every op's output is checked against a golden or exact reference:

- ``train-*``: accuracy and estimator rows must equal, bit for bit, the
  rows ``dualsim train`` wrote into ``golden/<workload>/``. The golden
  files are pinned by sha256; the ``train-default`` hashes are the
  default-config values recorded in ROADMAP.md, so the runner refuses to
  start on any other golden set.
- ``verify``: every formula/enumeration difference must be ``<= 1e-12``,
  which NaN is not.
- ``simulate``: Monte Carlo is bit-deterministic in (spec, n, seed), so
  its outcome counts must equal the golden counts exactly, and its
  estimate must lie within 4 standard errors of exact enumeration.

This module puts ``src/`` of the checkout it lives in first on
``sys.path`` and refuses any other copy of ``dualsim``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

# One thread per workload process; set before numpy loads its BLAS.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"

if not (SRC / "dualsim" / "__init__.py").is_file():
    raise ImportError(f"no dualsim source at {SRC}")
sys.path.insert(0, str(SRC))

import dualsim  # noqa: E402
from dualsim import cli, learner, oracle, outcome_model, theory  # noqa: E402
from dualsim.errors import InfeasibleParamsError  # noqa: E402
from dualsim.oracle import GenerativeSpec  # noqa: E402
from dualsim.outcome_model import (  # noqa: E402
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
)

if not Path(dualsim.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"dualsim was imported from {dualsim.__file__}, not from {SRC}")

VERIFY_TOLERANCE = 1e-12
MC_Z_LIMIT = 4.0


class GoldenError(RuntimeError):
    """A golden file is missing or its sha256 does not match the pinned value."""


def verify_golden_files(directory: Path, pinned: dict[str, str]) -> None:
    for name, digest in pinned.items():
        path = directory / name
        try:
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as e:
            raise GoldenError(f"cannot read golden file {path}: {e}") from e
        if actual != digest:
            raise GoldenError(f"golden file {path} has sha256 {actual}, expected {digest}")


def _fmt(v: Any) -> str:
    """Field formatting of the ``dualsim train`` CSVs: repr floats, '' for None."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


class Workload:
    """One workload: its inputs, its op, the op's gate and its work count.

    ``why`` records why the workload was chosen. ``throughput`` names the
    reported rate of the work that ``work`` counts. ``layers`` maps each
    per-layer metric this workload should move to the op-level metric it
    moves. ``tail_percentile`` is the percentile reported as
    ``op_s_tail``; None where a run holds too few ops for one.
    """

    name: str
    why: str
    throughput: str
    tail_percentile: float | None
    layers: dict[str, str]

    def setup(self, seed: int) -> None:
        """Build the config and inputs for this workload seed, and check goldens."""
        raise NotImplementedError

    def warmup(self) -> None:
        """A discarded, smaller op that touches every code path once."""
        raise NotImplementedError

    def inputs(self) -> list:
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> bool:
        raise NotImplementedError

    def work(self, x) -> int:
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """Input size and other facts reported with every result."""
        return {}


# ---------------------------------------------------------------- training


def _scaled_steps(cfg: dict[str, Any], factor: int) -> dict[str, Any]:
    small = copy.deepcopy(cfg)
    tb = small["train"]["train"]
    for key in ("supervised_steps", "dual_steps", "multistep_steps"):
        tb[key] = max(1, int(tb[key]) // factor)
    return small


def record_rows(run_seed: int, record: learner.ExperimentRecord) -> tuple[list, list]:
    """Accuracy and estimator rows of one run, as ``dualsim train`` writes them
    (without the config-hash column), sorted."""
    acc = [
        (str(run_seed), phase, str(i), str(j), _fmt(rep.p_hat), _fmt(rep.p_expected))
        for (phase, (i, j)), rep in record.accuracies.items()
    ]
    est = [
        (
            str(run_seed), name,
            _fmt(rep.alpha_hat), _fmt(rep.beta_hat), _fmt(rep.gamma_hat),
            _fmt(rep.eta_hat), _fmt(rep.eta_raw),
            _fmt(rep.counts["n_vanilla_fail"]), _fmt(rep.counts["n_vanilla_recon"]),
        )
        for name, rep in record.estimator_reports.items()
    ]
    return sorted(acc), sorted(est)


def read_golden_rows(directory: Path) -> dict[int, tuple[list, list]]:
    """Golden rows per run seed from a ``dualsim train`` output directory."""
    by_seed: dict[int, tuple[list, list]] = {}
    for index, name in enumerate(("accuracy.csv", "estimators.csv")):
        with open(directory / name, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                by_seed.setdefault(int(row[1]), ([], []))[index].append(tuple(row[1:]))
    return {seed: (sorted(acc), sorted(est)) for seed, (acc, est) in by_seed.items()}


class TrainWorkload(Workload):
    """One op is ``cli.run_training_experiment(cfg, s)`` then ``learner.evaluate``
    for one run seed ``s``; the workload seed orders the golden run seeds."""

    throughput = "train_steps_per_s"
    tail_percentile = None
    layers = {
        "synth_lang.generate_world_ms": "op.s_p50",
        "synth_lang.build_corpus_ms": "op.s_p50",
        "learner.train_supervised_s": "op.work_per_s (train_steps_per_s)",
        "learner.dual_learning_s": "op.work_per_s (train_steps_per_s)",
        "learner.multistep_dual_learning_s": "op.work_per_s (train_steps_per_s)",
        "learner.supervised_us_per_step": "op.work_per_s (train_steps_per_s)",
        "learner.dual_us_per_step": "op.work_per_s (train_steps_per_s)",
        "learner.multistep_us_per_step": "op.work_per_s (train_steps_per_s)",
        "learner.calls.train_supervised": "workload shape (exact count)",
        "learner.calls.dual_learning": "workload shape (exact count)",
        "learner.calls.multistep_dual_learning": "workload shape (exact count)",
        "metrics.accuracy_ms": "op.s_p50",
        "metrics.estimators_ms": "op.s_p50",
        "learner.evaluate_s": "op.s_p50",
        "op.unattributed_s": "op.s_p50",
    }

    def __init__(self, name: str, why: str, pinned: dict[str, str], config: str | None):
        self.name = name
        self.why = why
        self.pinned = pinned
        self.config = config

    def setup(self, seed: int) -> None:
        golden_dir = GOLDEN / self.name
        verify_golden_files(golden_dir, self.pinned)
        config = None if self.config is None else str(golden_dir / self.config)
        self.cfg = cli.load_config(config)
        self.golden = read_golden_rows(golden_dir)
        pool = sorted(self.golden)
        if pool != sorted(int(s) for s in self.cfg["train"]["seeds"]):
            raise GoldenError(f"golden rows in {golden_dir} do not cover the configured seeds")
        self.order = [int(s) for s in np.random.default_rng(seed).permutation(pool)]
        self._warm_cfg = _scaled_steps(self.cfg, 100)

    def warmup(self) -> None:
        phases, world, _ = cli.run_training_experiment(self._warm_cfg, self.order[0])
        learner.evaluate(phases, world)

    def inputs(self) -> list[int]:
        return self.order

    def op(self, run_seed: int):
        phases, world, _ = cli.run_training_experiment(self.cfg, run_seed)
        return learner.evaluate(phases, world)

    def check(self, run_seed: int, record) -> bool:
        return record_rows(run_seed, record) == self.golden[run_seed]

    def work(self, run_seed: int) -> int:
        return self.steps_per_op()

    def steps_per_op(self) -> int:
        """supervised_steps x directions + dual_steps x dual pairs + multistep_steps."""
        block = self.cfg["train"]
        k, tb, phases = int(block["world"]["k"]), block["train"], block["phases"]
        steps = int(tb["supervised_steps"]) * k * (k - 1)
        if "dual" in phases or "multistep" in phases:
            pairs = 1 + (2 * (k - 2) if "multistep" in phases else 0)
            steps += int(tb["dual_steps"]) * pairs
        if "multistep" in phases:
            steps += int(tb["multistep_steps"])
        return steps

    def describe(self) -> dict[str, Any]:
        w = self.cfg["train"]["world"]
        return {
            "k": int(w["k"]),
            "n": int(w["m"]) * int(w["s"]),
            "steps_per_op": self.steps_per_op(),
            "run_seed_order": self.order,
        }


# ----------------------------------------------------------- random draws
# The same parameter distributions as ``dualsim verify``.


def draw_dual(rng: np.random.Generator) -> DualOutcomeParams:
    p12 = rng.uniform(0.05, 0.95)
    p21r = rng.uniform(0.05, 0.95)
    low, high = outcome_model.lambda_feasible_range(p12, p21r)
    return DualOutcomeParams(p12, p21r, rng.uniform(low, high), rng.uniform(0.0, 1.0))


def draw_policy(rng: np.random.Generator) -> RedistributionPolicy:
    a, b, _ = rng.dirichlet([1.0, 1.0, 1.0])
    return RedistributionPolicy(a, b, max(0.0, 1.0 - a - b))


def draw_triple(rng: np.random.Generator, with_dependence: bool) -> TripleOutcomeParams:
    """Rejection-sample feasible triple parameters (checked by build_triple_joint)."""
    while True:
        q = rng.uniform(0.05, 0.95, size=3)
        lam1 = rng.uniform(-0.05, 0.05) if with_dependence else 0.0
        lam2 = rng.uniform(-0.05, 0.05) if with_dependence else 0.0
        params = TripleOutcomeParams(q[0], q[1], q[2], lam1, lam2, rng.uniform(0.0, 1.0))
        try:
            outcome_model.build_triple_joint(params)
            return params
        except InfeasibleParamsError:
            continue


# ------------------------------------------------------------------ verify


@dataclass(frozen=True)
class DrawSet:
    dual: GenerativeSpec
    gamma: float
    triple_indep: GenerativeSpec
    triple_dep: GenerativeSpec


class VerifyWorkload(Workload):
    """One op is one ``dualsim verify`` draw-set: one dual draw (predict_dual
    against enumerate_dual, plus the proportional identity) and two triple
    draws, without and with dependence (predict_multistep against
    enumerate_triple)."""

    name = "verify"
    why = (
        "Scalar Python in theory, outcome_model and the enumerators does all the "
        "work, at ~100 us per op. Enumeration would otherwise go unmeasured: it is "
        "negligible inside simulate's ~100 ms ops."
    )
    throughput = "verify_draws_per_s"
    tail_percentile = 99.9
    layers = {
        "outcome_model.joint_builds_per_draw": "op.work_per_s (verify_draws_per_s); exact count",
        "outcome_model.build_joint_us": "op.work_per_s (verify_draws_per_s)",
        "theory.predict_us": "op.work_per_s (verify_draws_per_s)",
        "oracle.enumerate_us": "op.work_per_s (verify_draws_per_s)",
        "op.unattributed_s": "op.s_p50",
    }
    POOL = 2048

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(self.POOL):
            dual = GenerativeSpec(draw_dual(rng), draw_policy(rng))
            gamma = rng.uniform(0.0, 1.0)
            indep = GenerativeSpec(draw_triple(rng, False), draw_policy(rng))
            dep = GenerativeSpec(draw_triple(rng, True), draw_policy(rng))
            self.pool.append(DrawSet(dual, gamma, indep, dep))

    def warmup(self) -> None:
        for x in self.pool[:64]:
            self.op(x)

    def inputs(self) -> list[DrawSet]:
        return self.pool

    def op(self, x: DrawSet) -> tuple[tuple[float, float], ...]:
        d = x.dual
        closed = theory.proportional_dual_accuracy(d.params, x.gamma)
        via_policy = theory.predict_dual(
            d.params, theory.proportional_policy(d.params, x.gamma)
        ).p_d12
        return (
            (theory.predict_dual(d.params, d.policy).p_d12, oracle.enumerate_dual(d).accuracy),
            (closed, via_policy),
            (
                theory.predict_multistep(x.triple_indep.params, x.triple_indep.policy).q_m12,
                oracle.enumerate_triple(x.triple_indep).accuracy,
            ),
            (
                theory.predict_multistep(x.triple_dep.params, x.triple_dep.policy).q_m12,
                oracle.enumerate_triple(x.triple_dep).accuracy,
            ),
        )

    def check(self, x: DrawSet, out) -> bool:
        # written so that a NaN difference fails
        return all(abs(a - b) <= VERIFY_TOLERANCE for a, b in out)

    def work(self, x: DrawSet) -> int:
        return 1

    def describe(self) -> dict[str, Any]:
        return {"pool_draw_sets": self.POOL, "tolerance": VERIFY_TOLERANCE}


# ---------------------------------------------------------------- simulate

SIMULATE_FIELDS = (
    "kind", "p12", "p21r", "lambda", "q12", "q23", "q31", "lambda1", "lambda2", "delta",
    "alpha", "beta", "gamma", "n", "seed",
    "case11", "case12", "case2_corrected", "case2_aligned", "case2_unreconstructed",
)


@dataclass(frozen=True)
class McCase:
    spec: GenerativeSpec
    n: int
    seed: int
    golden: oracle.OutcomeCounts
    exact: float


def spec_from_row(row: dict[str, str]) -> GenerativeSpec:
    f = {k: float(v) for k, v in row.items() if k not in ("kind", "n", "seed") and v != ""}
    policy = RedistributionPolicy(f["alpha"], f["beta"], f["gamma"])
    if row["kind"] == "dual":
        return GenerativeSpec(DualOutcomeParams(f["p12"], f["p21r"], f["lambda"], f["delta"]), policy)
    params = TripleOutcomeParams(
        f["q12"], f["q23"], f["q31"], f["lambda1"], f["lambda2"], f["delta"]
    )
    return GenerativeSpec(params, policy)


def exact_accuracy(spec: GenerativeSpec) -> float:
    enumerate_fn = oracle.enumerate_dual if spec.kind == "dual" else oracle.enumerate_triple
    return enumerate_fn(spec).accuracy


class SimulateWorkload(Workload):
    """One op is one ``oracle.monte_carlo(spec, n, seed)`` call with n >= 1M;
    specs alternate between dual and triple-with-dependence."""

    name = "simulate"
    why = (
        "The vectorised counter RNG and the classification step dominate; "
        "enumeration is negligible and the learner is idle."
    )
    throughput = "mc_samples_per_s"
    tail_percentile = 90.0
    layers = {
        "oracle.monte_carlo_ms": "op.work_per_s (mc_samples_per_s)",
        "oracle.mc_ns_per_sample": "op.work_per_s (mc_samples_per_s)",
        "oracle.counter_uniforms_share": "op.work_per_s (mc_samples_per_s)",
        "oracle.counter_uniforms_calls": "op.work_per_s (mc_samples_per_s); exact count",
        "oracle.enumerate_us": "~0 effect here",
        "op.unattributed_s": "op.s_p50",
    }
    PINNED = {"simulate.csv": "6cb75710ac543c61969a26108fdeba0d1b76453e94386d4956ddece70280b62c"}

    def setup(self, seed: int) -> None:
        golden_dir = GOLDEN / self.name
        verify_golden_files(golden_dir, self.PINNED)
        cases: dict[str, list[McCase]] = {"dual": [], "triple": []}
        with open(golden_dir / "simulate.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                spec = spec_from_row(row)
                counts = oracle.OutcomeCounts(
                    *(int(row[k]) for k in SIMULATE_FIELDS[-5:])
                )
                cases[spec.kind].append(
                    McCase(spec, int(row["n"]), int(row["seed"]), counts, exact_accuracy(spec))
                )
        rng = np.random.default_rng(seed)
        dual = [cases["dual"][i] for i in rng.permutation(len(cases["dual"]))]
        triple = [cases["triple"][i] for i in rng.permutation(len(cases["triple"]))]
        self.order = [c for pair in zip(dual, triple) for c in pair]

    def warmup(self) -> None:
        first = self.order[0]
        oracle.monte_carlo(first.spec, 1 << 19, first.seed)

    def inputs(self) -> list[McCase]:
        return self.order

    def op(self, x: McCase) -> oracle.OracleResult:
        return oracle.monte_carlo(x.spec, x.n, x.seed)

    def check(self, x: McCase, out: oracle.OracleResult) -> bool:
        # |z| <= MC_Z_LIMIT, written so that NaN fails and zero stderr needs equality
        z_ok = abs(out.accuracy - x.exact) <= MC_Z_LIMIT * out.stderr
        return out.counts == x.golden and z_ok

    def work(self, x: McCase) -> int:
        return x.n

    def describe(self) -> dict[str, Any]:
        return {
            "pool_specs": len(self.order),
            "samples_per_op": sorted({c.n for c in self.order}),
            "z_limit": MC_Z_LIMIT,
        }


# ---------------------------------------------------------------- registry

DEFAULT_PINNED = {
    "accuracy.csv": "2cacc93ba19f7132fedf355efecd61269f54892fdf75b7158d9dd1a6e2dca6a2",
    "estimators.csv": "3b354a770156ee149d581cfd23b2ad9f3b4453910ae2fa2f01d47b6518cabe14",
    "summary.csv": "df522fc4c0707f02741676b0373e01306a34e8f1d36a37c56becba83365e90ee",
}
WIDE_PINNED = {
    "config.json": "ae5074510d1be236978de732b37e3e6e503872540c2fc7a989ef7f7ad63e4615",
    "accuracy.csv": "671879d6e1ec9a57f38625bf58ca3a7713b72f23301365b122f9afe111d7fb56",
    "estimators.csv": "24466167873a658c97bdf6f74b156d0e606987fe3c8112a02f2a38e25792ab85",
    "summary.csv": "fe720595f97fa1530388b3ab4380ed32577572d5c9c632411ad4ea9b5d4375d6",
}


def make_workloads() -> dict[str, Workload]:
    return {
        "train-default": TrainWorkload(
            "train-default",
            "What `dualsim train` users and acceptance criterion 7 wait on (k=3, n=200, "
            "6 directions). The learner does ~99% of the work and the oracles none. The "
            "whole translator set (~2 MB) fits in L2, so per-step cost is mostly Python "
            "dispatch; a lockstep or batching change should show here.",
            DEFAULT_PINNED,
            None,
        ),
        "train-wide": TrainWorkload(
            "train-wide",
            "The same layer used differently: k=4, n=600, skew 1.0, pivot translators "
            "written during multistep, reconstruction_batch 2, supervised_mix 0.25. Row "
            "arithmetic dominates, each phase's working set (~35 MB) exceeds L2 and "
            "evaluation costs 10x more per call. A change that wins on train-default by "
            "stacking arrays, or by assuming frozen pivots, shows its cost here.",
            WIDE_PINNED,
            "config.json",
        ),
        "verify": VerifyWorkload(),
        "simulate": SimulateWorkload(),
    }
