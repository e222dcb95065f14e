"""Command-line front door: theory tables, verification suites, Monte Carlo
simulation, training experiments, and report re-summarization.

One JSON config document drives a run; every field has a default (listed
in DEFAULT_CONFIG) and unknown fields are rejected so a typo like
"lamda1" cannot silently fall back to a default. Each value must have the
type of its default, checked when the config is loaded and again once the
command-line flags are applied; every seed is a nonnegative integer below
2**64 (Monte Carlo hashes a 64-bit seed), and a train knob's range is
checked at load with the rule of its TrainConfig field, so every command
rejects one that no phase could train with. All randomness flows from
declared seeds, so every command is deterministic given its config.

Exit codes: 0 success, 1 verification failure, 2 invalid input.

CSV output: ',' field separator, '.' decimal separator, mandatory header
row, LF line endings, rows sorted before writing; byte-stable across
reruns of the same config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import (COUNT, DIRECTION, FINITE, PROBABILITY, SCALAR_RULES, SEED, DualSimError,
                     Rule, ValidationError)
from .learner import (
    PHASE_ORDER,
    PRIMARY_PAIR,
    consecutive_phases,
    dual_learning,
    evaluate,
    multistep_dual_learning,
    train_supervised,
)
from .metrics import estimators_from_counts
from .oracle import (
    GenerativeSpec,
    enumerate_dual,
    enumerate_triple,
    errata_report,
    errata_to_text,
    monte_carlo,
)
from .outcome_model import (
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
    lambda_feasible_range,
    lambda_loose_range,
    random_dual_params,
    random_policy,
    random_triple_params,
)
from .synth_lang import build_corpus, generate_world
from .theory import (
    m_factor,
    multistep_condition,
    predict_dual,
    predict_multistep,
    proportional_dual_accuracy,
    proportional_policy,
)
from .translator import TabularTranslator, TrainConfig

# the outcome model that theory and simulate both default to
_DEFAULT_MODEL = {
    "kind": "dual",
    "p12": 0.65,
    "p21r": 0.73,
    "lambda": 0.0,
    "q12": 0.6,
    "q23": 0.7,
    "q31": 0.8,
    "lambda1": 0.0,
    "lambda2": 0.0,
    "delta": 0.1,  # theory also takes a list: one row per value
}

DEFAULT_CONFIG: dict[str, Any] = {
    "theory": {
        **_DEFAULT_MODEL,
        "gamma": 0.42,
        "policy": None,  # explicit {alpha, beta, gamma} overrides gamma
    },
    "verify": {
        "draws": 1000,
        "seed": 0,
    },
    "simulate": {
        **_DEFAULT_MODEL,
        "n": 100000,
        "seed": 1,
        "policy": {"alpha": 0.30, "beta": 0.28, "gamma": 0.42},
    },
    "train": {
        "world": {"k": 3, "m": 50, "s": 4, "skew": 0.0, "seed": 0},
        "corpus": {
            "parallel_per_pair": 200,
            "monolingual_per_language": 2000,
            "within_cluster": "mu",
        },
        "train": {
            "supervised_steps": 3000,
            "dual_steps": 6000,
            "multistep_steps": 6000,
            # every other knob defaults as TrainConfig does; each phase sets steps and seed
            **{f.name: f.default for f in dataclasses.fields(TrainConfig)
               if f.name not in ("steps", "seed")},
        },
        "seeds": [1, 2, 3, 4, 5],
        "phases": ["vanilla", "dual", "multistep"],
    },
    "report": {},
}

ACCURACY_HEADER = ["config_hash", "seed", "phase", "src", "dst", "p_hat", "p_expected"]
_PHASE_RANK = {ph: idx for idx, ph in enumerate(PHASE_ORDER)}
# the one model the errata report runs at: lambda1 != 0 is where the shortcut
# formulas part from the consistent joint table
_ERRATA_PARAMS = TripleOutcomeParams(0.5, 0.5, 0.5, lam1=0.05, lam2=0.0, delta=0.1)
# verify passes when every closed form agrees with exact enumeration this closely
_TOLERANCE = 1e-12
# the rule of each train.train knob: its TrainConfig field's, steps' for each phase's steps
_TRAIN_RULES = {f.name: f.metadata["rule"] for f in dataclasses.fields(TrainConfig)}


def _leaf_type(default: Any, path: str) -> Rule:
    """The rule of a config leaf: a train knob's TrainConfig rule, else from its default."""
    section, _, leaf = path.rpartition(".")
    if section == "train.train":
        return _TRAIN_RULES["steps" if leaf.endswith("_steps") else leaf]
    if path == "theory.delta":
        return Rule(
            lambda v: FINITE.ok(v) or (isinstance(v, list) and v and all(map(FINITE.ok, v))),
            "a finite number or a nonempty list of finite numbers",
        )
    if default is None:
        return Rule(lambda v: v is None or isinstance(v, dict), "null or an object")
    if isinstance(default, list):
        item = _leaf_type(default[0], path)
        return Rule(lambda v: isinstance(v, list) and all(map(item.ok, v)),
                    f"a list of items each {item.what}")
    if path.endswith(("seed", "seeds")):
        return SEED
    return SCALAR_RULES[type(default)]


def _merge_config(defaults: Any, user: Any, path: str) -> Any:
    """Overlay user config on defaults, rejecting unknown keys and leaves
    whose type does not match the default's (an int may stand for a float)."""
    if not isinstance(defaults, dict):
        _leaf_type(defaults, path).require(user, f"config field {path}")
        return user
    if not isinstance(user, dict):
        raise ValidationError(f"config field {path or '<root>'} must be an object")
    merged = dict(defaults)
    for key, value in user.items():
        child = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ValidationError(f"unknown config field: {child}")
        merged[key] = _merge_config(defaults[key], value, child)
    return merged


def load_config(path: str | None) -> dict[str, Any]:
    defaults = json.loads(json.dumps(DEFAULT_CONFIG))  # callers may mutate the result
    if path is None:
        return defaults
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e
    try:
        user = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"config {path} is not valid JSON: {e}") from e
    return _merge_config(defaults, user, "")


def _config_hash(cfg: dict[str, Any]) -> str:
    import hashlib

    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:12]


def _fmt(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_text(path: Path, text: str) -> None:
    """Write an output file, creating its directory; an unwritable path is
    invalid input (exit 2), not a failed verification."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e


def _csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The one CSV format: a header line, then one line per row, each ended by LF."""
    return "".join(",".join(map(_fmt, line)) + "\n" for line in [header, *rows])


def _emit_table(header: Sequence[str], rows: Sequence[Sequence[Any]], path: Path | None) -> None:
    """Print a result table as CSV and, given a path, write the same CSV there."""
    text = _csv(header, rows)
    print(text, end="")
    if path is not None:
        _write_text(path, text)


def _outcome_params(
    block: dict[str, Any], section: str
) -> DualOutcomeParams | TripleOutcomeParams:
    """The outcome model a theory or simulate block describes, by its kind."""
    if block["kind"] == "dual":
        return DualOutcomeParams(
            p12=block["p12"], p21r=block["p21r"], lam=block["lambda"], delta=block["delta"]
        )
    if block["kind"] == "triple":
        return TripleOutcomeParams(
            q12=block["q12"], q23=block["q23"], q31=block["q31"],
            lam1=block["lambda1"], lam2=block["lambda2"], delta=block["delta"],
        )
    raise ValidationError(f"{section}.kind must be 'dual' or 'triple', got {block['kind']!r}")


def _policy(block: dict[str, Any] | None) -> RedistributionPolicy | None:
    if block is None:
        return None
    unknown = set(block) - {"alpha", "beta", "gamma"}
    if unknown:
        raise ValidationError(f"unknown policy fields: {sorted(unknown)}")
    return RedistributionPolicy(
        alpha=block.get("alpha", 0.0), beta=block.get("beta", 0.0), gamma=block.get("gamma", 0.0)
    )


def cmd_theory(cfg: dict[str, Any], out_dir: Path | None) -> int:
    block = cfg["theory"]
    deltas = block["delta"] if isinstance(block["delta"], list) else [block["delta"]]
    explicit = _policy(block["policy"])
    dual = block["kind"] == "dual"
    if dual:
        low, high = lambda_feasible_range(block["p12"], block["p21r"])
        loose_low, loose_high = lambda_loose_range(block["p12"], block["p21r"])
        lam = block["lambda"]
        print(f"lambda tight range: [{low!r}, {high!r}]")
        print(f"lambda loose range: [{loose_low!r}, {loose_high!r}]")
        print(f"lambda={lam!r} within loose range: {loose_low <= lam <= loose_high}")
    rows: list[list[Any]] = []
    for delta in deltas:
        # one model per delta; _outcome_params rejects a kind that is neither
        params = _outcome_params({**block, "delta": delta}, "theory")
        policy = explicit or proportional_policy(params, block["gamma"])
        if dual:
            pred = predict_dual(params, policy)
            rows.append([delta, pred.p_case12, policy.alpha, policy.beta, policy.gamma,
                         pred.p_case11, pred.p_case12, pred.p_case2, pred.p_d12, pred.improvement])
        else:
            pred = predict_multistep(params, policy)
            rows.append([delta, m_factor(block["q23"], block["q31"], delta),
                         multistep_condition(block["q23"], block["q31"], delta),
                         pred.p_case11, pred.p_case12, pred.p_case2, pred.q_m12])
    header = (["delta", "p_align", "alpha", "beta", "gamma",
               "p_case11", "p_case12", "p_case2", "p_d12", "improvement"] if dual else
              ["delta", "m_factor", "beats_dual", "p_case11", "p_case12", "p_case2", "q_m12"])
    _emit_table(header, rows, None if out_dir is None else out_dir / "theory.csv")
    return 0


def cmd_verify(cfg: dict[str, Any], out_dir: Path | None) -> int:
    block = cfg["verify"]
    draws = block["draws"]
    COUNT.require(draws, "verify.draws")
    rng = np.random.default_rng(block["seed"])
    # (|difference|, what was compared, the params it was compared at); only
    # the printed offender's params are formatted
    diffs: list[tuple[float, str, Any]] = []
    for _ in range(draws):
        params = random_dual_params(rng)
        policy = random_policy(rng)
        spec = GenerativeSpec(params, policy)
        pred = predict_dual(params, policy)
        diffs.append(
            (abs(pred.p_d12 - enumerate_dual(spec).accuracy),
             "dual formula vs enumeration", params)
        )
        gamma = rng.uniform(0.0, 1.0)
        closed = proportional_dual_accuracy(params, gamma)
        via_policy = predict_dual(params, proportional_policy(params, gamma)).p_d12
        diffs.append((abs(closed - via_policy), "proportional identity", params))
    dual_made = len(diffs)
    print(f"dual checks: {draws} draws")

    for with_dep in (False, True):
        for _ in range(draws):
            params = random_triple_params(rng, with_dep)
            policy = random_policy(rng)
            spec = GenerativeSpec(params, policy)
            pred = predict_multistep(params, policy)
            diffs.append(
                (abs(pred.q_m12 - enumerate_triple(spec).accuracy),
                 "triple formula vs enumeration", params)
            )
    print(f"triple checks: {len(diffs) - dual_made} draws")

    text = errata_to_text(errata_report(_ERRATA_PARAMS))
    print(text, end="")
    if out_dir is not None:
        _write_text(out_dir / "errata.txt", text)

    # a NaN difference is the worst possible one; otherwise the first largest counts
    nans = [d for d in diffs if math.isnan(d[0])]
    worst, what, params = nans[0] if nans else max(diffs, key=lambda d: d[0])
    print(f"max |difference|: {float(worst)!r} (tolerance {_TOLERANCE!r})")
    if not worst <= _TOLERANCE:
        print(f"FAIL worst offender: {what} {params}")
        return 1
    print("PASS")
    return 0


def cmd_simulate(cfg: dict[str, Any], out_dir: Path | None) -> int:
    block = cfg["simulate"]
    policy = _policy(block["policy"])
    spec = GenerativeSpec(_outcome_params(block, "simulate"), policy)
    exact = (enumerate_dual if spec.kind == "dual" else enumerate_triple)(spec)
    result = monte_carlo(spec, block["n"], block["seed"])
    diff = result.accuracy - exact.accuracy
    if result.stderr > 0:
        z = diff / result.stderr
    else:  # a zero-variance estimate: any miss is infinitely many standard errors
        z = math.copysign(math.inf, diff) if diff else 0.0
    print(f"samples: {result.n_samples}")
    print(f"estimate: {result.accuracy!r} stderr: {result.stderr!r}")
    print(f"exact:    {exact.accuracy!r} |diff|: {abs(diff)!r} z: {z:.3f}")
    assert result.counts is not None
    est = estimators_from_counts(result.counts)
    print(
        f"recovered alpha_hat={_fmt(est.alpha_hat)} beta_hat={_fmt(est.beta_hat)} "
        f"gamma_hat={_fmt(est.gamma_hat)} eta_hat={_fmt(est.eta_hat)} "
        f"(n_fail={est.counts['n_vanilla_fail']})"
    )
    if out_dir is not None:
        _write_text(out_dir / "simulate.csv", _csv(
            ["n", "seed", "estimate", "stderr", "exact", "alpha_hat", "beta_hat", "gamma_hat"],
            [[result.n_samples, block["seed"], result.accuracy, result.stderr,
              exact.accuracy, est.alpha_hat, est.beta_hat, est.gamma_hat]],
        ))
    return 0


def _sub_seeds(seed: int, n: int) -> list[int]:
    return [int(c.generate_state(1, np.uint64)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def _plan(cfg: dict[str, Any], run_seed: int):
    """Every check of one run, then its world, corpus and trainer calls in order:
    (phase, pair, TrainConfig with its derived seed), multistep's pair None.
    Vanilla, and dual before multistep, train as a start even when not listed."""
    block = cfg["train"]
    wb, cb, tb = block["world"], block["corpus"], block["train"]
    phases_wanted = list(block["phases"])
    if not phases_wanted:
        raise ValidationError("train.phases must list at least one phase")
    unknown = [p for p in phases_wanted if p not in PHASE_ORDER]
    if unknown:
        raise ValidationError(f"unknown phases {unknown}; allowed: {list(PHASE_ORDER)}")
    k = wb["k"]
    if "multistep" in phases_wanted and k < 3:
        raise ValidationError(
            "multistep phase needs at least 3 languages (k >= 3); "
            "a 2-language world degenerates to plain dual learning"
        )
    # the config loader checked every knob with its TrainConfig rule
    knobs = {key: value for key, value in tb.items() if not key.endswith("_steps")}
    trained = PHASE_ORDER[: max(_PHASE_RANK[ph] for ph in phases_wanted) + 1]
    step_leaves = ("supervised_steps", "dual_steps", "multistep_steps")
    phase_cfgs = {ph: TrainConfig(steps=tb[leaf], **knobs)
                  for ph, leaf in zip(trained, step_leaves)}
    # the corpus sizes of every phase that trains, checked before any of them does:
    # vanilla trains on parallel pairs; dual and multistep on monolingual data too
    for size in ("parallel_per_pair", "monolingual_per_language")[: len(trained)]:
        COUNT.require(cb[size], f"config field train.corpus.{size}")
    world = generate_world(k, wb["m"], wb["s"], wb["skew"], wb["seed"])
    corpus_seed, *phase_seeds = _sub_seeds(run_seed, 4)
    corpus = build_corpus(world, cb["parallel_per_pair"], cb["monolingual_per_language"],
                          corpus_seed, within_cluster=cb["within_cluster"])
    # vanilla trains every ordered pair; dual the primary pair, and before
    # multistep also each pair of a pivot with one of the primary pair
    dual_pairs = [PRIMARY_PAIR]
    if "multistep" in phase_cfgs:
        dual_pairs += [(i, p) for p in range(k) if p not in PRIMARY_PAIR for i in PRIMARY_PAIR]
    pairs = {"vanilla": list(corpus.parallel), "dual": dual_pairs, "multistep": [None]}
    calls = []
    for (ph, phase_cfg), phase_seed in zip(phase_cfgs.items(), phase_seeds):
        # a phase's calls take its phase seed's sub-seeds; multistep's one call the seed itself
        seeds = [phase_seed] if ph == "multistep" else _sub_seeds(phase_seed, len(pairs[ph]))
        calls += [(ph, pair, dataclasses.replace(phase_cfg, seed=seed))
                  for pair, seed in zip(pairs[ph], seeds)]
    return world, corpus, calls


def run_training_experiment(cfg: dict[str, Any], run_seed: int):
    """One run of the phases ``train.phases`` lists: :func:`_plan`'s trainer
    calls, made in order. Returns (phases, world, corpus)."""
    world, corpus, calls = _plan(cfg, run_seed)
    phases: dict[str, dict[tuple[int, int], TabularTranslator]] = {}
    for ph, pair, phase_cfg in calls:
        if ph not in phases:  # a phase starts from every translator of the phase before it
            phases[ph] = dict(next(reversed(phases.values()), {}))
        ts = phases[ph]
        if ph == "vanilla":
            ts[pair] = train_supervised(*pair, world.n_sentences, corpus.parallel[pair], phase_cfg)
        elif ph == "dual":
            vanilla, back = phases["vanilla"], pair[::-1]
            ts[pair], ts[back] = dual_learning(vanilla[pair], vanilla[back], corpus, phase_cfg)
        else:
            ts.update(multistep_dual_learning(phases["dual"], corpus, phase_cfg))
    return {ph: ts for ph, ts in phases.items() if ph in cfg["train"]["phases"]}, world, corpus


def cmd_train(cfg: dict[str, Any], out_dir: Path | None) -> int:
    block = cfg["train"]
    seeds = block["seeds"]
    if not seeds:
        raise ValidationError("train.seeds must list at least one seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValidationError(f"train.seeds must not repeat a seed, got {repeated} twice or more")
    if out_dir is None:
        out_dir = Path("out")
    # check --out before training without creating it: an invalid train block leaves no directory
    found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not (found.is_dir() and os.access(found, os.W_OK | os.X_OK)):
        raise ValidationError(
            f"cannot write {out_dir / 'accuracy.csv'}: {found} is not a writable directory"
        )
    chash = _config_hash(cfg["train"])
    acc_rows: list[list[Any]] = []
    est_rows: list[list[Any]] = []
    all_warnings: list[str] = []
    for run_seed in seeds:
        phases, world, _ = run_training_experiment(cfg, run_seed)
        record = evaluate(phases, world)
        for (phase, (i, j)), rep in record.accuracies.items():
            acc_rows.append([chash, run_seed, phase, i, j, rep.p_hat, rep.p_expected])
        for name, rep in record.estimator_reports.items():
            est_rows.append(
                [
                    chash, run_seed, name,
                    rep.alpha_hat, rep.beta_hat, rep.gamma_hat, rep.eta_hat, rep.eta_raw,
                    rep.counts["n_vanilla_fail"], rep.counts["n_vanilla_recon"],
                ]
            )
        all_warnings += [f"seed {run_seed}: {w}" for w in record.warnings]

    acc_rows.sort(key=lambda r: (r[1], _PHASE_RANK[r[2]], r[3], r[4]))
    est_rows.sort(key=lambda r: (r[1], r[2]))
    est_header = [
        "config_hash", "seed", "comparison", "alpha_hat", "beta_hat", "gamma_hat",
        "eta_hat", "eta_raw", "n_vanilla_fail", "n_vanilla_recon",
    ]
    _write_text(out_dir / "accuracy.csv", _csv(ACCURACY_HEADER, acc_rows))
    _write_text(out_dir / "estimators.csv", _csv(est_header, est_rows))
    cmd_report(out_dir)  # the summary of accuracy.csv as written, through report's checks
    for w in all_warnings:
        print(f"warning: {w}")
    print(f"wrote {out_dir / 'accuracy.csv'}, estimators.csv, summary.csv")
    return 0


def _summarize(acc_rows: list[list[Any]]):
    """Mean greedy accuracy per (phase, direction) plus the gains of consecutive_phases."""
    groups: dict[tuple[str, int, int], list[float]] = {}
    for _, _seed, phase, i, j, p_hat, _pe in acc_rows:
        groups.setdefault((phase, i, j), []).append(p_hat)
    header = ["phase", "src", "dst", "runs", "mean_p_hat"]
    rows: list[list[Any]] = []
    for (phase, i, j), vals in sorted(
        groups.items(), key=lambda kv: (_PHASE_RANK[kv[0][0]], kv[0][1], kv[0][2])
    ):
        rows.append([phase, i, j, len(vals), float(np.mean(vals))])
    a, b = PRIMARY_PAIR
    means = {
        phase: float(np.mean(vals)) for (phase, i, j), vals in groups.items() if (i, j) == (a, b)
    }
    rows += [[f"{second}-minus-{base}", a, b, len(groups[(second, a, b)]),
              means[second] - means[base]] for base, second in consecutive_phases(means)]
    return header, rows


def cmd_report(out_dir: Path | None) -> int:
    if out_dir is None:
        out_dir = Path("out")
    path = out_dir / "accuracy.csv"
    if not path.exists():
        raise ValidationError(f"no accuracy CSV at {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    header = lines[0].strip().split(",") if lines else []
    if header != ACCURACY_HEADER:
        raise ValidationError(f"unexpected accuracy.csv header {header}")
    rows: list[list[Any]] = []
    first_line: dict[tuple[int, str, int, int], int] = {}  # (seed, phase, src, dst) -> line
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            chash, seed, phase, i, j, p_hat, p_exp = line.strip().split(",")
            if any(str(int(field)) != field for field in (seed, i, j)):  # the form train writes
                raise ValueError(f"seed, src and dst must be plain decimals, got {seed}, {i}, {j}")
            row = [chash, int(seed), phase, int(i), int(j), float(p_hat), float(p_exp)]
            SEED.require(row[1], "seed")  # a ValueError, reported with the line
            if phase not in _PHASE_RANK:
                raise ValueError(f"unknown phase {phase!r}; allowed: {list(PHASE_ORDER)}")
            DIRECTION.require((row[3], row[4]), "src and dst")
            PROBABILITY.require(row[5], "p_hat")
            PROBABILITY.require(row[6], "p_expected")
            if rows and chash != rows[0][0]:  # runs of two configs do not average
                raise ValueError(f"config_hash {chash} differs from {rows[0][0]} on line 2")
            key = (row[1], phase, row[3], row[4])
            if key in first_line:
                raise ValueError(
                    f"seed {seed}, phase {phase}, pair ({i}, {j}) repeats line {first_line[key]}"
                )
            first_line[key] = lineno
            rows.append(row)
        except ValueError as e:
            raise ValidationError(f"{path} line {lineno}: {e}") from e
    if not rows:
        raise ValidationError(f"{path} holds no result rows")
    # means over different seed sets do not subtract: every seed holds every row
    held: dict[int, set[tuple[str, int, int]]] = {}
    for seed, phase, i, j in first_line:
        held.setdefault(seed, set()).add((phase, i, j))
    every = set().union(*held.values())
    for seed in sorted(held):
        if held[seed] != every:
            phase, i, j = min(every - held[seed], key=lambda r: (_PHASE_RANK[r[0]], r[1], r[2]))
            raise ValidationError(
                f"{path}: seed {seed} has no row for phase {phase}, pair ({i}, {j}), "
                "which another seed holds"
            )
    _emit_table(*_summarize(rows), out_dir / "summary.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsim",
        description="simulator and experiment harness for dual and multi-step dual learning",
    )
    parser.add_argument("command", choices=["theory", "verify", "simulate", "train", "report"])
    parser.add_argument("--config", default=None, help="path to a JSON config document")
    parser.add_argument("--seed", type=int, default=None, help="override the command's seed(s)")
    parser.add_argument("--out", default=None, help="directory for CSV/report artifacts")
    parser.add_argument("--draws", type=int, default=None, help="override verify draw count")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["verify"]["seed"] = args.seed
            cfg["simulate"]["seed"] = args.seed
            cfg["train"]["seeds"] = [args.seed]
        if args.draws is not None:
            cfg["verify"]["draws"] = args.draws
        # check the flags as config values; the running command's section goes
        # first, so that a bad flag is reported under one of its own fields
        sections = sorted(cfg.items(), key=lambda kv: kv[0] != args.command)
        cfg = _merge_config(DEFAULT_CONFIG, dict(sections), "")
        out_dir = Path(args.out) if args.out else None
        if args.command == "theory":
            return cmd_theory(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        return cmd_report(out_dir)
    except DualSimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
