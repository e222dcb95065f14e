"""Mutation-kill gate: every catalogued one-line mutant of ``src/dualsim``
must make the tier-1 suite fail.

Each mutant is a ``(file, old, new, killer)`` entry: a replacement that
must match exactly once in its file, so a moved or edited line fails the
gate loudly instead of being skipped, and the node id of the tier-1 test
that kills it. A pre-flight checks the whole catalogue before any tier-1
run: every entry's old text must match exactly once in the checkout, and
one ``pytest --collect-only`` must find every killer, so a stale catalogue
fails in seconds. For each mutant, ``src/``, ``tests/`` and ``pyproject.toml``
are copied to a temporary directory and the replacement is applied there.
The killer runs first; only if it passes does the whole of tier-1 run on
the copy with ``-x``. So a mutant survives exactly when tier-1 passes with
it, and a killer that fails costs seconds instead of a tier-1 run. A killer
that pytest cannot find or run fails the gate. The unmutated copy runs the
whole of tier-1 first, so a suite that already fails cannot kill anything
by accident.

A run that outlasts ``TIMEOUT_S`` is stopped and reported as timed out;
for a mutant that counts as killed (a mutant that makes the suite hang
is caught), for the unmutated copy it is a failure.

Exit status 0 when every mutant is killed; 1 when the pre-flight finds a
stale entry, a mutant survives or names a killer that does not run, or the
unmutated suite fails.

    python3 tools/mutants.py

Removing a mutant from the catalogue needs a line in CHANGES.md saying why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (file under src/dualsim, old text, new text, node id of the test that kills it)
MUTANTS = {
    # the kept-reconstruction warning threshold
    "M7": ("learner.py", "rep.eta_hat < 0.8:", "rep.eta_hat < 0.7:",
           "tests/test_learner.py::TestEvaluate::test_eta_warning_threshold_is_0_8"),
    # the sign of the summary's consecutive-phase gain
    "M11": ("cli.py", "means[second] - means[base]", "means[base] - means[second]",
            "tests/test_cli.py::TestTrain::test_summary_gains_are_paired_seed_means"),
    # verify skips the dependent half of its triple checks
    "M16": ("cli.py", "for with_dep in (False, True):", "for with_dep in (True,):",
            "tests/test_cli.py::TestStdoutPinned::test_stdout_digest[verify]"),
    # the errata's case-1.2 shortcut flips its lam2 term
    "M18": (
        "oracle.py", "(1.0 - q2 * q3 - l1 + l2)", "(1.0 - q2 * q3 - l1 - l2)",
        "tests/test_oracle.py::TestErrataReport::test_shortcuts_follow_their_docstring_formulas",
    ),
    # the census swaps its 01 and 00r rows
    "census-01-00r": (
        "metrics.py",
        "[c11, hop1 - c11, hop2 - c11, back - c11,",
        "[c11, hop1 - c11, back - c11, hop2 - c11,",
        "tests/test_metrics.py::TestRoundTripCells::test_matches_brute_force_triple_loop",
    ),
    # the census's greedy home test inverted
    "census-home": ("metrics.py", "(ends[law] == clusters)", "(ends[law] != clusters)",
                    "tests/test_metrics.py::TestRoundTripCells::test_perfect_pair"),
    # the census's 00-not row loses the factor on its doubly subtracted 11 mass
    "census-00n": (
        "metrics.py", "+ 2.0 * c11]", "+ c11]",
        "tests/test_metrics.py::TestRoundTripCells::test_matches_brute_force_triple_loop",
    ),
    # a round trip samples from the backward model and updates the forward one
    "round-trips-swap": (
        "learner.py",
        "[[(mono[i], ((i, j),), (j, i))], [(mono[j], ((j, i),), (i, j))]]",
        "[[(mono[i], ((j, i),), (i, j))], [(mono[j], ((i, j),), (j, i))]]",
        "tests/test_learner.py::TestDualLearning::test_step_is_its_round_trips_by_hand",
    ),
    # dual learning draws each direction's sources from the other language
    "round-trips-sources": (
        "learner.py",
        "[[(mono[i], ((i, j),), (j, i))], [(mono[j], ((j, i),), (i, j))]]",
        "[[(mono[j], ((i, j),), (j, i))], [(mono[i], ((j, i),), (i, j))]]",
        "tests/test_learner.py::TestDualLearning::test_step_is_its_round_trips_by_hand",
    ),
    # dual learning makes one round trip per direction, whatever reconstruction_batch says
    "round-trips-batch": (
        "learner.py", "[trips * cfg.reconstruction_batch]", "[trips]",
        "tests/test_learner.py::TestDualLearning::test_step_is_its_round_trips_by_hand",
    ),
    # the kernel draws each entry's source just before sampling its chain,
    # not every source of a group first
    "kernel-draw-per-entry": (
        "learner.py",
        "xs = [int(mono[rng.integers(mono.size)]) for mono, _, _ in group]",
        "xs = (int(mono[rng.integers(mono.size)]) for mono, _, _ in group)",
        "tests/test_learner.py::TestMultistepDualLearning::test_step_with_pivot_updates_by_hand",
    ),
    # a pivot chain takes its two hops in reverse order
    "pivot-hops-reversed": (
        "learner.py", "((src, p), (p, dst))", "((p, dst), (src, p))",
        "tests/test_learner.py::TestMultistepDualLearning::test_step_with_pivot_updates_by_hand",
    ),
    # a pivot chain trains the direction it generated through, not its inverse
    "pivot-backward": (
        "learner.py", "(p, dst)), (dst, src))", "(p, dst)), (src, dst))",
        "tests/test_learner.py::TestMultistepDualLearning::test_step_with_pivot_updates_by_hand",
    ),
    # one pair of pivot chains per step, whatever reconstruction_batch says
    "pivot-batch": (
        "learner.py", "* cfg.reconstruction_batch + refresh", "+ refresh",
        "tests/test_learner.py::TestMultistepDualLearning::test_step_with_pivot_updates_by_hand",
    ),
    # every step runs the first pivot's chains, whichever pivot it drew
    "pivot-choice": (
        "learner.py",
        "choices[rng.integers(len(choices))]",
        "choices[rng.integers(len(choices)) * 0]",
        "tests/test_learner.py::TestMultistepDualLearning"
        "::test_step_with_pivot_updates_by_hand[4]",
    ),
    # every step runs the first choice and draws none
    "first-choice": (
        "learner.py", "choices[rng.integers(len(choices))]", "choices[0]",
        "tests/test_learner.py::TestMultistepDualLearning"
        "::test_step_with_pivot_updates_by_hand[4]",
    ),
    # update_pivots leaves the pivots frozen
    "refresh-frozen": (
        "learner.py", "for src, dst in pivot_dirs if cfg.update_pivots]",
        "for src, dst in pivot_dirs if False]",
        "tests/test_learner.py::TestMultistepDualLearning"
        "::test_update_pivots_flag_touches_pivot_pairs",
    ),
    # the pivot refresh draws its sources from the target language
    "refresh-mono": (
        "learner.py", "[[(mono[src], ((src, dst),)", "[[(mono[dst], ((src, dst),)",
        "tests/test_learner.py::TestMultistepDualLearning::test_step_with_pivot_updates_by_hand",
    ),
    # the pivot refresh swaps forward and backward direction
    "refresh-swap": (
        "learner.py", "((src, dst),), (dst, src))", "((dst, src),), (src, dst))",
        "tests/test_learner.py::TestMultistepDualLearning::test_step_with_pivot_updates_by_hand",
    ),
    # only the replay directions are trained, not the backward ones, so a
    # refreshed pivot direction writes into the caller's theta
    "trained-by-replay": (
        "learner.py",
        "trained |= {bwd for groups in choices for group in groups for _, _, bwd in group}",
        "trained |= set()",
        "tests/test_learner.py::TestMultistepDualLearning"
        "::test_untouched_directions_are_the_callers_objects[True]",
    ),
    # a phase with no choice draws its mix uniform anyway, so supervised
    # pretraining takes one rng.random() before every replay
    "no-choice-mix-draw": (
        "learner.py", "if not choices or rng.random()", "if rng.random()",
        "tests/test_learner.py::TestDualLearning::test_no_choice_phase_draws_no_mix_uniform",
    ),
    # a phase start copies every row, so never-written rows become resident
    "dense-phase-start": (
        "learner.py", "where=theta.view(np.uint64).any(axis=1)[:, None]", "where=True",
        "tests/test_learner.py::TestDualLearning::test_phase_start_costs_only_written_rows",
    ),
    # a phase start tests rows as floats, so a row of -0.0 comes back as +0.0
    "phase-start-float-rows": (
        "learner.py", "theta.view(np.uint64).any(axis=1)", "theta.any(axis=1)",
        "tests/test_learner.py::TestDualLearning::test_zero_steps_returns_its_inputs_bit_for_bit",
    ),
    # report reads seed, src and dst with bare int(), so 1_0, " 2 " and +0 pass
    "report-canonical-int": (
        "cli.py", "if any(str(int(field)) != field for field in (seed, i, j)):", "if False:",
        "tests/test_cli.py::TestReport::test_malformed_accuracy_csv_exits_2[seed-underscore]",
    ),
    # report takes a seed that train.seeds rejects
    "report-seed": (
        "cli.py", 'SEED.require(row[1], "seed")', "None",
        "tests/test_cli.py::TestReport::test_malformed_accuracy_csv_exits_2[seed-negative]",
    ),
    # report takes a pair that is no direction, such as one whose src is its dst
    "report-same-pair": (
        "cli.py", 'DIRECTION.require((row[3], row[4]), "src and dst")', "None",
        "tests/test_cli.py::TestReport::test_malformed_accuracy_csv_exits_2[src-equals-dst]",
    ),
    # the proportional split divides by a zero reconstructing total
    "split-zero-mass": (
        "theory.py", "if total <= 0.0:", "if total < 0.0:",
        "tests/test_theory.py::TestProportionalDualAccuracy::test_rejects_zero_case_mass",
    ),
    # the proportional split takes a gamma above 1
    "split-gamma-high": (
        "theory.py", 'PROBABILITY.require(gamma, "gamma")', "None",
        "tests/test_theory.py::TestProportionalDualAccuracy::test_rejects_gamma_out_of_range",
    ),
    # the probability rule takes a value above 1 that is no float in range
    "probability-high": (
        "errors.py", "0 <= v <= 1,", "0 <= v,",
        "tests/test_outcome_model.py::TestBuildDualJoint::test_param_validation",
    ),
    # the probability rule's float fast path takes a float above 1
    "probability-fast-high": (
        "errors.py", "0.0 <= v <= 1.0", "0.0 <= v",
        "tests/test_outcome_model.py::TestBuildDualJoint::test_param_validation",
    ),
    # the count rule takes 0
    "count-low": (
        "errors.py", "SIZE.ok(v) and v >= 1", "SIZE.ok(v)",
        "tests/test_synth_lang.py::TestGenerateWorld"
        "::test_world_rejects_sizes_that_are_no_positive_integer",
    ),
    # the positive rule takes 0
    "positive-zero": (
        "errors.py", "FINITE.ok(v) and v > 0", "FINITE.ok(v) and v >= 0",
        "tests/test_learner.py::TestTabularTranslator::test_config_validation",
    ),
    # m_factor takes a q23, q31 or delta outside [0, 1]
    "m-factor-probability": (
        "theory.py", "PROBABILITY.require(value, name)\n    denom", "None\n    denom",
        "tests/test_theory.py::TestMFactor"
        "::test_rejects_a_value_that_is_no_probability[q23-2.5-m_factor]",
    ),
    # the loose lambda range starts at the tight range's upper bound
    "loose-low-from-high": (
        "outcome_model.py", "low, _ = lambda_feasible_range(p12, p21r)",
        "_, low = lambda_feasible_range(p12, p21r)",
        "tests/test_outcome_model.py::TestLambdaRange::test_loose_range_contains_tight",
    ),
    # a world may leave a cluster of some language with zero mass
    "world-cluster-mass": (
        "synth_lang.py", "sum(axis=2) > 0.0)", "sum(axis=2) >= 0.0)",
        "tests/test_synth_lang.py::TestGenerateWorld::test_overflowing_skew_names_the_skew[800.0]",
    ),
    # a TrainConfig seed may be negative
    "train-seed-negative": (
        "translator.py", 'metadata={"rule": SEED}', 'metadata={"rule": SCALAR_RULES[int]}',
        "tests/test_learner.py::TestTabularTranslator"
        "::test_config_rejects_what_it_cannot_train_with[seed-negative]",
    ),
    # a bool passes the integer rule, which Monte Carlo's sample count follows
    "integer-bool": (
        "errors.py", 'Rule(lambda v: type(v) is int, "an integer")',
        'Rule(lambda v: isinstance(v, int), "an integer")',
        "tests/test_oracle.py::TestMonteCarlo::test_rejects_zero_samples",
    ),
    # a bool passes the nonnegative-integer rule, which TrainConfig's steps follow
    "natural-bool": (
        "errors.py", "type(v) is int and v >= 0", "isinstance(v, int) and v >= 0",
        "tests/test_learner.py::TestTabularTranslator"
        "::test_config_rejects_what_it_cannot_train_with[steps-bool]",
    ),
    # the finite-number rule takes an int past the float range
    "finite-unbounded": (
        "errors.py", "and abs(v) <= sys.float_info.max,", "and True,",
        "tests/test_learner.py::TestTabularTranslator"
        "::test_config_rejects_what_it_cannot_train_with[learning_rate-10**400]",
    ),
    # the seed rule takes a seed of 2**64 or more
    "seed-unbounded": (
        "errors.py", "0 <= v < 2**64,", "0 <= v,",
        "tests/test_oracle.py::TestMonteCarlo"
        "::test_rejects_a_seed_that_is_not_a_nonnegative_int[2**64]",
    ),
    # a trainer takes a negative id, which numpy reads as a row from the end
    "ids-negative": (
        "learner.py", "bad = (ids < 0) | (ids >= bounds)", "bad = ids >= bounds",
        "tests/test_learner.py::TestTrainSupervised"
        "::test_ids_outside_the_theta_rejected[src-negative]",
    ),
    # Corpus truncates float ids to int64
    "corpus-unsafe-cast": (
        "synth_lang.py", 'casting="safe" if arr.size else "unsafe"', 'casting="unsafe"',
        "tests/test_synth_lang.py::TestBuildCorpus::test_corpus_converts_ids",
    ),
    # World checks mu without holding its float64 conversion
    "world-mu-unconverted": (
        "synth_lang.py", 'object.__setattr__(self, "mu", _array(self.mu, np.float64, shape, "mu"))',
        '_array(self.mu, np.float64, shape, "mu")',
        "tests/test_synth_lang.py::TestGenerateWorld::test_world_converts_mu",
    ),
    # an empty monolingual list passes the check
    "mono-empty": ("learner.py", "mono[lang].size == 0", "mono[lang].size < 0",
                   "tests/test_learner.py::TestDualLearning::test_missing_monolingual_rejected"),
    # replay data is required even when no step replays
    "replay-off": (
        "learner.py", "cfg.supervised_mix > 0.0 and", "cfg.supervised_mix >= 0.0 and",
        "tests/test_learner.py::TestDualLearning::test_no_replay_needs_no_parallel_data",
    ),
    # train_supervised checks its direction only when the result is built, after every step
    "supervised-late-ids": (
        "learner.py", 'DIRECTION.require((src_lang, dst_lang), "(src_lang, dst_lang)")', "None",
        "tests/test_learner.py::TestTrainSupervised"
        "::test_language_ids_checked_before_the_first_step[src]",
    ),
    # the plan seeds multistep's one call with a sub-seed of its phase seed
    "plan-multistep-sub-seed": (
        "cli.py", 'seeds = [phase_seed] if ph == "multistep" else _sub_seeds(',
        "seeds = _sub_seeds(",
        "tests/test_cli.py::TestPlan::test_each_call_takes_its_phase_seeds_sub_seed[1]",
    ),
    # the dual phase drops its pivot pairs when multistep is requested
    "plan-dual-no-pivots": (
        "cli.py", 'if "multistep" in phase_cfgs:', "if False:",
        "tests/test_cli.py::TestPlan::test_calls_per_phase[k4]",
    ),
    # the direction rule, which Corpus, report and the translators follow,
    # takes a pair from a language to itself
    "direction-self-pair": (
        "errors.py", "and v[0] != v[1]", "and True",
        "tests/test_synth_lang.py::TestBuildCorpus"
        "::test_corpus_rejects_keys_that_name_no_language[self-pair]",
    ),
    # the direction rule takes a pair whose ids are no language ids
    "direction-ids": (
        "errors.py", "all(map(LANGUAGE.ok, v))", "True",
        "tests/test_synth_lang.py::TestBuildCorpus"
        "::test_corpus_rejects_keys_that_name_no_language[text-id]",
    ),
    # the direction rule takes a tuple of three languages
    "direction-length": (
        "errors.py", "len(v) == 2 and ", "",
        "tests/test_synth_lang.py::TestBuildCorpus"
        "::test_corpus_rejects_keys_that_name_no_language[triple]",
    ),
    # the language rule, and so the direction rule, takes a negative id
    "language-negative": (
        "errors.py", "type(v) is int and v >= 0", "type(v) is int",
        "tests/test_synth_lang.py::TestBuildCorpus"
        "::test_corpus_rejects_keys_that_name_no_language[negative-pair]",
    ),
    # Corpus takes a monolingual key that is no language id
    "corpus-mono-ids": (
        "synth_lang.py", 'LANGUAGE.require(lang, "monolingual key")', "None",
        "tests/test_synth_lang.py::TestBuildCorpus"
        "::test_corpus_rejects_keys_that_name_no_language[text-mono]",
    ),
    # a translator may translate from a language to itself
    "translator-direction": (
        "translator.py", "DIRECTION.require((self.src_lang, self.dst_lang),", "None and (",
        "tests/test_learner.py::TestTabularTranslator"
        "::test_rejects_a_direction_that_is_not_two_languages[self-pair]",
    ),
    # multi-step learning takes a translator filed under another direction's key
    "phase-key-check": (
        "learner.py", "_check_keys(translators)", "None",
        "tests/test_learner.py::TestMultistepDualLearning"
        "::test_a_translator_under_another_direction_rejected",
    ),
    # evaluate files a translator's accuracy under another direction's key
    "evaluate-key-check": (
        "learner.py", "_check_keys(ts)", "None",
        "tests/test_learner.py::TestEvaluate::test_a_translator_under_another_direction_rejected",
    ),
    # a translator mapping may hold a value that is no translator
    "check-keys-type": (
        "learner.py", "if not isinstance(t, TabularTranslator):", "if False:",
        "tests/test_learner.py::TestEvaluate"
        "::test_an_entry_that_is_no_keyed_translator_rejected[str-value]",
    ),
    # the config loader checks a train knob with the rule of its default's
    # type, not its TrainConfig field's, so -1 passes as a learning rate
    "leaf-train-rule": (
        "cli.py", 'if section == "train.train":', "if False:",
        "tests/test_cli.py::TestConfigValidation::test_train_knob_reports_its_trainconfig_rule",
    ),
    # a generative spec takes params of any kind
    "spec-params-any": (
        "oracle.py", "isinstance(v, (DualOutcomeParams, TripleOutcomeParams))", "True",
        "tests/test_api.py::test_an_argument_of_the_wrong_kind_is_named[GenerativeSpec.params-str]",
    ),
    # a triple-model field declares no rule, so check_fields skips it
    "triple-field-unruled": (
        "outcome_model.py", 'q23: float = field(metadata={"rule": PROBABILITY})',
        "q23: float = field()",
        "tests/test_outcome_model.py::TestBuildTripleJoint"
        "::test_param_validation_names_each_field[q23]",
    ),
}

# a few times the 30-40 s that one tier-1 run takes
TIMEOUT_S = 300

PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1 = ["-x", "--continue-on-collection-errors"]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def preflight() -> list[str]:
    """What is stale in the catalogue, found in seconds before any tier-1
    run: an entry whose old text does not match exactly once in the source,
    and a killer that one ``pytest --collect-only`` does not find."""
    stale = []
    for name, (file, old, _new, _killer) in MUTANTS.items():
        found = (ROOT / "src" / "dualsim" / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            stale.append(f"{name}: {file}: {old!r} matches {found} times, not once")
    killers = sorted({killer for *_, killer in MUTANTS.values()})
    code, output = pytest(ROOT, ["--collect-only", *killers])
    if code != 0:
        missing = [line for line in output.splitlines() if "not found" in line]
        stale += missing or [f"collecting the killers: pytest exited {code}"]
    return stale


def apply(dest: Path, name: str) -> None:
    """Apply mutant ``name`` in the copy at ``dest``; the pre-flight checked
    that its old text matches exactly once."""
    file, old, new, _killer = MUTANTS[name]
    path = dest / "src" / "dualsim" / file
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def pytest(dest: Path, args: list[str]) -> tuple[int | None, str]:
    """Run pytest with ``args`` on the tree at ``dest``, its own src/ first on
    the path; its exit status (None when it outlasts ``TIMEOUT_S``) and output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(dest / "src"), env.get("PYTHONPATH")]))
    try:
        run = subprocess.run(
            [sys.executable, *PYTEST, *args], cwd=dest, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return run.returncode, run.stdout + run.stderr


def outcome(name: str | None) -> tuple[bool, str]:
    """Run a fresh copy, mutated by ``name`` unless it is None. Returns
    whether the run went as it must (the unmutated tier-1 passes; a mutant
    makes its killer or else tier-1 fail, pytest exiting 1, or times out)
    and what happened."""
    with tempfile.TemporaryDirectory(prefix="dualsim-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        if name is None:
            code, _ = pytest(dest, TIER1)
            return code == 0, {None: "timed out", 0: "passes", 1: "tier-1 fails"}.get(
                code, f"pytest exited {code}")
        apply(dest, name)
        by = MUTANTS[name][3]
        code, _ = pytest(dest, [by])
        if code not in (None, 0, 1):
            return False, f"killer {by} did not run: pytest exited {code}"
        if code == 0:
            by, (code, _) = "tier-1", pytest(dest, TIER1)
    if code is None:
        return True, f"timed out in {by}"
    if code == 1:
        return True, f"killed by {by}"
    return False, "survived" if code == 0 else f"pytest exited {code}"


def main() -> int:
    begin = time.perf_counter()
    stale = preflight()
    for problem in stale:
        print(f"stale: {problem}", flush=True)
    print(f"pre-flight: {len(stale) or 'no'} stale entries ({time.perf_counter() - begin:.1f} s)",
          flush=True)
    if stale:
        return 1
    survivors = []
    for name in [None, *MUTANTS]:
        start = time.perf_counter()
        ok, what = outcome(name)
        print(f"{name or 'unmutated'}: {what} ({time.perf_counter() - start:.1f} s)", flush=True)
        if not ok and name is None:
            return 1
        if not ok:
            survivors.append(name)
    print(f"not killed: {survivors}" if survivors else "every mutant killed",
          f"({time.perf_counter() - begin:.0f} s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
