"""The public surface of the ``dualsim`` package, and the code behind it."""

import ast
import json
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualsim
from dualsim import cli, theory
from dualsim.errors import Rule

# Every name a caller reaches through ``import dualsim``: the package's
# non-underscore attributes other than its submodules. A name added here
# needs a command or gate that calls it.
PUBLIC_NAMES = {
    "AccuracyReport", "Corpus", "DualOutcomeParams", "DualPrediction", "DualSimError",
    "EstimatorReport", "ExperimentRecord", "GenerativeSpec", "InfeasibleParamsError",
    "OracleResult", "OutcomeCounts", "RedistributionPolicy",
    "TabularTranslator", "TrainConfig", "TripleOutcomeParams", "TriplePrediction",
    "ValidationError", "World",
    "accuracy", "build_corpus", "build_dual_joint", "build_triple_joint",
    "dual_improvement", "dual_learning", "enumerate_dual",
    "enumerate_triple", "errata_report", "estimators", "estimators_from_counts", "evaluate",
    "generate_world", "lambda_feasible_range", "lambda_loose_range", "m_factor",
    "monte_carlo", "multistep_condition", "multistep_dual_learning", "predict_dual",
    "predict_multistep", "proportional_dual_accuracy", "proportional_policy",
    "train_supervised",
}


def test_public_names_are_pinned():
    public = {
        name for name, value in vars(dualsim).items()
        if not name.startswith("_") and type(value).__name__ != "module"
    }
    assert len(PUBLIC_NAMES) == 42
    assert public == PUBLIC_NAMES


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports is read in that module;
    ``__init__.py`` imports names to re-export them."""
    src = Path(dualsim.__file__).resolve().parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, f"imported and never used: {unused}"


def test_no_module_keeps_a_second_list_of_names():
    """The package namespace pinned above is the one statement of the
    public surface; a module-level ``__all__`` would be a second one."""
    src = Path(dualsim.__file__).resolve().parent
    listed = sorted(
        path.name for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    )
    assert not listed, f"modules that assign __all__: {listed}"


# Kept in src/ for ROADMAP item 2, whose theory check will be their first
# caller outside the tests. Every other def must be entered by a command.
# metrics.round_trip_cells is entered through the greedy laws of
# ``estimators`` only; its (n, n) matrix-law branches wait for item 2 too,
# which this def-level check cannot show.
AWAITING_A_CALLER = {"dual_improvement", "simplified_multistep_accuracy"}


def _defs(node, prefix=""):
    """Yield (first line, qualified name) of every def under ``node``; the
    first line is the one its code object reports, that of its first
    decorator if it has one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            name = prefix + child.name
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name
            yield from _defs(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def test_every_def_is_entered_by_a_command(tmp_path, capsys):
    """Run all five commands on tiny configs under a profiler: a def that
    none of them enters is test-only code and belongs in tests/."""
    src = Path(dualsim.__file__).resolve().parent
    defs = {
        (str(path), line): f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for line, name in _defs(ast.parse(path.read_text(encoding="utf-8")))
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "theory": {"kind": "triple", "delta": [0.1, 0.5]},
        "simulate": {"kind": "triple", "n": 2000},
        "train": {
            # two pivots, each refined during the multistep phase
            "world": {"k": 4, "m": 3, "s": 2, "skew": 0.5, "seed": 0},
            "corpus": {"parallel_per_pair": 10, "monolingual_per_language": 10},
            "train": {"supervised_steps": 5, "dual_steps": 5, "multistep_steps": 5,
                      "update_pivots": True},
            "seeds": [1],
        },
    }), encoding="utf-8")
    out = str(tmp_path / "out")
    runs = [
        ["theory"],
        ["theory", "--config", str(config)],
        ["verify", "--draws", "2"],
        ["simulate"],
        ["simulate", "--config", str(config)],
        ["train", "--config", str(config), "--out", out],
        ["report", "--out", out],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    entered = {(os.path.realpath(f), line) for f, line in entered}
    missed = sorted(
        name for key, name in defs.items()
        if key not in entered and name.split(".")[-1] not in AWAITING_A_CALLER
    )
    assert not missed, f"never entered by a command: {missed}"


# values that no public function may let escape as anything but a
# DualSimError: a bool, the non-finite floats, an int past the float range,
# a negative, a seed's first excluded value, a fraction, a string and None
HOSTILE = [True, math.nan, math.inf, -math.inf, 10**400, -1, 2**64, 2.5, "1", None]
_WORLD = dualsim.generate_world(2, 1, 1, 0.0, 0)
_DUAL = dualsim.DualOutcomeParams(0.5, 0.5, 0.0, 0.1)
_POLICY = dualsim.RedistributionPolicy(0.3, 0.3, 0.4)
_SPEC = dualsim.GenerativeSpec(_DUAL, _POLICY)
_TRIPLE = dualsim.TripleOutcomeParams(0.5, 0.5, 0.5, 0.0, 0.0, 0.1)
_TRIPLE_SPEC = dualsim.GenerativeSpec(_TRIPLE, _POLICY)
# a three-language world of one sentence each, and a translator for every direction
_WORLD3 = dualsim.generate_world(3, 1, 1, 0.0, 0)
_CORPUS3 = dualsim.build_corpus(_WORLD3, 1, 1, 0)
_T = {(i, j): dualsim.TabularTranslator(i, j, [[0.0]])
      for i in range(3) for j in range(3) if i != j}
_PAIR, _BACK = (_T[(0, 1)], _T[(1, 0)]), (_T[(1, 0)], _T[(0, 1)])
_STEP = dualsim.TrainConfig(steps=1)
# each callable that takes scalars, public or awaiting a caller, with valid
# scalar arguments to replace
SCALAR_CALLS = {
    "DualOutcomeParams": (dualsim.DualOutcomeParams, (0.5, 0.5, 0.0, 0.1)),
    "TripleOutcomeParams": (dualsim.TripleOutcomeParams, (0.5, 0.5, 0.5, 0.0, 0.0, 0.1)),
    "RedistributionPolicy": (dualsim.RedistributionPolicy, (0.3, 0.3, 0.4)),
    "TrainConfig": (dualsim.TrainConfig, tuple(f.default for f in fields(dualsim.TrainConfig))),
    "generate_world": (dualsim.generate_world, (2, 1, 1, 0.0, 0)),
    "build_corpus": (dualsim.build_corpus, (_WORLD, 1, 1, 0)),
    "monte_carlo": (dualsim.monte_carlo, (_SPEC, 10, 0)),
    "World": (lambda *args: dualsim.World(*args, [[1.0], [1.0]]), (2, 1, 1)),
    "World.check_language": (_WORLD.check_language, (0,)),
    "TabularTranslator": (lambda *args: dualsim.TabularTranslator(*args, [[0.0]]), (0, 1)),
    "train_supervised": (dualsim.train_supervised, (0, 1, 1, [[0, 0]], _STEP)),
    "lambda_feasible_range": (dualsim.lambda_feasible_range, (0.5, 0.5)),
    "lambda_loose_range": (dualsim.lambda_loose_range, (0.5, 0.5)),
    "m_factor": (dualsim.m_factor, (0.5, 0.5, 0.1)),
    "multistep_condition": (dualsim.multistep_condition, (0.5, 0.5, 0.1)),
    "proportional_policy": (dualsim.proportional_policy, (_DUAL, 0.5)),
    "proportional_dual_accuracy": (dualsim.proportional_dual_accuracy, (_DUAL, 0.5)),
    "dual_improvement": (lambda gamma: dualsim.dual_improvement(_DUAL, gamma), (0.5,)),
    "simplified_multistep_accuracy": (theory.simplified_multistep_accuracy, (0.5, 1.0, 0.0)),
}
# each callable that takes a translator, a world, a corpus, a config, a spec,
# outcome params, a policy or outcome counts (or a pair or mapping of
# translators, or a mapping of corpus data), with valid arguments to
# replace; the hostile-value test below feeds them the hostile scalars too
OBJECT_CALLS = {
    "dual_learning": (dualsim.dual_learning, (*_PAIR, _CORPUS3, _STEP)),
    "multistep_dual_learning": (dualsim.multistep_dual_learning, (_T, _CORPUS3, _STEP)),
    "accuracy": (dualsim.accuracy, (_T[(0, 1)], _WORLD3)),
    "estimators": (dualsim.estimators, (_PAIR, _BACK, _WORLD3)),
    "evaluate": (dualsim.evaluate, ({"vanilla": _T}, _WORLD3)),
    "enumerate_dual": (dualsim.enumerate_dual, (_SPEC,)),
    "enumerate_triple": (dualsim.enumerate_triple, (_TRIPLE_SPEC,)),
    "GenerativeSpec": (dualsim.GenerativeSpec, (_DUAL, _POLICY)),
    "Corpus": (dualsim.Corpus, ({}, {})),
    "predict_dual": (dualsim.predict_dual, (_DUAL, _POLICY)),
    "predict_multistep": (dualsim.predict_multistep, (_TRIPLE, _POLICY)),
    "build_dual_joint": (dualsim.build_dual_joint, (_DUAL,)),
    "build_triple_joint": (dualsim.build_triple_joint, (_TRIPLE,)),
    "errata_report": (dualsim.errata_report, (_TRIPLE,)),
    "estimators_from_counts": (
        dualsim.estimators_from_counts, (dualsim.OutcomeCounts(1, 1, 1, 1, 1),)
    ),
}
CALLS = {**SCALAR_CALLS, **OBJECT_CALLS}


@settings(max_examples=800, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_scalars_raise_only_dualsim_errors(data):
    """Each call with hostile values in some of its arguments either
    succeeds or raises a DualSimError: never AttributeError, OverflowError,
    TypeError or a numpy ValueError."""
    call, valid = CALLS[data.draw(st.sampled_from(sorted(CALLS)))]
    hostile_at = data.draw(st.sets(st.integers(0, len(valid) - 1), min_size=1))
    args = [data.draw(st.sampled_from(HOSTILE)) if i in hostile_at else v
            for i, v in enumerate(valid)]
    try:
        call(*args)
    except dualsim.DualSimError:
        pass


def test_every_call_runs_on_its_valid_arguments():
    """The valid arguments that the hostile-value test replaces are valid."""
    for call, valid in CALLS.values():
        call(*valid)


# (call, position, name) of each argument that must be one of the kinds above
OBJECT_PARAMS = [
    ("train_supervised", 4, "cfg"),
    ("dual_learning", 0, "t12"), ("dual_learning", 1, "t21"), ("dual_learning", 2, "corpus"),
    ("dual_learning", 3, "cfg"),
    ("multistep_dual_learning", 0, "translators"), ("multistep_dual_learning", 1, "corpus"),
    ("multistep_dual_learning", 2, "cfg"),
    ("accuracy", 0, "t"), ("accuracy", 1, "world"),
    ("estimators", 0, "vanilla"), ("estimators", 1, "dual"), ("estimators", 2, "world"),
    ("evaluate", 0, "phases"), ("evaluate", 1, "world"),
    ("build_corpus", 0, "world"), ("monte_carlo", 0, "spec"),
    ("enumerate_dual", 0, "spec"), ("enumerate_triple", 0, "spec"),
    ("GenerativeSpec", 0, "params"), ("GenerativeSpec", 1, "policy"),
    ("Corpus", 0, "parallel"), ("Corpus", 1, "monolingual"),
    ("predict_dual", 0, "params"), ("predict_dual", 1, "policy"),
    ("predict_multistep", 0, "params"), ("predict_multistep", 1, "policy"),
    ("proportional_policy", 0, "params"), ("proportional_dual_accuracy", 0, "params"),
    ("build_dual_joint", 0, "params"), ("build_triple_joint", 0, "params"),
    ("errata_report", 0, "params"), ("estimators_from_counts", 0, "counts"),
]


@pytest.mark.parametrize("bad", ["x", None], ids=["str", "None"])
@pytest.mark.parametrize("call, at, name", OBJECT_PARAMS,
                         ids=[f"{call}.{name}" for call, _, name in OBJECT_PARAMS])
def test_an_argument_of_the_wrong_kind_is_named(call, at, name, bad):
    fn, valid = CALLS[call]
    args = [bad if i == at else v for i, v in enumerate(valid)]
    message = rf"^{re.escape(name)} must be an? .*, got {bad!r}$"
    with pytest.raises(dualsim.ValidationError, match=message):
        fn(*args)


@pytest.mark.parametrize("bad", ["x", None], ids=["str", "None"])
def test_a_theta_of_the_wrong_kind_is_named(bad):
    # a string escaped as numpy's ValueError; None became a 0-d NaN array
    with pytest.raises(dualsim.ValidationError, match="^theta is not an array of float64: "):
        dualsim.TabularTranslator(0, 1, bad)


# every value type that checks its fields with errors.check_fields
CHECKED_TYPES = [dualsim.DualOutcomeParams, dualsim.TripleOutcomeParams,
                 dualsim.RedistributionPolicy, dualsim.World, dualsim.TrainConfig,
                 dualsim.GenerativeSpec, dualsim.Corpus]


def test_every_field_of_a_checked_type_carries_a_rule():
    """Each field states its rule on itself; World's mu alone is checked
    by World's array checks. Every train knob of the config is checked at
    load with the rule of its TrainConfig field, steps' for each phase's steps."""
    unruled = [f"{cls.__name__}.{f.name}" for cls in CHECKED_TYPES for f in fields(cls)
               if not isinstance(f.metadata.get("rule"), Rule)]
    assert unruled == ["World.mu"]
    rules = {f.name: f.metadata["rule"] for f in fields(dualsim.TrainConfig)}
    for leaf, default in cli.DEFAULT_CONFIG["train"]["train"].items():
        rule = rules["steps" if leaf.endswith("_steps") else leaf]
        assert cli._leaf_type(default, f"train.train.{leaf}") is rule, leaf
