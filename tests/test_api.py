"""The public surface of the ``dualsim`` package, and the code behind it."""

import ast
import json
import os
import sys
from pathlib import Path

import dualsim
from dualsim import cli

# Every name a caller reaches through ``import dualsim``: the package's
# non-underscore attributes other than its submodules. A name added here
# needs a command or gate that calls it.
PUBLIC_NAMES = {
    "AccuracyReport", "Corpus", "DualOutcomeParams", "DualPrediction", "DualSimError",
    "EstimatorReport", "ExperimentRecord", "GenerativeSpec", "InfeasibleParamsError",
    "JointTable", "OracleResult", "OutcomeCounts", "RedistributionPolicy",
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
    assert len(PUBLIC_NAMES) == 43
    assert public == PUBLIC_NAMES


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
AWAITING_A_CALLER = {"reconstruction_accuracy", "dual_improvement", "simplified_multistep_accuracy"}


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
