"""CLI verbs, config validation, exit codes, and byte-stable CSV output."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsim import cli
from dualsim.cli import DEFAULT_CONFIG, load_config, main, run_training_experiment
from dualsim.errors import MAX_ENTRIES
from dualsim.oracle import OracleResult
from dualsim.translator import TrainConfig

TINY_TRAIN = {
    "train": {
        "world": {"k": 3, "m": 6, "s": 2, "skew": 0.0, "seed": 0},
        "corpus": {"parallel_per_pair": 30, "monolingual_per_language": 200},
        "train": {
            "supervised_steps": 300,
            "dual_steps": 400,
            "multistep_steps": 300,
            "supervised_batch": 8,
        },
        "seeds": [7],
        "phases": ["vanilla", "dual", "multistep"],
    }
}


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


CONFIG_LEAVES = sorted(_leaves(DEFAULT_CONFIG))
# every leaf that holds numbers, with theory.delta once more as a sweep list
NUMBER_LEAVES = [
    (path, default) for path, default in CONFIG_LEAVES
    if type(default) in (int, float) or (type(default) is list and type(default[0]) is int)
] + [(("theory", "delta"), [0.1])]

_TEXT = st.text(max_size=4)
_INTS = st.integers(-5, 5)
_FLOATS = st.floats(-5.0, 5.0).filter(lambda f: not f.is_integer())
_OBJECTS = st.dictionaries(_TEXT, _INTS, max_size=2)


def wrong_type(path, default):
    """Values of a JSON type the config leaf at ``path`` must not accept."""
    if path == ("theory", "delta"):
        return st.one_of(_TEXT, st.booleans(), st.none(), _OBJECTS, st.just([]),
                         st.lists(_TEXT, min_size=1, max_size=2))
    if default is None:
        return st.one_of(_TEXT, st.booleans(), _INTS, _FLOATS, st.lists(_INTS, max_size=2))
    if isinstance(default, list):
        item = st.lists(_INTS if isinstance(default[0], str) else _TEXT, min_size=1, max_size=2)
        return st.one_of(_TEXT, st.booleans(), st.none(), _OBJECTS, _INTS, item)
    others = {
        bool: [_TEXT, st.none(), _INTS, _FLOATS],
        int: [_TEXT, st.none(), st.booleans(), _FLOATS],
        float: [_TEXT, st.none(), st.booleans()],
        str: [st.none(), st.booleans(), _INTS, _FLOATS],
    }[type(default)]
    return st.one_of(*others, _OBJECTS, st.lists(_INTS, max_size=2))


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestConfigValidation:
    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"verify": {"lamda1": 1}})
        assert main(["verify", "--config", path]) == 2
        assert "verify.lamda1" in capsys.readouterr().err

    def test_errata_params_is_not_a_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"verify": {"errata_params": {}}})
        assert main(["verify", "--config", path, "--draws", "1"]) == 2
        assert capsys.readouterr().err == "error: unknown config field: verify.errata_params\n"

    def test_shortcut_case_formulas_is_not_a_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"verify": {"use_shortcut_case_formulas": True}})
        assert main(["verify", "--config", path, "--draws", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config field: verify.use_shortcut_case_formulas\n"
        )

    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"verifyy": {}})
        assert main(["verify", "--config", path]) == 2
        assert "verifyy" in capsys.readouterr().err

    def test_broken_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verify", "--config", "/nonexistent/config.json"]) == 2

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["theory", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}") and err.count("\n") == 1

    def test_default_train_config_hash_is_pinned(self):
        # the train knobs default as TrainConfig does; every golden row holds this hash
        assert cli._config_hash(DEFAULT_CONFIG["train"]) == "d1090cfa2ad2"

    def test_overrides_leave_defaults_untouched(self, tmp_path):
        path = write_config(tmp_path, {"theory": {}})
        assert main(["verify", "--config", path, "--seed", "5", "--draws", "1"]) == 0
        assert DEFAULT_CONFIG["verify"]["seed"] == 0

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("train", {"train": {"train": {"learning_rate": "x"}}}),
            ("verify", {"verify": {"draws": "many"}}),
            ("train", {"train": {"train": {"update_pivots": "no"}}}),
            ("theory", {"theory": {"delta": []}}),
            ("simulate", {"simulate": {"policy": None}}),
            ("verify", {"verify": None}),
            # a train knob out of its TrainConfig range fails every command, not only train
            ("verify", {"train": {"train": {"learning_rate": -1}}}),
            ("theory", {"train": {"train": {"supervised_mix": 1.5}}}),
            ("simulate", {"train": {"train": {"dual_steps": -1}}}),
        ],
    )
    def test_malformed_leaf_rejected_at_load(self, tmp_path, capsys, command, cfg):
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field ") and err.count("\n") == 1

    def test_train_knob_reports_its_trainconfig_rule(self, tmp_path, capsys):
        path = write_config(tmp_path, {"train": {"train": {"learning_rate": -1}}})
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "error: config field train.train.learning_rate must be a positive finite number, "
            "got -1\n"
        )

    @pytest.mark.parametrize("command", ["theory", "simulate"])
    def test_unknown_kind_rejected(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {command: {"kind": "x"}})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {command}.kind must be 'dual' or 'triple', got 'x'\n"

    @pytest.mark.parametrize(
        "argv, cfg, field",
        [
            (["verify", "--seed", "-1"], None, "verify.seed"),
            (["simulate", "--seed", "-1"], None, "simulate.seed"),
            (["train", "--seed", "-1"], None, "train.seeds"),
            (["theory", "--seed", "-1"], None, "verify.seed"),
            (["verify"], {"verify": {"seed": -1}}, "verify.seed"),
            (["simulate"], {"simulate": {"seed": -1}}, "simulate.seed"),
            (["train"], {"train": {"seeds": [3, -1]}}, "train.seeds"),
            (["train"], {"train": {"world": {"seed": -1}}}, "train.world.seed"),
            # Monte Carlo keeps a seed's low 64 bits: 2**64 would draw seed 0's stream
            (["simulate", "--seed", str(2**64)], None, "simulate.seed"),
            (["simulate"], {"simulate": {"seed": 2**64}}, "simulate.seed"),
            (["train"], {"train": {"seeds": [3, 2**64]}}, "train.seeds"),
        ],
        ids=["verify-flag", "simulate-flag", "train-flag", "theory-flag",
             "verify.seed", "simulate.seed", "train.seeds", "train.world.seed",
             "simulate-flag-2**64", "simulate.seed-2**64", "train.seeds-2**64"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv, cfg, field):
        if cfg is not None:
            argv = argv + ["--config", write_config(tmp_path, cfg)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {field} must be ") and err.count("\n") == 1
        assert "nonnegative integer below 2**64" in err

    @pytest.mark.parametrize(
        "argv, cfg, message",
        [
            (["train"], {"train": {"world": {"k": 2**64}}},
             f"error: k must be an integer in [1, {MAX_ENTRIES}], got {2**64}\n"),
            (["simulate"], {"simulate": {"n": 2**64}},
             f"error: n must be an integer in [1, {(2**64 - 1) // 3}], got {2**64}\n"),
        ],
        ids=["train.world.k", "simulate.n"],
    )
    def test_size_that_no_array_holds_exits_2(self, tmp_path, capsys, argv, cfg, message):
        # the world raised numpy's ValueError; Monte Carlo ran on for 10**15 chunks
        argv = argv + ["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "path, default", NUMBER_LEAVES,
        ids=[".".join(p) + ("[list]" if isinstance(d, list) else "") for p, d in NUMBER_LEAVES],
    )
    def test_non_finite_number_exits_2_naming_the_leaf(self, tmp_path, capsys, path, default, bad):
        # json reads NaN and Infinity; no command may start on one
        cfg = json.loads(json.dumps(TINY_TRAIN))
        block = cfg
        for key in path[:-1]:
            block = block.setdefault(key, {})
        block[path[-1]] = [default[0], bad] if isinstance(default, list) else bad
        argv = [path[0], "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: config field {'.'.join(path)} must be ")
        assert err.count("\n") == 1 and out == ""
        if isinstance(default, float):
            # a train knob reads its TrainConfig field's rule: supervised_mix is a probability
            assert ("a number in [0, 1]" if path[-1] == "supervised_mix" else "finite number") in err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_wrong_leaf_type_exits_2_with_one_line(self, data):
        path, default = data.draw(st.sampled_from(CONFIG_LEAVES), label="leaf")
        value = data.draw(wrong_type(path, default), label="value")
        cfg = value
        for key in reversed(path):
            cfg = {key: cfg}
        command = path[0]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(cfg), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(config), "--out", tmp])
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestTheory:
    def test_default_prints_prediction(self, capsys):
        assert main(["theory"]) == 0
        out = capsys.readouterr().out
        assert "p_d12" in out
        assert "lambda tight range" in out

    def test_preset_policy_delta_sweep(self, tmp_path, capsys):
        cfg = {
            "theory": {
                "kind": "dual",
                "p12": 0.65,
                "p21r": 0.73,
                "delta": [0.05, 0.1, 0.2],
                "policy": {"alpha": 0.30, "beta": 0.28, "gamma": 0.42},
            }
        }
        path = write_config(tmp_path, cfg)
        assert main(["theory", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        data_lines = [ln for ln in out.splitlines() if ln.startswith("0.")]
        assert len(data_lines) == 3
        # the file holds exactly the table printed after the three lambda lines
        table = out.split("\n", 3)[3]
        assert (tmp_path / "o" / "theory.csv").read_bytes() == table.encode("utf-8")

    def test_alpha_one_delta_zero_prints_perfect_accuracy(self, tmp_path, capsys):
        cfg = {
            "theory": {
                "kind": "dual",
                "p12": 0.6,
                "p21r": 0.7,
                "delta": 0.0,
                "policy": {"alpha": 1.0, "beta": 0.0, "gamma": 0.0},
            }
        }
        assert main(["theory", "--config", write_config(tmp_path, cfg)]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.split(",")[-2] == "1.0"  # p_d12 column

    def test_infeasible_lambda_names_cell(self, tmp_path, capsys):
        cfg = {"theory": {"p12": 0.6, "p21r": 0.7, "lambda": 0.2}}
        assert main(["theory", "--config", write_config(tmp_path, cfg)]) == 2
        assert "(1, 0)" in capsys.readouterr().err

    def test_triple_table(self, tmp_path, capsys):
        cfg = {"theory": {"kind": "triple", "delta": [0.1, 0.3]}}
        assert main(["theory", "--config", write_config(tmp_path, cfg)]) == 0
        assert "m_factor" in capsys.readouterr().out

    def test_triple_gamma_out_of_range_names_gamma(self, tmp_path, capsys):
        cfg = {"theory": {"kind": "triple", "gamma": 2.0}}
        assert main(["theory", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == "error: gamma must be a number in [0, 1], got 2.0\n"

    def test_triple_zero_case_mass_exits_2(self, tmp_path, capsys):
        cfg = {"theory": {"kind": "triple", "q12": 0, "delta": 0}}
        assert main(["theory", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr() == (
            "", "error: proportional policy undefined: case 1.1 and case 1.2 both have zero mass\n"
        )


class TestVerify:
    def test_passes_with_defaults(self, tmp_path, capsys):
        assert main(["verify", "--draws", "60", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "cell(1,0,0)" in out  # errata always emitted
        assert (tmp_path / "errata.txt").exists()

    def test_tolerance_is_fixed(self, tmp_path, capsys):
        # verify gates at 1e-12 always: neither a config field nor a flag moves it
        cfg = write_config(tmp_path, {"verify": {"tolerance": 1.0}})
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", "error: unknown config field: verify.tolerance\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--tolerance", "1.0"])
        assert exit_info.value.code == 2

    def test_zero_draws_rejected(self, capsys):
        assert main(["verify", "--draws", "0"]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_nan_difference_fails(self, monkeypatch, capsys):
        def nan_accuracy(spec):
            return OracleResult(accuracy=math.nan, case_masses=(0.0, 0.0, 1.0))

        monkeypatch.setattr(cli, "enumerate_dual", nan_accuracy)
        assert main(["verify", "--draws", "3"]) == 1
        out = capsys.readouterr().out
        assert "max |difference|: nan" in out and "FAIL" in out


class TestSimulate:
    def test_dual_simulation(self, tmp_path, capsys):
        cfg = {"simulate": {"n": 20000, "seed": 3}}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out and "alpha_hat" in out
        assert (tmp_path / "s" / "simulate.csv").exists()

    def test_triple_simulation(self, tmp_path, capsys):
        cfg = {"simulate": {"kind": "triple", "n": 20000, "seed": 3}}
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0

    @pytest.mark.parametrize(
        "p12, z",
        [(0.999, "z: inf"), (1.0, "z: 0.000")],
        ids=["miss", "exact"],
    )
    def test_zero_stderr_z(self, tmp_path, capsys, p12, z):
        cfg = {"simulate": {"n": 10, "p12": p12, "p21r": 1.0, "delta": 0.0,
                            "policy": {"alpha": 0, "beta": 0, "gamma": 1}}}
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "estimate: 1.0 stderr: 0.0" in out
        assert out.splitlines()[2].endswith(z)


class TestTrain:
    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, TINY_TRAIN)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", path, "--out", str(out1)]) == 0
        assert main(["train", "--config", path, "--out", str(out2)]) == 0
        for name in ("accuracy.csv", "estimators.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_orders_phases(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_TRAIN)
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "vanilla" in out and "dual" in out and "multistep" in out
        assert "multistep-minus-dual" in out

    def test_summary_reports_the_gain_the_estimators_compare(self, tmp_path):
        # without the dual phase the estimators compare vanilla with multistep,
        # and the summary must report that gain as well
        cfg = {
            "train": {
                "world": {"k": 3, "m": 4, "s": 2, "skew": 0.0, "seed": 0},
                "corpus": {"parallel_per_pair": 20, "monolingual_per_language": 30},
                "train": {"supervised_steps": 20, "dual_steps": 20, "multistep_steps": 20},
                "seeds": [1, 2],
                "phases": ["vanilla", "multistep"],
            }
        }
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0

        def column(name, index):
            lines = (out / name).read_text(encoding="utf-8").splitlines()[1:]
            return [line.split(",")[index] for line in lines]

        assert set(column("estimators.csv", 2)) == {"vanilla->multistep"}
        gains = [g for g in column("summary.csv", 0) if "-minus-" in g]
        assert gains == ["multistep-minus-vanilla"]
        summary = (out / "summary.csv").read_bytes()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == summary

    @pytest.mark.parametrize(
        "phases, gains, comparisons",
        [
            (["dual"], [], []),
            (["dual", "multistep"], ["multistep-minus-dual"], ["dual->multistep"]),
        ],
        ids=["dual", "dual-multistep"],
    )
    def test_only_listed_phases_are_written(self, tmp_path, phases, gains, comparisons):
        # vanilla (and dual before multistep) is trained as a start, but a
        # phase left out of train.phases writes no row to any of the three files
        cfg = {
            "train": {
                "world": {"k": 3, "m": 4, "s": 2, "skew": 0.0, "seed": 0},
                "corpus": {"parallel_per_pair": 20, "monolingual_per_language": 30},
                "train": {"supervised_steps": 20, "dual_steps": 20, "multistep_steps": 20},
                "seeds": [1, 2],
                "phases": phases,
            }
        }
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0

        def column(name, index):
            lines = (out / name).read_text(encoding="utf-8").splitlines()[1:]
            return [line.split(",")[index] for line in lines]

        assert set(column("accuracy.csv", 2)) == set(phases)
        names = column("summary.csv", 0)
        assert sorted(set(names) - set(gains)) == sorted(phases)
        assert [g for g in names if "-minus-" in g] == gains
        assert sorted(set(column("estimators.csv", 2))) == comparisons

    @pytest.mark.parametrize(
        "field",
        [
            "supervised_steps", "dual_steps", "multistep_steps", "supervised_batch",
            "reconstruction_batch", "parallel_per_pair", "monolingual_per_language",
        ],
    )
    def test_bad_phase_steps_rejected_before_any_training(
        self, tmp_path, capsys, monkeypatch, field
    ):
        # a train knob is checked when the config loads, and the corpus sizes
        # of every phase that trains before the world is built, not after the
        # earlier phases have run; the one-line error names the config field
        # and its value
        block = "train" if field in DEFAULT_CONFIG["train"]["train"] else "corpus"
        steps = field.endswith("_steps")
        value, rule = ((-1, "must be a nonnegative integer") if steps else
                       (0, f"must be an integer in [1, {MAX_ENTRIES}]"))

        def no_training(*args):
            raise AssertionError("the world was built before the config was checked")

        monkeypatch.setattr(cli, "generate_world", no_training)
        path = write_config(tmp_path, {"train": {block: {field: value}}})
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config field train.{block}.{field} {rule}, got {value}\n"

    def test_monolingual_size_unchecked_when_only_vanilla_trains(self, tmp_path):
        cfg = {
            "train": {
                "world": {"k": 3, "m": 4, "s": 2, "skew": 0.0, "seed": 0},
                "corpus": {"parallel_per_pair": 10, "monolingual_per_language": 0},
                "train": {"supervised_steps": 10, "supervised_batch": 4},
                "seeds": [1],
                "phases": ["vanilla"],
            }
        }
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "accuracy.csv").exists()

    def test_summary_gains_are_paired_seed_means(self, tmp_path):
        # each <later>-minus-<earlier> row is the mean over seeds of that
        # seed's p_hat difference on the primary pair, from accuracy.csv
        cfg = {
            "train": {
                "world": {"k": 3, "m": 8, "s": 2, "skew": 0.0, "seed": 0},
                "corpus": {"parallel_per_pair": 20, "monolingual_per_language": 100},
                "train": {"supervised_steps": 100, "dual_steps": 200, "multistep_steps": 200,
                          "supervised_batch": 8},
                "seeds": [1, 2],
            }
        }
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        p_hat = {}
        for line in (out / "accuracy.csv").read_text(encoding="utf-8").splitlines()[1:]:
            _, seed, phase, i, j, value, _ = line.split(",")
            if (i, j) == ("0", "1"):
                p_hat[(phase, seed)] = float(value)
        for command in (["train", "--config", write_config(tmp_path, cfg)], ["report"]):
            assert main(command + ["--out", str(out)]) == 0
            gains = {}
            for line in (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]:
                name, src, dst, runs, value = line.split(",")
                if "-minus-" in name:
                    assert (src, dst, runs) == ("0", "1", "2")
                    gains[name] = float(value)
            assert sorted(gains) == ["dual-minus-vanilla", "multistep-minus-dual"]
            for name, gain in gains.items():
                later, earlier = name.split("-minus-")
                paired = np.mean([p_hat[(later, s)] - p_hat[(earlier, s)] for s in ("1", "2")])
                assert abs(paired) > 1e-6
                assert gain == pytest.approx(paired, rel=0, abs=1e-12)

    def test_two_language_world_with_multistep_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_TRAIN))
        cfg["train"]["world"]["k"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "degenerates" in capsys.readouterr().err

    def test_seed_flag_overrides_seed_list(self, tmp_path):
        cfg = json.loads(json.dumps(TINY_TRAIN))
        cfg["train"]["phases"] = ["vanilla"]
        cfg["train"]["seeds"] = [1, 2, 3]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["train", "--config", path, "--out", str(out), "--seed", "9"]) == 0
        lines = (out / "accuracy.csv").read_text().splitlines()
        seeds = {ln.split(",")[1] for ln in lines[1:]}
        assert seeds == {"9"}

    def test_overflowing_skew_exits_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_TRAIN))
        cfg["train"]["world"]["skew"] = 800.0
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: skew 800.0 is too large: some language puts no mass on a cluster\n"
        )

    def test_skew_leaving_a_cluster_empty_exits_2(self, tmp_path, capsys):
        # on the default world, skew 200 leaves one cluster of language 1 with
        # zero mass, so build_corpus could not draw a target inside it
        cfg = json.loads(json.dumps(TINY_TRAIN))
        cfg["train"]["world"] = {**DEFAULT_CONFIG["train"]["world"], "skew": 200.0}
        cfg["train"]["train"].update(supervised_steps=5, dual_steps=5, multistep_steps=5)
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: skew 200.0 is too large: some language puts no mass on a cluster\n"
        )

    def test_empty_phase_list_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_TRAIN))
        cfg["train"]["phases"] = []
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: train.phases must list at least one phase\n"
        assert not out.exists()

    def test_repeated_seed_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_TRAIN))
        cfg["train"]["phases"] = ["vanilla"]
        cfg["train"]["seeds"] = [1, 2, 1]
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: train.seeds must not repeat a seed, got [1] twice or more\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "corpus, what",
        [
            ({"parallel_per_pair": -1},
             "error: config field train.corpus.parallel_per_pair must be an integer in "
             f"[1, {MAX_ENTRIES}], got -1\n"),
            ({"monolingual_per_language": -1},
             "error: config field train.corpus.monolingual_per_language must be an integer in "
             f"[1, {MAX_ENTRIES}], got -1\n"),
            ({"within_cluster": "nope"}, "within_cluster"),
            # an OverflowError traceback inside numpy
            ({"parallel_per_pair": 2**64}, "parallel_per_pair must be an integer in [1, "),
        ],
        ids=["parallel_per_pair", "monolingual_per_language", "within_cluster",
             "parallel_per_pair-2**64"],
    )
    def test_bad_corpus_setting_exits_2(self, tmp_path, capsys, corpus, what):
        cfg = json.loads(json.dumps(TINY_TRAIN))
        cfg["train"]["corpus"].update(corpus)
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and what in err
        assert not out.exists()


class TestPlan:
    """The trainer calls of one run, read from the plan: no translator is built."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def trained(*args):
            raise AssertionError("making the plan called a trainer")

        for name in ("train_supervised", "dual_learning", "multistep_dual_learning"):
            monkeypatch.setattr(cli, name, trained)

    @staticmethod
    def plan(k=3, phases=("vanilla", "dual", "multistep"), run_seed=1):
        cfg = load_config(None)
        cfg["train"]["world"]["k"] = k
        cfg["train"]["phases"] = list(phases)
        return cli._plan(cfg, run_seed)[2]

    @pytest.mark.parametrize("k, phases, counts", [
        (3, ("vanilla", "dual", "multistep"), [6, 3, 1]),
        (4, ("vanilla", "dual", "multistep"), [12, 5, 1]),
        (3, ("vanilla",), [6, 0, 0]),
        (3, ("dual",), [6, 1, 0]),
    ], ids=["default", "k4", "vanilla", "dual"])
    def test_calls_per_phase(self, k, phases, counts):
        # the trainer call counts that benchmarks/tracing.py reads on a traced run
        calls = self.plan(k, phases)
        assert [ph for ph, _, _ in calls] == [
            ph for ph, count in zip(cli.PHASE_ORDER, counts) for _ in range(count)
        ]

    def test_pairs_in_call_order(self):
        # every ordered pair; then the primary pair and each pivot with one of
        # it, which multistep reads; then multistep's one call
        calls = self.plan(k=4)
        assert [pair for _, pair, _ in calls] == [
            *[(i, j) for i in range(4) for j in range(4) if i != j],
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), None,
        ]

    @pytest.mark.parametrize("run_seed", [1, 2**64 - 1])
    def test_each_call_takes_its_phase_seeds_sub_seed(self, run_seed):
        calls = self.plan(k=4, run_seed=run_seed)
        _, *phase_seeds = cli._sub_seeds(run_seed, 4)
        tb = DEFAULT_CONFIG["train"]["train"]
        knobs = {key: value for key, value in tb.items() if not key.endswith("_steps")}
        for ph, phase_seed, steps in zip(
            cli.PHASE_ORDER, phase_seeds, ("supervised_steps", "dual_steps", "multistep_steps")
        ):
            cfgs = [c for p, _, c in calls if p == ph]
            # multistep's one call takes the phase seed itself
            seeds = [phase_seed] if ph == "multistep" else cli._sub_seeds(phase_seed, len(cfgs))
            assert cfgs == [TrainConfig(steps=tb[steps], seed=s, **knobs) for s in seeds]


class TestUnwritableOut:
    """An --out that names an existing file is invalid input, reported on
    one line, not a traceback."""

    VANILLA = {"train": {**TINY_TRAIN["train"], "phases": ["vanilla"]}}

    @staticmethod
    def no_training(*args):
        pytest.fail("a seed trained before --out was checked")

    @pytest.mark.parametrize(
        "argv, cfg",
        [
            (["theory"], None),
            (["verify", "--draws", "2"], None),
            (["simulate"], {"simulate": {"n": 1000}}),
            (["train"], VANILLA),
        ],
        ids=["theory", "verify", "simulate", "train"],
    )
    def test_out_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch, argv, cfg):
        monkeypatch.setattr(cli, "run_training_experiment", self.no_training)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        argv = argv + ["--out", str(taken)]
        if cfg is not None:
            argv += ["--config", write_config(tmp_path, cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {taken}/") and err.count("\n") == 1
        assert taken.read_text(encoding="utf-8") == "not a directory\n"

    def test_train_out_under_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_training_experiment", self.no_training)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        out = taken / "sub"
        path = write_config(tmp_path, self.VANILLA)
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}/") and err.count("\n") == 1


class TestLearnerBitsPinned:
    """Final thetas of a tiny run that exercises every trainer branch
    (replay, batched reconstruction, two pivots with pivot updates),
    pinned by sha256 so a refactor of the learner cannot move one bit."""

    DIGESTS = {
        "vanilla": "7f368005895666516e69cd37cbf9fb9f177b7735fc47f0cea9b8f2b4a506af8a",
        "dual": "9436bc21c10963e02d2d51aee32c1a6e86ea8936aa22041875ba55d5a668a4c0",
        "multistep": "8d09469c5a717d7b79477dfea7a6b7025bbfeda3d782169d8d2d7884e70a1814",
    }

    def test_final_thetas_match_pinned_digests(self):
        cfg = load_config(None)
        cfg["train"]["world"] = {"k": 4, "m": 4, "s": 2, "skew": 0.5, "seed": 3}
        cfg["train"]["corpus"] = {
            "parallel_per_pair": 20, "monolingual_per_language": 50, "within_cluster": "mu",
        }
        cfg["train"]["train"].update(
            supervised_steps=60, dual_steps=120, multistep_steps=150, supervised_batch=4,
            reconstruction_batch=2, supervised_mix=0.25, update_pivots=True,
        )
        phases, _, _ = run_training_experiment(cfg, 11)
        digests = {}
        for phase, ts in phases.items():
            h = hashlib.sha256()
            for key in sorted(ts):
                h.update(np.ascontiguousarray(ts[key].theta).tobytes())
            digests[phase] = h.hexdigest()
        assert digests == self.DIGESTS


class TestReport:
    def test_resummarizes_existing_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "o"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        first = (out / "summary.csv").read_bytes()
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mean_p_hat" in printed
        assert (out / "summary.csv").read_bytes() == first == printed.encode("utf-8")

    def test_reports_what_train_wrote_on_a_skewed_world(self, tmp_path, capsys):
        # some translators here are correct on every source, where the mu-weighted
        # sum can round one ulp above 1; report's [0, 1] check must accept train's rows
        cfg = {
            "train": {
                "world": {"k": 3, "m": 4, "s": 2, "skew": 0.5, "seed": 0},
                "corpus": {"parallel_per_pair": 20, "monolingual_per_language": 30},
                "train": {"supervised_steps": 20, "dual_steps": 20, "multistep_steps": 20},
                "seeds": [1, 2],
            }
        }
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert ",1.0," in (out / "accuracy.csv").read_text(encoding="utf-8")
        assert main(["report", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_dir_rejected(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize(
        "row, where",
        [
            (b"abc,1,vanilla,0,1\n", "line 3"),
            (b"abc,x,vanilla,0,1,0.5,0.5\n", "line 3"),
            (b"abc,1,vanilla,0.5,1,0.5,0.5\n", "line 3"),
            (b"abc,1,vanilla,0,one,0.5,0.5\n", "line 3"),
            (b"abc,1,vanilla,0,1,high,0.5\n", "line 3"),
            (b"abc,1,vanilla,0,1,0.5,0.5\xff\xfe\n", "cannot read"),
            (b"abc,1,vanilla,0,1,nan,0.5\n", "line 3"),
            (b"abc,1,vanilla,0,1,inf,0.5\n", "line 3"),
            (b"abc,1,vanilla,0,1,7.0,0.5\n", "line 3"),
            (b"abc,1,vanilla,0,1,0.5,-0.1\n", "line 3"),
            (b"abc,1,bogus,0,1,0.5,0.5\n", "line 3"),
            # rows train never writes: a seed train.seeds rejects, a pair that is not two languages
            (b"abc,-1,vanilla,0,1,0.5,0.5\n", "line 3: seed must be"),
            (b"abc,18446744073709551616,vanilla,0,1,0.5,0.5\n", "line 3: seed must be"),
            (b"abc,1,vanilla,-1,1,0.5,0.5\n", "line 3: src and dst must be"),
            (b"abc,1,vanilla,0,-1,0.5,0.5\n", "line 3: src and dst must be"),
            (b"abc,1,vanilla,1,1,0.5,0.5\n", "line 3: src and dst must be"),
            # integer forms train never writes, each read by int() as a valid id
            (b"abc,1_0,vanilla,0,1,0.5,0.5\n", "line 3: seed, src and dst must be plain decimals"),
            (b"abc, 2 ,vanilla,0,1,0.5,0.5\n", "line 3: seed, src and dst must be plain decimals"),
            (b"abc,1,vanilla,+0,2,0.5,0.5\n", "line 3: seed, src and dst must be plain decimals"),
            # runs of two configs must not be averaged into one summary
            (b"def,2,vanilla,0,1,0.9,0.9\n", "line 3: config_hash def differs from abc on line 2"),
            # a seed without a row other seeds hold would average over other seeds
            (b"abc,2,vanilla,1,0,0.9,0.9\n", "seed 1 has no row for phase vanilla, pair (1, 0)"),
        ],
        ids=["short-row", "seed", "src", "dst", "p_hat", "not-utf8",
             "p_hat-nan", "p_hat-inf", "p_hat-above-1", "p_expected-below-0", "phase",
             "seed-negative", "seed-too-large", "src-negative", "dst-negative", "src-equals-dst",
             "seed-underscore", "seed-spaces", "src-plus-sign",
             "config-hash", "seed-lacks-row"],
    )
    def test_malformed_accuracy_csv_exits_2(self, tmp_path, capsys, row, where):
        header = ",".join(cli.ACCURACY_HEADER).encode() + b"\n"
        path = tmp_path / "accuracy.csv"
        path.write_bytes(header + b"abc,1,vanilla,0,1,0.5,0.5\n" + row)
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and where in err

    def test_gain_over_different_seed_sets_exits_2(self, tmp_path, capsys):
        # seed 2 has no dual row: a dual-minus-vanilla mean over seeds {1}
        # minus one over {1, 2} is no paired gain
        path = tmp_path / "accuracy.csv"
        path.write_text(
            ",".join(cli.ACCURACY_HEADER) + "\n"
            + "abc,1,vanilla,0,1,0.5,0.5\n"
            + "abc,1,dual,0,1,0.9,0.9\n"
            + "abc,2,vanilla,0,1,0.1,0.1\n",
            encoding="utf-8",
        )
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: seed 2 has no row for phase dual, pair (0, 1), "
            "which another seed holds\n"
        )
        assert not (tmp_path / "summary.csv").exists()

    def test_header_only_accuracy_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "accuracy.csv"
        path.write_text(",".join(cli.ACCURACY_HEADER) + "\n", encoding="utf-8")
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err and "no result rows" in captured.err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("other_hash", ["abc", "def"])
    def test_duplicate_row_names_both_lines(self, tmp_path, capsys, other_hash):
        path = tmp_path / "accuracy.csv"
        path.write_text(
            ",".join(cli.ACCURACY_HEADER) + "\n"
            + "abc,1,vanilla,0,1,0.5,0.5\n"
            + "abc,2,vanilla,0,1,0.6,0.6\n"
            + f"{other_hash},1,vanilla,0,1,0.9,0.9\n",
            encoding="utf-8",
        )
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err
        assert "line 4" in captured.err and "line 2" in captured.err


class TestStdoutPinned:
    """sha256 of stdout and the exit code of fixed commands, recorded before a
    refactor of the formula and oracle layers: output must not move one byte."""

    TRIPLE_SWEEP = {
        "theory": {"kind": "triple", "delta": [0.0, 0.1, 0.35], "lambda1": 0.005, "lambda2": 0.002}
    }
    TRIPLE_SIMULATE = {
        "simulate": {"kind": "triple", "n": 50000, "seed": 4, "lambda1": 0.005, "lambda2": 0.002}
    }
    ERRATA = "92a2055ffac46fea19406d9fa25d0aa060bb899f8bf223299851047941efe1a2"

    @pytest.mark.parametrize(
        "argv, cfg, code, digest",
        [
            (["theory"], None, 0,
             "8cff58e122372671e4437dfd4fc6eb2ba044eb51802e29c8be25c164222e7020"),
            (["theory"], TRIPLE_SWEEP, 0,
             "1997b6088b508ec2d8b1bcdfb6bc77051c150259daae3dd37c266185a430f197"),
            (["simulate"], None, 0,
             "62ec61fb6bc5fa9a152e1506884a9ff98ed6a3231257a2918e9702a7a4ee2c45"),
            (["simulate"], TRIPLE_SIMULATE, 0,
             "cc9f16a1404eb14c92a89b8427f021c0207894df2b6d8b511f253551a5c89fe5"),
            (["verify", "--draws", "200"], None, 0,
             "50d8b43147b5b01f8319005b265a90bab3309b3cbfd968e95dc30a913514c5c2"),
        ],
        ids=["theory", "theory-triple-sweep", "simulate-dual", "simulate-triple", "verify"],
    )
    def test_stdout_digest(self, tmp_path, capsys, argv, cfg, code, digest):
        argv = argv + ["--out", str(tmp_path / "o")]
        if cfg is not None:
            argv += ["--config", write_config(tmp_path, cfg)]
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
        if argv[0] == "verify":
            errata = (tmp_path / "o" / "errata.txt").read_bytes()
            assert hashlib.sha256(errata).hexdigest() == self.ERRATA

    def test_verify_failure_digest(self, tmp_path, capsys, monkeypatch):
        # every multistep formula off by 1e-9; the FAIL line names a
        # TripleOutcomeParams with np.float64 fields
        real = cli.predict_multistep

        def off(params, policy):
            pred = real(params, policy)
            return dataclasses.replace(pred, q_m12=pred.q_m12 + 1e-9)

        monkeypatch.setattr(cli, "predict_multistep", off)
        self.test_stdout_digest(
            tmp_path, capsys, ["verify", "--draws", "200"], None, 1,
            "01b3420817951475ed22ef2e17adee50fcee8b51940eda572743ef0b7c831671",
        )
