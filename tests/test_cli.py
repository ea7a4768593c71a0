import contextlib
import dataclasses
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from balancecast import cli, ebm, errors, gbt, stacking
from balancecast import (
    SyntheticConfig, ebm_predict_batch, evaluate, expanding_window_folds, generate_synthetic,
    load_csv, load_model, model_spec, save_csv, synthetic_schema,
)
from balancecast.cli import main
from balancecast.data import align_horizon
from conftest import flat_chain, legacy_model_doc, tree_predict


SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main(list(argv))


def run_process(*argv, cwd=None):
    """Run the CLI in a child process; returns (exit code, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "balancecast", *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )
    return proc.returncode, proc.stderr


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(
        "synth",
        "--n-rows", "700",
        "--seed", "3",
        "--noise-sd", "2.0",
        "--spike-prob", "0.03",
        "--spike-scale", "40",
        "--out", str(out),
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_dataset_and_sidecar(self, data_dir):
        header = (data_dir / "dataset.csv").read_text().splitlines()[0]
        assert header == (
            "timestamp,spot,consumption,hydro,wind,heating,"
            "hour_sin,hour_cos,month_sin,month_cos,target"
        )
        sidecar = json.loads((data_dir / "truth.json").read_text())
        assert set(sidecar) == set(synthetic_schema().names)

    def test_rerun_byte_identical(self, data_dir, tmp_path):
        again = tmp_path / "again"
        code = run(
            "synth", "--n-rows", "700", "--seed", "3", "--noise-sd", "2.0",
            "--spike-prob", "0.03", "--spike-scale", "40", "--out", str(again),
        )
        assert code == 0
        assert (again / "dataset.csv").read_bytes() == (
            data_dir / "dataset.csv"
        ).read_bytes()
        assert (again / "truth.json").read_bytes() == (
            data_dir / "truth.json"
        ).read_bytes()

    def test_zero_rows_is_usage_error(self, tmp_path):
        assert run("synth", "--n-rows", "0", "--out", str(tmp_path)) == 2

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path):
        code, stderr = run_process("synth", "--seed", "-1", "--out", "out", cwd=tmp_path)
        assert_clean_error(code, stderr, 2)
        assert stderr.splitlines() == ["error: bad synth config: seed must be an integer >= 0, got -1"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_under_a_regular_file_exits_3(self, tmp_path, out):
        (tmp_path / "afile").write_text("keep\n")
        code, stderr = run_process("synth", "--n-rows", "20", "--out", out, cwd=tmp_path)
        assert code == 3
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
        assert (tmp_path / "afile").read_text() == "keep\n"


# One command per kind of work that fits models; each gets ``--out``.
FITTING_COMMANDS = {
    "train": ["train", "--model", "stacked", "--outer-rounds", "5", "--meta-n-trees", "3"],
    "evaluate": ["evaluate", "--initial-train", "400", "--test-len", "134"],
    "grid": ["grid", "--model", "ebm", "--param", "outer_rounds=5,6",
             "--initial-train", "400", "--test-len", "134"],
}


class TestOutResolvedBeforeFitting:
    @pytest.mark.parametrize("command", FITTING_COMMANDS)
    def test_out_under_a_regular_file_exits_3(self, data_dir, tmp_path, command):
        (tmp_path / "afile").write_text("keep\n")
        code, stderr = run_process(
            *FITTING_COMMANDS[command], "--data", str(data_dir / "dataset.csv"),
            "--out", "afile/sub", cwd=tmp_path,
        )
        assert code == 3
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    @pytest.mark.parametrize("command", FITTING_COMMANDS)
    def test_no_model_is_fitted(self, data_dir, tmp_path, monkeypatch, command):
        fits = []

        def refuse(name):
            def fit(*args, **kwargs):
                fits.append(name)
                raise AssertionError(f"{name} called before --out was resolved")

            return fit

        for module in (gbt, stacking):
            monkeypatch.setattr(module, "gbt_train", refuse("gbt_train"))
        for module in (ebm, stacking):
            monkeypatch.setattr(module, "ebm_train", refuse("ebm_train"))
        (tmp_path / "afile").write_text("keep\n")
        code = run(
            *FITTING_COMMANDS[command], "--data", str(data_dir / "dataset.csv"),
            "--out", str(tmp_path / "afile" / "sub"),
        )
        assert code == 3
        assert fits == []


# One command per kind of work that fits gbt models through ``KINDS``.
GBT_COMMANDS = {
    "train": ["train", "--model", "gbt"],
    "evaluate": ["evaluate", "--models", "naive,gbt", "--initial-train", "400", "--test-len", "134"],
    "grid": ["grid", "--model", "gbt", "--param", "n_trees=2,3",
             "--initial-train", "400", "--test-len", "134"],
}


class TestFailedCommandLeavesNoOut:
    @pytest.mark.parametrize("command", GBT_COMMANDS)
    def test_failed_fit_exits_4(self, data_dir, tmp_path, monkeypatch, capsys, command):
        def degenerate(*args, **kwargs):
            raise errors.DegenerateLeafError("leaf weight undefined: H + lambda = 0.0")

        # The KINDS entries look gbt_train up on the module at call time.
        monkeypatch.setattr(gbt, "gbt_train", degenerate)
        out = tmp_path / "out"
        code = run(*GBT_COMMANDS[command], "--data", str(data_dir / "dataset.csv"), "--out", str(out))
        assert code == 4
        assert capsys.readouterr().err == "error: leaf weight undefined: H + lambda = 0.0\n"
        assert not out.exists()

    def test_naive_fold_without_history_exits_4(self, tmp_path, capsys):
        assert run("synth", "--n-rows", "300", "--seed", "1", "--out", str(tmp_path / "s")) == 0
        out = tmp_path / "e"
        code = run(
            "evaluate", "--data", str(tmp_path / "s" / "dataset.csv"), "--models", "naive",
            "--initial-train", "10", "--test-len", "50", "--out", str(out),
        )
        assert code == 4
        assert "need 32 steps of history" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    @pytest.mark.parametrize("kind", ["naive", "gbt", "ebm", "stacked"])
    def test_each_kind_trains(self, data_dir, tmp_path, kind):
        out = tmp_path / kind
        code = run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", kind,
            "--out", str(out), "--horizon-steps", "32",
            "--n-trees", "5", "--outer-rounds", "5", "--max-bins", "16",
            "--meta-n-trees", "3",
        )
        assert code == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["kind"] == kind
        assert doc["horizon_steps"] == 32

    def test_ebm_file_contains_shapes_and_intercept(self, data_dir, tmp_path):
        out = tmp_path / "ebm"
        run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", "ebm",
            "--out", str(out), "--outer-rounds", "5", "--max-bins", "16",
        )
        doc = json.loads((out / "model.json").read_text())
        assert "shapes" in doc["model"] and "intercept" in doc["model"]

    def test_loaded_model_predicts_like_memory(self, data_dir, tmp_path):
        out = tmp_path / "roundtrip"
        run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", "ebm",
            "--out", str(out), "--outer-rounds", "8", "--max-bins", "16",
        )
        _, horizon, model = load_model(out / "model.json")
        raw = load_csv(data_dir / "dataset.csv", synthetic_schema())
        aligned = align_horizon(raw, horizon)
        from balancecast import EbmConfig, ebm_train

        memory = ebm_train(
            aligned,
            EbmConfig(outer_rounds=8, learning_rate=0.05, max_bins=16),
        )
        rows = aligned.features[:100]
        assert np.array_equal(
            ebm_predict_batch(model, rows), ebm_predict_batch(memory, rows)
        )

    def test_unknown_kind_usage_error(self, data_dir, tmp_path):
        code = run(
            "train", "--data", str(data_dir / "dataset.csv"),
            "--model", "sarimax", "--out", str(tmp_path),
        )
        assert code == 2

    def test_missing_data_file(self, tmp_path):
        code = run(
            "train", "--data", str(tmp_path / "nope.csv"), "--model", "naive",
            "--out", str(tmp_path),
        )
        assert code == 3


def _subclasses(cls):
    return [cls, *(s for sub in cls.__subclasses__() for s in _subclasses(sub))]


# The exit-code contract of cli.py: 3 unless listed here.
EXIT_CODES = {
    "UsageError": 2,
    "UnsupportedModelError": 2,
    "DegenerateLeafError": 4,
    "InsufficientHistoryError": 4,
}


class TestExitCodes:
    """main ends on an error with one ``error:`` line and the error's exit
    code. The errors are raised where --data is read; no file is touched."""

    def _train_raising(self, monkeypatch, tmp_path, capsys, exc):
        def load_csv(*_args):
            raise exc

        monkeypatch.setattr(cli, "load_csv", load_csv)
        code = run(
            "train", "--data", str(tmp_path / "data.csv"), "--model", "naive",
            "--out", str(tmp_path / "out"),
        )
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "error", _subclasses(errors.BalancecastError), ids=lambda cls: cls.__name__
    )
    def test_each_error_class_exits_with_its_code(self, monkeypatch, tmp_path, capsys, error):
        code, err = self._train_raising(monkeypatch, tmp_path, capsys, error("boom"))
        assert code == error.exit_code == EXIT_CODES.get(error.__name__, 3)
        assert err == "error: boom\n"

    @pytest.mark.parametrize(
        "exc, expected",
        [
            (PermissionError(13, "Permission denied", "data.csv"), 3),
            (OSError(28, "No space left on device"), 3),
            (ZeroDivisionError("float division by zero"), 4),
            (FloatingPointError("overflow encountered"), 4),
        ],
        ids=["PermissionError", "OSError", "ZeroDivisionError", "FloatingPointError"],
    )
    def test_os_and_arithmetic_errors(self, monkeypatch, tmp_path, capsys, exc, expected):
        code, err = self._train_raising(monkeypatch, tmp_path, capsys, exc)
        assert code == expected
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestPredict:
    def test_naive_file_whose_horizons_differ_exits_3(self, data_dir, tmp_path):
        model = tmp_path / "m" / "model.json"
        assert run(
            "train", "--model", "naive", "--horizon-steps", "32",
            "--data", str(data_dir / "dataset.csv"), "--out", str(model.parent),
        ) == 0
        doc = json.loads(model.read_text())
        doc["model"]["horizon_steps"] = 4
        model.write_text(json.dumps(doc))
        code, stderr = run_process(
            "predict", "--model", str(model),
            "--data", str(data_dir / "dataset.csv"), "--out", str(tmp_path / "p"),
        )
        assert_clean_error(code, stderr, 3)
        assert not (tmp_path / "p").exists()

    def test_predictions_written(self, data_dir, tmp_path):
        model_dir = tmp_path / "m"
        run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", "gbt",
            "--out", str(model_dir), "--n-trees", "4",
        )
        out = tmp_path / "p"
        code = run(
            "predict", "--data", str(data_dir / "dataset.csv"),
            "--model", str(model_dir / "model.json"), "--out", str(out),
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "issue_timestamp,target_timestamp,prediction"
        # 700 rows aligned over 32 steps leaves 668 predictions.
        assert len(lines) == 1 + 668
        issue, target_ts, _ = lines[1].split(",")
        assert int(target_ts) - int(issue) == 32


    def test_timestamp_outside_int64_exits_3(self, data_dir, tmp_path, capsys):
        assert run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", "naive",
            "--out", str(tmp_path / "m"),
        ) == 0
        lines = (data_dir / "dataset.csv").read_text().splitlines(keepends=True)
        lines[5] = "99999999999999999999" + lines[5][lines[5].index(","):]
        data = tmp_path / "dataset.csv"
        data.write_text("".join(lines))
        code = run(
            "predict", "--data", str(data), "--model", str(tmp_path / "m" / "model.json"),
            "--out", str(tmp_path / "p"),
        )
        assert code == 3
        assert "row 5: bad timestamp '99999999999999999999'" in capsys.readouterr().err

    def test_file_that_grows_while_read_exits_3(self, data_dir, tmp_path, monkeypatch, capsys):
        # load_csv sizes its arrays from the line breaks it counts first; a
        # count of 100 stands in for rows appended after that count.
        monkeypatch.setattr("balancecast.data._line_breaks", lambda path: 100)
        path, out = data_dir / "dataset.csv", tmp_path / "m"
        code = run("train", "--data", str(path), "--model", "naive", "--out", str(out))
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: file grew while it was read: more than 100 rows\n"
        )
        assert not out.exists()

    def test_field_over_csv_size_limit_exits_3(self, data_dir, tmp_path):
        assert run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", "naive",
            "--out", str(tmp_path / "m"),
        ) == 0
        lines = (data_dir / "dataset.csv").read_text().splitlines(keepends=True)
        cells = lines[10].split(",")
        cells[3] = "1" * 200_000
        lines[10] = ",".join(cells)
        data = tmp_path / "dataset.csv"
        data.write_text("".join(lines))
        code, stderr = run_process(
            "predict", "--data", str(data), "--model", str(tmp_path / "m" / "model.json"),
            "--out", str(tmp_path / "p"),
        )
        assert code == 3, stderr
        assert "Traceback" not in stderr and "row 10: field larger than field limit" in stderr
        assert not (tmp_path / "p").exists()


def _rename_features(doc):
    doc["model"]["schema"]["names"] = [n.upper() for n in doc["model"]["schema"]["names"]]


def _add_config_key(doc):
    doc["model"]["config"]["bogus"] = 1


MALFORMED = {
    "missing-model": lambda doc: doc.pop("model"),
    "missing-trees": lambda doc: doc["model"].pop("trees"),
    "json-list": None,
    "unknown-config-key": _add_config_key,
    "renamed-features": _rename_features,
}


def _first(model, leaf):
    """(tree, index) of the first leaf, or the first split, in the pre-order
    lists of a gbt model document's trees."""
    for tree in model["trees"]:
        for i, feature in enumerate(tree["feature"]):
            if (feature == -1) == leaf:
                return tree, i
    raise AssertionError("no such node")


def _set(key, leaf, value):
    def change(model):
        tree, i = _first(model, leaf)
        tree[key][i] = value
    return change


def _first_tree(change):
    def apply(model):
        change(model["trees"][0])
    return apply


# Values that a decoder without range checks accepts, after which predict
# raises an IndexError or quietly predicts garbage; each must exit 3.
BAD_VALUES = {
    "gbt-feature-99": ("gbt", _set("feature", False, 99)),
    "gbt-feature-negative": ("gbt", _set("feature", False, -2)),
    "gbt-weight-infinite": ("gbt", _set("value", True, math.inf)),
    "gbt-threshold-nan": ("gbt", _set("value", False, math.nan)),
    "ebm-shape-shorter-than-bins": ("ebm", lambda model: model["shapes"][0].pop()),
    "ebm-fewer-shapes-than-features": ("ebm", lambda model: model["shapes"].pop()),
    "ebm-cuts-unsorted": ("ebm", lambda model: model["bins"]["cuts"][0].reverse()),
    "ebm-cuts-empty": ("ebm", lambda model: model["bins"]["cuts"][0].clear()),
    # Trees are two parallel pre-order lists, ``feature`` (-1 at a leaf) and
    # ``value``; these break only that layout.
    "gbt-feature-true": ("gbt", _set("feature", False, True)),
    "gbt-feature-past-the-schema": ("gbt", _set("feature", False, len(synthetic_schema()))),
    "gbt-value-true": ("gbt", _set("value", True, True)),
    "gbt-value-string": ("gbt", _set("value", False, "0.5")),
    "gbt-weight-negative-infinite": ("gbt", _set("value", True, -math.inf)),
    "gbt-lists-unequal": ("gbt", _first_tree(lambda tree: tree["value"].pop())),
    "gbt-preorder-ends-early": ("gbt", _first_tree(lambda tree: (tree["feature"].pop(), tree["value"].pop()))),
    "gbt-preorder-leaves-nodes-over": (
        "gbt", _first_tree(lambda tree: (tree["feature"].append(-1), tree["value"].append(1.0)))
    ),
    "gbt-tree-empty": ("gbt", _first_tree(lambda tree: (tree["feature"].clear(), tree["value"].clear()))),
    "gbt-chain-past-the-bound": ("gbt", lambda model: model["trees"].append(flat_chain(gbt.MAX_DEPTH + 1))),
    "gbt-chain-5000-deep": ("gbt", lambda model: model["trees"].append(flat_chain(5000))),
}


class TestMalformedModel:
    @pytest.fixture(scope="class")
    def gbt_doc(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("gbt_model")
        assert run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", "gbt",
            "--out", str(out), "--n-trees", "2", "--max-depth", "2",
        ) == 0
        return json.loads((out / "model.json").read_text())

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_predict_exits_3_without_traceback(self, data_dir, tmp_path, gbt_doc, case):
        doc = json.loads(json.dumps(gbt_doc))
        if MALFORMED[case] is None:
            doc = [doc]
        else:
            MALFORMED[case](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, stderr = run_process(
            "predict", "--data", str(data_dir / "dataset.csv"),
            "--model", str(path), "--out", str(tmp_path / "p"),
        )
        assert code == 3, stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "p" / "predictions.csv").exists()

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_exits_3(self, data_dir, tmp_path, gbt_doc, ebm_model, case):
        kind, change = BAD_VALUES[case]
        doc = json.loads(json.dumps(gbt_doc) if kind == "gbt" else ebm_model.read_text())
        change(doc["model"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for command in ("predict", "explain"):
            code, stderr = run_process(
                command, "--data", str(data_dir / "dataset.csv"),
                "--model", str(path), "--out", str(tmp_path / command),
            )
            assert code == 3, stderr
            assert "Traceback" not in stderr
            assert any(line.startswith("error: ") for line in stderr.splitlines()), stderr
            assert not (tmp_path / command).exists()

    def test_tree_nested_too_deeply(self, data_dir, tmp_path, gbt_doc):
        depth = 1200
        deep = ('{"feature": 0, "threshold": 0.0, "left": ' * depth + '{"weight": 0.0}'
                + ', "right": {"weight": 1.0}}' * depth)
        doc = json.loads(json.dumps(gbt_doc))
        doc["model"]["trees"] = ["DEEP"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"DEEP"', deep))
        code, stderr = run_process(
            "predict", "--data", str(data_dir / "dataset.csv"),
            "--model", str(path), "--out", str(tmp_path / "p"),
        )
        assert code == 3, stderr
        assert "Traceback" not in stderr and "nested too deeply" in stderr

    def test_tree_980_deep_predicts_the_row_reference(self, data_dir, tmp_path, gbt_doc):
        # A chain of 980 splits, about as deep as a nested model file may
        # nest and the depth bound of flat ones, of 981 leaves: predict
        # partitions its rows until 64 leaves are left. The chain zigzags:
        # an even split k sends the rows of spot above 150 - 0.1 k right to
        # leaf k, an odd one those at or below -50 + 0.1 k left, so the rows
        # left narrow in on the middle. Both layouts must predict it.
        doc = json.loads(json.dumps(gbt_doc))
        spot = doc["model"]["schema"]["names"].index("spot")
        chain, text = gbt.TreeNode(weight=-1.0), '{"weight": -1.0}'
        features, values = [-1], [-1.0]
        for k in reversed(range(980)):
            leaf, leaf_text = gbt.TreeNode(0.125 * k), f'{{"weight": {0.125 * k!r}}}'
            if k % 2 == 0:
                threshold = 150.0 - 0.1 * k
                chain = gbt.TreeNode(None, spot, threshold, chain, leaf)
                sides = text, leaf_text
                features, values = [spot, *features, -1], [threshold, *values, 0.125 * k]
            else:
                threshold = -50.0 + 0.1 * k
                chain = gbt.TreeNode(None, spot, threshold, leaf, chain)
                sides = leaf_text, text
                features, values = [spot, -1, *features], [threshold, 0.125 * k, *values]
            text = '{{"feature": {}, "threshold": {!r}, "left": {}, "right": {}}}'.format(spot, threshold, *sides)
        assert gbt.MAX_DEPTH == 980
        horizon, lr = doc["horizon_steps"], doc["model"]["config"]["learning_rate"]
        aligned = align_horizon(load_csv(data_dir / "dataset.csv", synthetic_schema()), horizon)
        lines = ["issue_timestamp,target_timestamp,prediction\n"]
        reached = set()
        weights = tree_predict(chain, aligned.features).tolist()
        for issue, weight in zip(aligned.timestamps.tolist(), weights):
            reached.add(weight)
            lines.append(f"{issue},{issue + horizon},{doc['model']['base_score'] + lr * weight!r}\n")
        assert len(reached) > 100
        flat = json.dumps({"feature": features, "value": values})
        for layout, tree in (("nested", text), ("flat", flat)):
            doc["model"]["trees"] = ["DEEP"]
            path = tmp_path / f"{layout}.json"
            path.write_text(json.dumps(doc).replace('"DEEP"', tree))
            code, stderr = run_process(
                "predict", "--data", str(data_dir / "dataset.csv"),
                "--model", str(path), "--out", str(tmp_path / layout),
            )
            assert code == 0, stderr
            assert (tmp_path / layout / "predictions.csv").read_bytes() == "".join(lines).encode()

    def test_explain_rejects_renamed_features(self, data_dir, tmp_path, ebm_model):
        doc = json.loads(ebm_model.read_text())
        _rename_features(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = run(
            "explain", "--model", str(path), "--data", str(data_dir / "dataset.csv"),
            "--row", "3", "--out", str(tmp_path / "x"),
        )
        assert code == 3


@pytest.fixture(scope="module")
def small_models(data_dir, tmp_path_factory):
    """A directory with small saved gbt, ebm and stacked models, each in
    ``<kind>/model.json``."""
    out = tmp_path_factory.mktemp("small_models")
    for kind in ("gbt", "ebm", "stacked"):
        assert run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", kind,
            "--out", str(out / kind), "--n-trees", "2", "--max-depth", "2",
            "--outer-rounds", "5", "--max-bins", "8",
            "--meta-n-trees", "2", "--meta-max-depth", "2",
        ) == 0
    return out


def _fields(model):
    """(container, key) of every value in a model document that a fuzz case
    may replace: tree fields, shapes, cuts and their entries."""
    if "meta" in model:
        return _fields(model["base"]) + _fields(model["meta"])
    if "trees" in model:
        fields, nodes = [(model, "base_score"), (model, "trees")], []
        for tree in model["trees"]:
            if "value" in tree:  # pre-order lists
                fields += [(tree, key) for key in ("feature", "value")]
                fields += [(tree[key], i) for key in ("feature", "value") for i in range(len(tree[key]))]
            else:  # nested nodes, as earlier versions wrote them
                nodes.append(tree)
        while nodes:
            node = nodes.pop()
            fields += [(node, key) for key in ("feature", "threshold", "weight") if key in node]
            nodes += [node[key] for key in ("left", "right") if key in node]
        return fields
    fields = [(model, "intercept"), (model, "shapes"), (model["bins"], "cuts")]
    for lists in (model["shapes"], model["bins"]["cuts"]):
        fields += [(lists, j) for j in range(len(lists))]
        fields += [(values, i) for values in lists for i in range(len(values))]
    return fields


NUMBERS = st.floats() | st.integers(-3, 12)
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.just(10**400),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["feature", "weight"]), st.integers(0, 2), max_size=2),
)


def _replacements(value):
    if not isinstance(value, list):
        return NUMBERS | ODD_VALUES
    # Reordered (cut order), cut short (shape length, missing shapes) or
    # replaced, with entries of any type.
    return st.one_of(
        st.permutations(value),
        st.integers(0, len(value)).map(lambda k: value[:k]),
        st.lists(NUMBERS, max_size=20),
        ODD_VALUES,
    )


class TestModelFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_predict_on_one_changed_field_exits_0_or_3(self, data_dir, small_models, data):
        kind = data.draw(st.sampled_from(["gbt", "ebm", "stacked"]), label="kind")
        doc = json.loads((small_models / kind / "model.json").read_text())
        if data.draw(st.booleans(), label="nested trees"):
            doc["model"] = legacy_model_doc(kind, load_model(small_models / kind / "model.json")[2])
        fields = _fields(doc["model"])
        container, key = fields[data.draw(st.integers(0, len(fields) - 1), label="field")]
        container[key] = data.draw(_replacements(container[key]), label="value")
        path = small_models / "model.json"
        path.write_text(json.dumps(doc))
        code = run(
            "predict", "--data", str(data_dir / "dataset.csv"),
            "--model", str(path), "--out", str(small_models / "p"),
        )
        assert code in (0, 3)


def _envelope_paths(kind):
    """Key paths into a ``kind`` model file of its envelope fields: kind,
    horizon, the model document, and every config and schema block and
    entry of each model in it."""
    models = {
        "gbt": [(("model",), gbt.GbtConfig)],
        "ebm": [(("model",), ebm.EbmConfig)],
        "stacked": [(("model", "base"), ebm.EbmConfig), (("model", "meta"), gbt.GbtConfig)],
    }[kind]
    paths = [("kind",), ("horizon_steps",), ("model",)]
    n_features = len(synthetic_schema())
    for at, config_type in models:
        paths += [(*at, "config"), (*at, "schema")]
        paths += [(*at, "schema", "names")]
        paths += [(*at, "config", f.name) for f in dataclasses.fields(config_type)]
        paths += [(*at, "schema", "names", i) for i in range(n_features)]
    return paths


@st.composite
def envelope_cases(draw):
    """(kind, key path, replacement value, command) for one changed field."""
    kind = draw(st.sampled_from(["gbt", "ebm", "stacked"]))
    path = draw(st.sampled_from(_envelope_paths(kind)))
    command = draw(st.sampled_from(["predict"] if kind == "gbt" else ["predict", "explain"]))
    return kind, path, draw(NUMBERS | ODD_VALUES), command


def _model_command_exit_code(command, kind, model, data_dir, out):
    """main's exit code for ``command`` on a ``kind`` model file, which must
    be 0 or 3; explain takes only ebm files, so a stacked file that loads
    exits 2 there."""
    code = _main_exit_code(
        [command, "--model", str(model), "--data", str(data_dir / "dataset.csv"), "--out", str(out)]
    )
    assert code in (0, 3) or (code == 2 and (command, kind) == ("explain", "stacked"))
    if code == 2:
        load_model(model)
    return code


def _changed_model_file(small_models, kind, path, value, out_dir):
    """A copy of the small ``kind`` model file in ``out_dir`` whose field at
    key ``path`` holds ``value``."""
    doc = json.loads((small_models / kind / "model.json").read_text())
    container = doc
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    model = out_dir / "model.json"
    model.write_text(json.dumps(doc))
    return model


class TestModelFileEnvelopeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(envelope_cases())
    # Exited 2 (a kind that is not a string) and 0 (a fractional tree count,
    # a boolean learning rate).
    @example(("gbt", ("kind",), ["gbt"], "predict"))
    @example(("gbt", ("model", "config", "n_trees"), 2.5, "predict"))
    @example(("gbt", ("model", "config", "learning_rate"), True, "predict"))
    def test_changed_envelope_field_exits_0_or_3(
        self, data_dir, small_models, tmp_path_factory, case
    ):
        kind, path, value, command = case
        out_dir = tmp_path_factory.mktemp("envelope")
        model = _changed_model_file(small_models, kind, path, value, out_dir)
        _model_command_exit_code(command, kind, model, data_dir, model.parent / "out")

    @pytest.mark.parametrize(
        "kind, path, value",
        [
            ("gbt", ("kind",), ["gbt"]),
            ("gbt", ("kind",), {"a": 1}),
            ("gbt", ("kind",), 1),
            ("gbt", ("kind",), "forest"),
            ("gbt", ("model", "config"), [["n_trees", 2]]),
            ("gbt", ("model", "config", "n_trees"), 2.5),
            ("gbt", ("model", "config", "max_depth"), True),
            ("ebm", ("model", "config", "outer_rounds"), 5.0),
            ("ebm", ("model", "config", "max_bins"), "8"),
            ("ebm", ("model", "config", "max_leaves_per_round"), 2.5),
            ("stacked", ("model", "meta", "config", "n_trees"), 2.5),
            ("gbt", ("model", "config", "learning_rate"), True),
            ("gbt", ("model", "config", "gamma"), False),
            ("ebm", ("model", "config", "learning_rate"), True),
            # Every number is a finite JSON number, not a string or a bool.
            ("gbt", ("model", "base_score"), "0.5"),
            ("gbt", ("model", "trees", 0, "value", 0), "0.5"),
            ("ebm", ("model", "bins", "vmin", 0), "nan"),
            ("ebm", ("model", "bins", "vmax", 0), True),
            ("ebm", ("model", "shapes", 0, 0), True),
            ("ebm", ("model", "intercept"), "1"),
            ("stacked", ("model", "meta", "trees", 0, "value", 0), False),
            # A feature name csv would have to quote.
            ("gbt", ("model", "schema", "names", 0), "a,b"),
            ("stacked", ("model", "base", "schema", "names", 1), 'a"b'),
            ("stacked", ("model", "meta", "config", "max_depth"), True),
        ],
    )
    def test_malformed_envelope_exits_3(
        self, data_dir, small_models, tmp_path, capsys, kind, path, value
    ):
        model = _changed_model_file(small_models, kind, path, value, tmp_path)
        code = run(
            "predict", "--model", str(model), "--data", str(data_dir / "dataset.csv"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, path, value",
        [
            ("gbt", ("model", "config", "reg_lambda"), 1),
            ("gbt", ("model", "config", "gamma"), 0),
            ("ebm", ("model", "config", "learning_rate"), 1),
        ],
    )
    def test_integer_in_float_field_loads(self, data_dir, small_models, tmp_path, kind, path, value):
        model = _changed_model_file(small_models, kind, path, value, tmp_path)
        for name, m in (("changed", model), ("saved", small_models / kind / "model.json")):
            code = run(
                "predict", "--model", str(m), "--data", str(data_dir / "dataset.csv"),
                "--out", str(tmp_path / name),
            )
            assert code == 0
        changed, saved = (tmp_path / name / "predictions.csv" for name in ("changed", "saved"))
        assert changed.read_bytes() == saved.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_or_0xff_model_file_exits_0_or_3(
        self, data_dir, small_models, tmp_path_factory, data
    ):
        kind = data.draw(st.sampled_from(["gbt", "ebm", "stacked"]), label="kind")
        commands = ["predict"] if kind == "gbt" else ["predict", "explain"]
        command = data.draw(st.sampled_from(commands), label="command")
        text = (small_models / kind / "model.json").read_bytes()
        i = data.draw(st.integers(0, len(text) - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            text = text[:i]
        else:
            text = text[:i] + b"\xff" + text[i + 1:]
        model = tmp_path_factory.mktemp("whole_file") / "model.json"
        model.write_bytes(text)
        code = _model_command_exit_code(command, kind, model, data_dir, model.parent / "out")
        assert code == 3 or text.endswith(b"}")  # only the newline was cut


class TestEvaluate:
    def test_report_rows_and_determinism(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        argv = [
            "evaluate", "--data", str(data_dir / "dataset.csv"),
            "--models", "naive,gbt,ebm,stacked",
            "--initial-train", "400", "--test-len", "134",
            "--epsilon", "20",
            "--n-trees", "8", "--outer-rounds", "8", "--max-bins", "16",
            "--meta-n-trees", "4", "--max-depth", "3",
        ]
        assert run(*argv, "--out", str(out1)) == 0
        assert run(*argv, "--out", str(out2)) == 0
        report = (out1 / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 8
        models_in_report = {line.split(",")[2] for line in report[1:]}
        assert models_in_report == {"naive", "gbt", "ebm", "stacked"}
        for name in ("report.csv", "report.txt", "predictions.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_label_with_csv_quoting_round_trips(self, data_dir, tmp_path):
        label = 'NO1,"x"'
        code = run(
            "evaluate", "--data", str(data_dir / "dataset.csv"), "--models", "naive",
            "--initial-train", "400", "--test-len", "134", "--label", label,
            "--out", str(tmp_path),
        )
        assert code == 0
        with (tmp_path / "report.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ["label", label, label]
        assert all(len(row) == 9 for row in rows)

    def test_label_with_carriage_return_round_trips(self, data_dir, tmp_path):
        """A "\r" that csv would leave bare is quoted: the csv reader ends a
        line at a bare one."""
        label, direction = "a\rb", "\r"
        code = run(
            "evaluate", "--data", str(data_dir / "dataset.csv"),
            "--models", "naive,gbt,ebm,stacked", "--initial-train", "400", "--test-len", "134",
            "--n-trees", "2", "--outer-rounds", "2", "--meta-n-trees", "2", "--max-depth", "2",
            "--label", label, "--direction", direction, "--out", str(tmp_path),
        )
        assert code == 0
        with (tmp_path / "report.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [9] * 9
        assert {(row[0], row[1]) for row in rows[1:]} == {(label, direction)}

    def test_epsilon_monotone(self, data_dir, tmp_path):
        kept = []
        for i, eps in enumerate(("0.5", "5", "50")):
            out = tmp_path / f"eps{i}"
            code = run(
                "evaluate", "--data", str(data_dir / "dataset.csv"),
                "--models", "naive", "--initial-train", "400",
                "--test-len", "134", "--epsilon", eps, "--out", str(out),
            )
            assert code == 0
            row = (out / "report.csv").read_text().splitlines()[2].split(",")
            kept.append(int(row[5]))
        assert kept[0] >= kept[1] >= kept[2]

    def test_repeated_model_kind_usage_error(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = run(
            "evaluate", "--data", str(data_dir / "dataset.csv"),
            "--models", "naive,gbt,naive", "--initial-train", "400",
            "--test-len", "134", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_missing_fold_params_usage_error(self, data_dir, tmp_path):
        code = run(
            "evaluate", "--data", str(data_dir / "dataset.csv"),
            "--models", "naive", "--out", str(tmp_path),
        )
        assert code == 2


@pytest.fixture(scope="module")
def ebm_model(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("explain_model")
    run(
        "train", "--data", str(data_dir / "dataset.csv"), "--model", "ebm",
        "--out", str(out), "--outer-rounds", "10", "--max-bins", "16",
    )
    return out / "model.json"


class TestExplain:
    def test_global_importance_sorted(self, data_dir, tmp_path, ebm_model):
        out = tmp_path / "g"
        code = run(
            "explain", "--model", str(ebm_model),
            "--data", str(data_dir / "dataset.csv"), "--out", str(out),
        )
        assert code == 0
        lines = (out / "importance.csv").read_text().splitlines()
        assert lines[0] == "rank,feature,mac"
        macs = [float(line.split(",")[2]) for line in lines[1:]]
        assert macs == sorted(macs, reverse=True)
        shapes_header = (out / "shapes.csv").read_text().splitlines()[0]
        assert shapes_header == "feature,bin_lower,bin_upper,contribution"

    def test_shapes_serialize_infinities(self, data_dir, tmp_path, ebm_model):
        out = tmp_path / "s"
        run(
            "explain", "--model", str(ebm_model),
            "--data", str(data_dir / "dataset.csv"), "--out", str(out),
        )
        body = (out / "shapes.csv").read_text()
        assert ",-inf," in body and ",inf," in body

    def test_local_sums_to_prediction(self, data_dir, tmp_path, ebm_model):
        out = tmp_path / "l"
        code = run(
            "explain", "--model", str(ebm_model),
            "--data", str(data_dir / "dataset.csv"),
            "--row", "17", "--out", str(out),
        )
        assert code == 0
        rows = (out / "local_explanation.csv").read_text().splitlines()[1:]
        values = {}
        contributions = []
        for line in rows:
            name, value = line.rsplit(",", 1)
            if name.startswith("__"):
                values[name] = float(value)
            else:
                contributions.append(float(value))
        acc = values["__intercept__"]
        for c in contributions:
            acc += c
        assert acc == values["__prediction__"]

    def test_non_ebm_model_unsupported(self, data_dir, tmp_path):
        model_dir = tmp_path / "naive_model"
        run(
            "train", "--data", str(data_dir / "dataset.csv"), "--model", "naive",
            "--out", str(model_dir),
        )
        code = run(
            "explain", "--model", str(model_dir / "model.json"),
            "--data", str(data_dir / "dataset.csv"), "--out", str(tmp_path),
        )
        assert code == 2


def _with_columns(src, dst, drop=(), rename=None):
    """``src`` (an unquoted csv) written to ``dst`` without the ``drop``
    columns and with header names mapped through ``rename``."""
    lines = [line.split(",") for line in src.read_text().splitlines()]
    keep = [j for j, name in enumerate(lines[0]) if name not in drop]
    lines[0] = [(rename or {}).get(name, name) for name in lines[0]]
    dst.write_text("".join(",".join(line[j] for j in keep) + "\n" for line in lines))
    return dst


class TestHeaderDefinedData:
    """The CSV header names a dataset's features; models run on any."""

    def test_train_predict_explain_on_other_features(self, data_dir, tmp_path, ebm_model):
        data = _with_columns(
            data_dir / "dataset.csv", tmp_path / "zone.csv",
            drop=("wind",), rename={"consumption": "load"},
        )
        names = ["spot", "load", "hydro", "heating", "hour_sin", "hour_cos", "month_sin", "month_cos"]
        for kind in ("gbt", "ebm"):
            out = tmp_path / kind
            assert run(
                "train", "--data", str(data), "--model", kind, "--out", str(out),
                "--n-trees", "3", "--outer-rounds", "5", "--max-bins", "16",
            ) == 0
            assert json.loads((out / "model.json").read_text())["model"]["schema"] == {"names": names}
            assert run(
                "predict", "--data", str(data), "--model", str(out / "model.json"),
                "--out", str(out / "p"),
            ) == 0
        model = tmp_path / "ebm" / "model.json"
        assert run("explain", "--data", str(data), "--model", str(model), "--out", str(tmp_path / "g")) == 0
        importance = (tmp_path / "g" / "importance.csv").read_text().splitlines()
        assert sorted(line.split(",")[1] for line in importance[1:]) == sorted(names)
        assert run(
            "explain", "--data", str(data), "--model", str(model), "--row", "5",
            "--out", str(tmp_path / "x"),
        ) == 0
        # A model trained on the synthetic features does not run on these.
        code, stderr = run_process(
            "predict", "--data", str(data), "--model", str(ebm_model), "--out", str(tmp_path / "y"),
        )
        assert_clean_error(code, stderr, 3)
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--models", "naive"],
            ["grid", "--model", "gbt", "--param", "n_trees=2"],
        ],
    )
    def test_backtest_without_spot_exits_3(self, data_dir, tmp_path, argv):
        data = _with_columns(data_dir / "dataset.csv", tmp_path / "nospot.csv", drop=("spot",))
        code, stderr = run_process(
            *argv, "--data", str(data), "--initial-train", "400", "--test-len", "134",
            "--out", str(tmp_path / "out"),
        )
        assert_clean_error(code, stderr, 3)
        assert "'spot'" in stderr
        assert not any((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize(
        "header",
        [
            "time,f0,target",
            "timestamp,f0,price",
            "timestamp,target",
            "timestamp,f0,f0,target",
            "timestamp,f0,timestamp,target",
            'timestamp,"",target',
            'timestamp,"a,b",target',
            'timestamp,"a""b",target',
            'timestamp,"a\nb",target',
        ],
    )
    def test_malformed_header_exits_3(self, tmp_path, header):
        (tmp_path / "d.csv").write_text(header + "\n0,1.0,2.0\n1,1.0,2.0\n")
        code, stderr = run_process(
            "train", "--model", "naive", "--data", "d.csv", "--horizon-steps", "1",
            "--out", "out", cwd=tmp_path,
        )
        assert_clean_error(code, stderr, 3)
        assert "header" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


class TestSeedBelongsToSynth:
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "explain", "grid"])
    def test_seed_is_a_usage_error(self, data_dir, tmp_path, command, via):
        argv = [command, "--data", str(data_dir / "dataset.csv"), "--out", "out"]
        if via == "flag":
            argv += ["--seed", "1"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1}))
            argv += ["--config", "cfg.json"]
        code, stderr = run_process(*argv, cwd=tmp_path)
        assert code == 2, stderr
        assert "Traceback" not in stderr and "seed" in stderr
        assert not (tmp_path / "out").exists()


class TestGrid:
    def test_grid_product_sorted_by_mae(self, data_dir, tmp_path):
        out = tmp_path / "grid"
        code = run(
            "grid", "--data", str(data_dir / "dataset.csv"), "--model", "gbt",
            "--param", "n_trees=2,6", "--param", "max_depth=2,3",
            "--initial-train", "500", "--test-len", "168",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0] == "n_trees,max_depth,mae,rmse,r2"
        assert len(lines) == 1 + 4
        maes = [float(line.split(",")[2]) for line in lines[1:]]
        assert maes == sorted(maes)

    @pytest.mark.parametrize(
        "kind, params",
        [("gbt", {"n_trees": [3, 3], "max_depth": [2, 3]}), ("ebm", {"outer_rounds": [4, 4], "max_bins": [8, 16]})],
    )
    def test_rows_equal_each_combination_evaluated_alone(self, data_dir, tmp_path, kind, params):
        """All combinations are fitted fold by fold in one evaluation, and each
        row holds the unfiltered metrics of its combination's own evaluation."""
        flags = [f for name, values in params.items() for f in ("--param", f"{name}={','.join(map(str, values))}")]
        code = run(
            "grid", "--data", str(data_dir / "dataset.csv"), "--model", kind, *flags,
            "--initial-train", "500", "--test-len", "56", "--out", str(tmp_path),
        )
        assert code == 0
        with (tmp_path / "grid.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [*params, "mae", "rmse", "r2"]
        aligned = align_horizon(load_csv(data_dir / "dataset.csv"), 32)
        folds = expanding_window_folds(aligned.n_rows, 500, 56)
        assert len(folds) == 3
        expected = []
        for combo in itertools.product(*params.values()):
            cfg = dataclasses.replace(cli.CONFIG_DEFAULTS[kind], **dict(zip(params, combo)))
            m = evaluate([model_spec(kind, cfg)], aligned, folds).rows[0].metrics
            expected.append([*map(str, combo), repr(m.mae), repr(m.rmse), repr(m.r2)])
        assert rows[1:] == sorted(expected, key=lambda r: (float(r[2]), *map(int, r[:2])))
        # The first parameter repeats its value: each combination has two equal rows.
        repeats = {}
        for row in rows[1:]:
            repeats.setdefault(tuple(row[:2]), []).append(row[2:])
        assert [len(v) for v in repeats.values()] == [2, 2]
        assert all(first == second for first, second in repeats.values())

    def test_unknown_param_usage_error(self, data_dir, tmp_path):
        code = run(
            "grid", "--data", str(data_dir / "dataset.csv"), "--model", "gbt",
            "--param", "bogus=1,2", "--initial-train", "500",
            "--test-len", "168", "--out", str(tmp_path),
        )
        assert code == 2

    def test_naive_not_grid_searchable(self, data_dir, tmp_path):
        code = run(
            "grid", "--data", str(data_dir / "dataset.csv"), "--model", "naive",
            "--param", "n_trees=1", "--initial-train", "500",
            "--test-len", "168", "--out", str(tmp_path),
        )
        assert code == 2


class TestBadHyperparameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--model", "gbt", "--n-trees", "-1"],
            ["train", "--model", "stacked", "--meta-max-depth", "0"],
            ["evaluate", "--models", "ebm", "--max-bins", "1",
             "--initial-train", "500", "--test-len", "168"],
            ["grid", "--model", "ebm", "--param", "max_bins=1",
             "--initial-train", "500", "--test-len", "168"],
        ],
    )
    def test_rejected_value_is_usage_error(self, data_dir, tmp_path, argv):
        code = run(*argv, "--data", str(data_dir / "dataset.csv"), "--out", str(tmp_path))
        assert code == 2

    def test_config_file_value_of_wrong_type_is_usage_error(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trees": "many"}))
        code = run(
            "train", "--model", "gbt", "--config", str(cfg),
            "--data", str(data_dir / "dataset.csv"), "--out", str(tmp_path),
        )
        assert code == 2


class TestConfigFile:
    @pytest.mark.parametrize(
        "key", ["epsilon", "horizon_steps", "initial_train", "test_len"]
    )
    def test_value_of_wrong_type_exits_2(self, data_dir, tmp_path, key):
        values = {"epsilon": 20, "horizon_steps": 32, "initial_train": 400, "test_len": 134}
        values[key] = "abc"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, stderr = run_process(
            "evaluate", "--config", str(cfg), "--data", str(data_dir / "dataset.csv"),
            "--models", "naive", "--out", str(tmp_path / "e"),
        )
        assert code == 2, stderr
        assert "Traceback" not in stderr and f"bad value 'abc' for '{key}'" in stderr

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["evaluate"], {"models": ["gbt"]}),
            (["synth"], {"out": ["x"]}),
            (["synth"], {"n_rows": True}),
            (["synth"], {"n_rows": 2.5}),
            (["evaluate", "--models", "naive"], {"label": {"a": 1}}),
            (["grid", "--model", "gbt"], {"param": "max_depth=2,3"}),
            (["grid", "--model", "gbt"], {"param": ["max_depth=2,3", 4]}),
        ],
    )
    def test_value_not_a_string_or_number_exits_2(self, data_dir, tmp_path, argv, doc):
        if argv != ["synth"]:
            doc = {"initial_train": 400, "test_len": 134, **doc}
            argv = [*argv, "--data", str(data_dir / "dataset.csv"), "--out", "out"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, stderr = run_process(*argv, "--config", str(cfg), cwd=tmp_path)
        assert code == 2, stderr
        assert "Traceback" not in stderr and "bad value" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("key", ["func", "command", "flag_types", "flag_actions"])
    def test_key_that_is_not_a_flag_exits_2(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_rows": 20, key: "x"}))
        code, stderr = run_process("synth", "--config", str(cfg), cwd=tmp_path)
        assert code == 2, stderr
        assert "Traceback" not in stderr and f"unknown key {key!r}" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("config", ["missing.json", "a_directory"])
    def test_missing_or_directory_config_exits_2(self, tmp_path, config):
        (tmp_path / "a_directory").mkdir()
        code, stderr = run_process("synth", "--config", config, "--out", "x", cwd=tmp_path)
        assert_clean_error(code, stderr, 2)
        assert f"config file {config}" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]

    def test_repeatable_param_takes_a_list_of_strings(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"param": ["max_depth=2,3", "n_trees=3"]}))
        code = run(
            "grid", "--model", "gbt", "--config", str(cfg), "--data",
            str(data_dir / "dataset.csv"), "--initial-train", "400", "--test-len", "134",
            "--out", str(tmp_path / "g"),
        )
        assert code == 0
        lines = (tmp_path / "g" / "grid.csv").read_text().splitlines()
        assert lines[0] == "max_depth,n_trees,mae,rmse,r2" and len(lines) == 3

    def test_flags_override_config_file(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_rows": 50, "seed": 1, "noise_sd": 0.0}))
        out = tmp_path / "out"
        code = run("synth", "--config", str(cfg), "--n-rows", "80", "--out", str(out))
        assert code == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert len(lines) == 1 + 80

    def test_unknown_config_key_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_usage_error_without_subcommand(self):
        assert run() == 2


def assert_clean_error(code, stderr, expected_code):
    assert code == expected_code, stderr
    assert "Traceback" not in stderr
    assert any(line.startswith("error: ") for line in stderr.splitlines()), stderr


class TestNonFiniteGbtHyperparameters:
    """NaN and infinite gamma, reg_lambda and min_child_weight are rejected
    before anything is written: as flags with exit 2, in a model file with 3."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--gamma", "nan"), ("--reg-lambda", "inf"), ("--min-child-weight", "inf")],
    )
    def test_train_exits_2(self, data_dir, tmp_path, flag, value):
        code, stderr = run_process(
            "train", "--model", "gbt", "--data", str(data_dir / "dataset.csv"),
            "--n-trees", "2", flag, value, "--out", str(tmp_path / "t"),
        )
        assert_clean_error(code, stderr, 2)
        assert "bad gbt config" in stderr
        assert not (tmp_path / "t" / "model.json").exists()

    def test_evaluate_exits_2(self, data_dir, tmp_path):
        code, stderr = run_process(
            "evaluate", "--models", "gbt", "--data", str(data_dir / "dataset.csv"),
            "--min-child-weight", "nan", "--n-trees", "2",
            "--initial-train", "400", "--test-len", "134", "--out", str(tmp_path / "e"),
        )
        assert_clean_error(code, stderr, 2)
        assert not (tmp_path / "e" / "predictions.csv").exists()

    @pytest.mark.parametrize("key, value", [("gamma", math.nan), ("min_child_weight", math.inf)])
    def test_model_file_exits_3(self, data_dir, tmp_path, key, value):
        out = tmp_path / "m"
        assert run(
            "train", "--model", "gbt", "--data", str(data_dir / "dataset.csv"),
            "--n-trees", "2", "--max-depth", "2", "--out", str(out),
        ) == 0
        doc = json.loads((out / "model.json").read_text())
        doc["model"]["config"][key] = value
        (out / "model.json").write_text(json.dumps(doc))
        code, stderr = run_process(
            "predict", "--model", str(out / "model.json"),
            "--data", str(data_dir / "dataset.csv"), "--out", str(tmp_path / "p"),
        )
        assert_clean_error(code, stderr, 3)
        assert not (tmp_path / "p" / "predictions.csv").exists()


def _with_extreme_column(src, dst, column):
    """``src`` with ``column`` replaced: consumption alternates near +-1.7e308,
    so neighbouring values overflow their sum; the target sits near 1.7e308."""
    with src.open(newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    for i, row in enumerate(rows[1:]):
        value = 1.7e308 - i * 1e303
        row[j] = repr(value * (-1) ** i if column == "consumption" else value)
    with dst.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dst


class TestExtremeValues:
    SMALL = ("--n-trees", "5", "--outer-rounds", "5", "--meta-n-trees", "5")

    @pytest.mark.parametrize("kind", ["gbt", "ebm", "stacked"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.diff of the loaded cuts overflows
    def test_overflowing_midpoints_train_and_predict(self, data_dir, tmp_path, kind):
        data = str(_with_extreme_column(data_dir / "dataset.csv", tmp_path / "x.csv", "consumption"))
        code, stderr = run_process("train", "--data", data, "--model", kind, *self.SMALL, "--out", "m", cwd=tmp_path)
        assert code == 0 and "Traceback" not in stderr, stderr
        load_model(tmp_path / "m" / "model.json")  # loads only if every number is finite
        code, stderr = run_process("predict", "--data", data, "--model", "m/model.json", "--out", "p", cwd=tmp_path)
        assert code == 0 and "Traceback" not in stderr, stderr
        assert (tmp_path / "p" / "predictions.csv").exists()

    @pytest.mark.parametrize("kind, message", [
        ("gbt", "GBT training predictions must be finite"),
        ("ebm", "shape values must be finite"),
        ("stacked", "shape values must be finite"),
    ])
    def test_overflowing_fit_exits_3_without_out(self, data_dir, tmp_path, kind, message):
        data = str(_with_extreme_column(data_dir / "dataset.csv", tmp_path / "x.csv", "target"))
        code, stderr = run_process("train", "--data", data, "--model", kind, *self.SMALL, "--out", "m", cwd=tmp_path)
        assert_clean_error(code, stderr, 3)
        assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [f"error: {message}"]
        assert not (tmp_path / "m").exists()


class TestNonFiniteSynthConfig:
    """NaN and infinite noise_sd and spike_scale are usage errors (exit 2),
    as flags and from a config file, and synth writes nothing."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["noise_sd", "spike_scale"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, where, name, value):
        out = tmp_path / "out"
        argv = ["synth", "--n-rows", "50", "--spike-prob", "0", "--out", str(out)]
        if where == "flag":
            argv.append(f"--{name.replace('_', '-')}={value}")  # = keeps -inf a value
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: float(value)}))  # NaN, Infinity
            argv += ["--config", str(cfg)]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad synth config" in err
        assert not out.exists()


class TestBadEpsilon:
    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    def test_exits_3_before_any_fit(self, data_dir, tmp_path, capsys, monkeypatch, eps):
        self.assert_rejected(
            data_dir, tmp_path, capsys, monkeypatch, eps, "evaluate", "--models", "naive,gbt"
        )

    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    def test_grid_exits_3_before_any_fit(self, data_dir, tmp_path, capsys, monkeypatch, eps):
        self.assert_rejected(
            data_dir, tmp_path, capsys, monkeypatch, eps, "grid", "--model", "gbt", "--param", "n_trees=2,3"
        )

    @staticmethod
    def assert_rejected(data_dir, tmp_path, capsys, monkeypatch, eps, *command):
        def never(*args, **kwargs):
            raise AssertionError("gbt_train called")

        monkeypatch.setattr(gbt, "gbt_train", never)
        out = tmp_path / "e"
        code = run(
            *command, "--data", str(data_dir / "dataset.csv"),
            "--initial-train", "400", "--test-len", "134", "--epsilon", eps, "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epsilon must be finite and >= 0" in err
        assert not out.exists()


class TestFlagBounds:
    """A flag value outside the flag's own bound is a usage error (exit 2),
    raised before ``--out`` is made; a valid value that the data cannot
    serve is a data error (exit 3)."""

    BACKTEST = ["--initial-train", "400", "--test-len", "134"]

    @staticmethod
    def with_models(argv, small_models):
        """``argv`` with ``{ebm}`` and ``{gbt}`` standing for the saved small models."""
        return [a.format(**{k: small_models / k / "model.json" for k in ("ebm", "gbt")}) for a in argv]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["train", "--model", "naive", "--horizon-steps", "0"], "horizon_steps must be"),
            (["evaluate", "--models", "naive", "--initial-train", "0", "--test-len", "134"],
             "initial_train must be"),
            (["evaluate", "--models", "naive", "--initial-train", "400", "--test-len", "0"],
             "test_len must be"),
            (["evaluate", "--models", "naive", *BACKTEST, "--epsilon", "nan"], "epsilon must be"),
            (["grid", "--model", "gbt", "--param", "n_trees=2", *BACKTEST, "--epsilon", "-1"],
             "epsilon must be"),
            (["explain", "--model", "{ebm}", "--row", "-1"], "row must be"),
            (["predict", "--model", "{gbt}", "--horizon-steps", "4"], "--horizon-steps"),
        ],
        ids=["horizon-0", "initial-train-0", "test-len-0", "epsilon-nan", "grid-epsilon--1",
             "row--1", "predict-horizon"],
    )
    def test_out_of_bound_exits_2(self, data_dir, small_models, tmp_path, argv, named):
        argv = self.with_models(argv, small_models)
        code, stderr = run_process(
            *argv, "--data", str(data_dir / "dataset.csv"), "--out", "out", cwd=tmp_path
        )
        assert code == 2, stderr
        assert "Traceback" not in stderr and named in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["explain", "--model", "{ebm}"], {"row": -1}),
            (["predict", "--model", "{gbt}"], {"horizon_steps": 32}),
            (["train", "--model", "naive"], {"horizon_steps": 0}),
        ],
        ids=["row--1", "predict-horizon", "horizon-0"],
    )
    def test_config_value_out_of_bound_exits_2(self, data_dir, small_models, tmp_path, argv, doc):
        argv = self.with_models(argv, small_models)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code, stderr = run_process(
            *argv, "--config", "cfg.json", "--data", str(data_dir / "dataset.csv"),
            "--out", "out", cwd=tmp_path,
        )
        assert_clean_error(code, stderr, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--model", "naive", "--horizon-steps", "700"],
            ["evaluate", "--models", "naive", "--initial-train", "600", "--test-len", "134"],
            ["explain", "--model", "{ebm}", "--row", "700"],
        ],
        ids=["horizon-700", "folds-past-end", "row-700"],
    )
    def test_value_the_data_cannot_serve_exits_3(self, data_dir, small_models, tmp_path, argv):
        argv = self.with_models(argv, small_models)
        code, stderr = run_process(
            *argv, "--data", str(data_dir / "dataset.csv"), "--out", "out", cwd=tmp_path
        )
        assert_clean_error(code, stderr, 3)
        assert not (tmp_path / "out").exists()


def _rewritten(path: Path) -> bytes:
    """The file at ``path`` as the csv module writes its parsed cells back:
    an integer cell through ``int``, a float cell through ``repr(float(cell))``
    and any other cell as read."""

    def cell(text):
        for parse in (int, lambda c: repr(float(c))):
            with contextlib.suppress(ValueError):
                return parse(text)
        return text

    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([list(map(cell, row)) for row in rows[1:]])
    return buf.getvalue().encode()


class TestCsvArtifacts:
    """Every CSV file the commands write is the csv module's rendering of its
    cells: an integer as its digits, a float as its repr and text quoted only
    where csv quotes it, awkward cells included."""

    LABEL = 'NO1, "up"'

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("artifacts")
        d, _ = generate_synthetic(SyntheticConfig(n_rows=400, seed=1))
        x, y = d.features.copy(), d.target.copy()
        x[5, 7] = -0.0  # month_sin, 0.0 in every other row
        y[[40, 41, 90]] = -0.0
        y[200:] = 42.0  # constant test windows, whose r2 is undefined
        d = dataclasses.replace(d, features=x, target=y)
        save_csv(d, out / "dataset.csv")
        data = ["--data", str(out / "dataset.csv")]
        backtest = [*data, "--initial-train", "200", "--test-len", "84"]
        for kind in ("naive", "gbt", "ebm"):
            assert run("train", "--model", kind, *data, "--n-trees", "3", "--outer-rounds", "5",
                       "--out", str(out / kind)) == 0
        model = {kind: str(out / kind / "model.json") for kind in ("naive", "gbt", "ebm")}
        commands = [
            ["predict", "--model", model["naive"], *data, "--out", str(out / "p-naive")],
            ["predict", "--model", model["gbt"], *data, "--out", str(out / "p-gbt")],
            ["evaluate", "--models", "naive,gbt", "--n-trees", "3", *backtest,
             "--label", self.LABEL, "--direction", "", "--epsilon", "1e9", "--out", str(out / "e")],
            ["explain", "--model", model["ebm"], *data, "--out", str(out / "x")],
            ["explain", "--model", model["ebm"], *data, "--row", "5", "--out", str(out / "x5")],
            ["grid", "--model", "gbt", "--param", "n_trees=2,3", *backtest, "--out", str(out / "g")],
        ]
        for argv in commands:
            assert run(*argv) == 0, argv
        return out, d

    FILES = [
        "dataset.csv", "p-naive/predictions.csv", "p-gbt/predictions.csv", "e/report.csv",
        "e/predictions.csv", "x/importance.csv", "x/shapes.csv", "x5/local_explanation.csv",
        "g/grid.csv",
    ]

    @pytest.mark.parametrize("name", FILES)
    def test_file_is_a_csv_module_rewrite_of_its_cells(self, artifacts, name):
        path = artifacts[0] / name
        assert path.read_bytes() == _rewritten(path)

    def test_dataset_reloads_bit_for_bit(self, artifacts):
        out, d = artifacts
        loaded = load_csv(out / "dataset.csv")
        for saved, reloaded in ((d.features, loaded.features), (d.target, loaded.target)):
            assert saved.view(np.int64).tolist() == reloaded.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("dataset.csv", ",-0.0,"),
            ("p-naive/predictions.csv", ",-0.0\n"),
            ("e/report.csv", '"NO1, ""up""",,naive,true,'),
            ("e/report.csv", ",,,\n"),
            ("x/shapes.csv", ",-inf,"),
            ("x/shapes.csv", ",inf,"),
            ("g/grid.csv", ",\n"),
        ],
    )
    def test_awkward_cells_are_present(self, artifacts, name, text):
        assert text in (artifacts[0] / name).read_text()


class TestHorizonStepsMustBeAnInteger:
    @pytest.fixture(scope="class")
    def model_docs(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("horizon_models")
        docs = {}
        for kind in ("gbt", "naive"):
            assert run(
                "train", "--model", kind, "--data", str(data_dir / "dataset.csv"),
                "--horizon-steps", "4", "--n-trees", "2", "--max-depth", "2",
                "--out", str(out / kind),
            ) == 0
            docs[kind] = (out / kind / "model.json").read_text()
        return docs

    @pytest.mark.parametrize(
        "kind, where, value",
        [
            ("gbt", "file", 1.7),
            ("gbt", "file", "5"),
            ("gbt", "file", True),
            ("naive", "model", 1.7),
        ],
    )
    def test_predict_exits_3(self, data_dir, tmp_path, model_docs, kind, where, value):
        doc = json.loads(model_docs[kind])
        (doc if where == "file" else doc["model"])["horizon_steps"] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, stderr = run_process(
            "predict", "--model", str(path),
            "--data", str(data_dir / "dataset.csv"), "--out", str(tmp_path / "p"),
        )
        assert_clean_error(code, stderr, 3)
        assert not (tmp_path / "p" / "predictions.csv").exists()


NOT_UTF8 = b"\xff\xfe\x00garbage"


def _row_not_utf8(text: bytes) -> bytes:
    lines = text.split(b"\n")
    lines[150] = lines[150][:5] + b"\xff" + lines[150][6:]
    return b"\n".join(lines)


def _header_over_field_limit(text: bytes) -> bytes:
    return text.replace(b"\n", b"x" * 200_000 + b"\n", 1)


# (file the case replaces, its bytes from the dataset's, exit code, what the
# error line must name)
UNREADABLE = {
    "config-not-utf8": ("config", lambda _: NOT_UTF8, 2, "codec can't decode"),
    "config-nested-too-deeply": (
        "config", lambda _: b"[" * 200_000 + b"]" * 200_000, 2, "nested too deeply"
    ),
    # The header error is the NUL under Python 3.10's csv reader, the bytes
    # that are not UTF-8 under 3.11's.
    "data-not-utf8": ("data", lambda _: NOT_UTF8, 3, "header"),
    "data-row-not-utf8": ("data", _row_not_utf8, 3, "row 150: cannot parse"),
    "data-header-over-field-limit": ("data", _header_over_field_limit, 3, "header: field larger"),
    "model-not-utf8": ("model", lambda _: NOT_UTF8, 3, "codec can't decode"),
}


class TestUnreadableFiles:
    """A config, data or model file that is not UTF-8, or that the csv or
    JSON reader cannot take, exits 2 (config) or 3 without a traceback and
    before anything is written."""

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_exits_cleanly(self, data_dir, small_models, tmp_path, case):
        replaced, content, expected_code, named = UNREADABLE[case]
        files = {
            "config": json.dumps({"out": "out"}).encode(),
            "data": (data_dir / "dataset.csv").read_bytes(),
            "model": (small_models / "gbt" / "model.json").read_bytes(),
        }
        files[replaced] = content(files[replaced])
        for name, text in files.items():
            (tmp_path / name).write_bytes(text)
        code, stderr = run_process(
            "predict", "--config", "config", "--data", "data", "--model", "model",
            "--out", "out", cwd=tmp_path,
        )
        assert_clean_error(code, stderr, expected_code)
        assert named in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def _corrupted(draw, text: bytes) -> bytes:
    """``text`` after one to three mutations: a byte overwritten with 0xff,
    a truncation, a duplicated line, or a value wrapped in ``[`` nesting
    (deep enough to pass the csv field limit and the JSON recursion limit)."""
    for op in draw(st.lists(st.sampled_from(["byte", "truncate", "line", "nest"]), min_size=1, max_size=3)):
        if op == "byte" and text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + b"\xff" + text[i + 1 :]
        elif op == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif op == "line":
            lines = text.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            text = b"\n".join(lines[:i] + [lines[i]] + lines[i:])
        elif op == "nest":
            values = list(re.finditer(rb"[^,:\s{}]+", text))
            if values:
                v = values[draw(st.integers(0, len(values) - 1))]
                k = draw(st.sampled_from([1, 3, 150_000]))
                text = text[: v.start()] + b"[" * k + v.group() + b"]" * k + text[v.end() :]
    return text


def _main_exit_code(argv) -> int:
    """main(argv)'s return; any message must be an error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    assert code == 0 or "error: " in err.getvalue()
    return code


class TestCorruptedFileFuzz:
    """main never raises on a corrupted data or config file, and exits 0, 2,
    3 or 4 (the contract of cli.py)."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_corrupted_csv(self, data_dir, small_models, fuzz_dir, data):
        path = fuzz_dir / "dataset.csv"
        # The first 300 rows keep every example fast.
        rows = (data_dir / "dataset.csv").read_bytes().split(b"\n")[:301]
        path.write_bytes(_corrupted(data.draw, b"\n".join(rows) + b"\n"))
        command = data.draw(st.sampled_from([
            ["predict", "--model", str(small_models / "stacked" / "model.json")],
            ["explain", "--model", str(small_models / "ebm" / "model.json")],
            ["evaluate", "--models", "naive,gbt", "--n-trees", "2", "--max-depth", "2",
             "--initial-train", "150", "--test-len", "60"],
        ]))
        _main_exit_code([*command, "--data", str(path), "--out", str(fuzz_dir / "out")])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_corrupted_config(self, data_dir, fuzz_dir, data):
        doc = {
            "data": str(data_dir / "dataset.csv"), "out": str(fuzz_dir / "out"),
            "models": "naive,gbt", "n_trees": 2, "max_depth": 2, "horizon_steps": 32,
            "initial_train": 400, "test_len": 134, "epsilon": 20.0, "label": "fuzz",
        }
        path = fuzz_dir / "config.json"
        path.write_bytes(_corrupted(data.draw, json.dumps(doc, indent=1).encode()))
        _main_exit_code(["evaluate", "--config", str(path)])
