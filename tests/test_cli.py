import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancecast import ebm, gbt, stacking
from balancecast import ebm_predict_batch, load_csv, load_model, synthetic_schema
from balancecast.cli import main
from balancecast.data import align_horizon


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
            "--seed", "42",
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


class TestPredict:
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


def _split(model):
    return next(tree for tree in model["trees"] if "feature" in tree)


def _leaf(model):
    node = model["trees"][0]
    while "weight" not in node:
        node = node["left"]
    return node


def _set(node, key, value):
    def change(model):
        node(model)[key] = value
    return change


# Values that a decoder without range checks accepts, after which predict
# raises an IndexError or quietly predicts garbage; each must exit 3.
BAD_VALUES = {
    "gbt-feature-99": ("gbt", _set(_split, "feature", 99)),
    "gbt-feature-negative": ("gbt", _set(_split, "feature", -1)),
    "gbt-weight-infinite": ("gbt", _set(_leaf, "weight", math.inf)),
    "gbt-threshold-nan": ("gbt", _set(_split, "threshold", math.nan)),
    "ebm-shape-shorter-than-bins": ("ebm", lambda model: model["shapes"][0].pop()),
    "ebm-fewer-shapes-than-features": ("ebm", lambda model: model["shapes"].pop()),
    "ebm-cuts-unsorted": ("ebm", lambda model: model["bins"]["cuts"][0].reverse()),
    "ebm-cuts-empty": ("ebm", lambda model: model["bins"]["cuts"][0].clear()),
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
        fields = [(model, "base_score"), (model, "trees")]
        nodes = list(model["trees"])
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
