import dataclasses
import json
import math

import numpy as np
import pytest

from balancecast import (
    KINDS,
    FeatureSchema,
    GbtModel,
    InvalidArgumentError,
    NaiveModel,
    SchemaError,
    TreeNode,
    EbmConfig,
    GbtConfig,
    SyntheticConfig,
    align_horizon,
    generate_synthetic,
    load_model,
    gbt_from_dict,
    gbt_to_dict,
    save_model,
    stacked_predict_batch,
)
from balancecast.data import save_truth_json, truth_table, write_json
from balancecast.gbt import MAX_DEPTH
from balancecast.persistence import tree_from_lists
from conftest import flat_chain, legacy_model_doc

# The smallest training config per registered kind; a kind added to KINDS
# without an entry here fails test_every_kind_has_a_case.
TINY = {
    "naive": 8,
    "gbt": GbtConfig(n_trees=4, max_depth=3),
    "ebm": EbmConfig(outer_rounds=6, max_bins=16),
    "stacked": (EbmConfig(outer_rounds=4, max_bins=16), GbtConfig(n_trees=3, max_depth=2)),
}


@pytest.fixture(scope="module")
def tiny_data():
    d, _ = generate_synthetic(SyntheticConfig(n_rows=300, seed=21))
    return align_horizon(d, 8)


@pytest.fixture(scope="module")
def deep_data():
    d, _ = generate_synthetic(SyntheticConfig(n_rows=1200, seed=21))
    return align_horizon(d, 8)


def test_every_kind_has_a_case():
    assert set(TINY) == set(KINDS)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_registry_round_trip_predicts_bit_identically(kind, tiny_data, tmp_path):
    spec = KINDS[kind]
    model = spec.train(tiny_data, TINY[kind])
    assert isinstance(model, spec.model_type)
    path = tmp_path / "model.json"
    save_model(model, 8, path)
    loaded_kind, horizon, loaded = load_model(path)
    assert (loaded_kind, horizon) == (kind, 8)
    for rows in (slice(8, tiny_data.n_rows), np.arange(8, tiny_data.n_rows, 3)):
        expected = spec.predict(model, tiny_data, rows)
        got = spec.predict(loaded, tiny_data, rows)
        assert np.array_equal(got, expected)
    assert "seed" not in path.read_text()
    assert "kinds" not in path.read_text()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_to_dict_is_plain_json_that_from_dict_reads(kind, tiny_data):
    spec = KINDS[kind]
    model = spec.train(tiny_data, TINY[kind])
    doc = spec.to_dict(model)
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc  # no tuples, no TreeNodes
    rows = slice(8, tiny_data.n_rows)
    for back in (spec.from_dict(doc), spec.from_dict(json.loads(json.dumps(doc)))):
        assert np.array_equal(spec.predict(back, tiny_data, rows), spec.predict(model, tiny_data, rows))


def _legacy_stacked_file(path):
    """A stacked model file as written when configs still had a seed field
    and schemas a list of kind tags."""
    schema = {"names": ["spot"], "kinds": ["continuous"]}
    base = {
        "intercept": 10.0,
        "bins": {"cuts": [[0.0]], "vmin": [-1.0], "vmax": [1.0]},
        "shapes": [[-1.0, 1.0]],
        "config": {
            "outer_rounds": 1,
            "learning_rate": 0.5,
            "max_bins": 2,
            "max_leaves_per_round": 2,
            "seed": 0,
        },
        "schema": schema,
    }
    meta = {
        "base_score": 0.5,
        "config": {
            "n_trees": 1,
            "learning_rate": 0.5,
            "gamma": 0.0,
            "reg_lambda": 1.0,
            "max_depth": 1,
            "min_child_weight": 1.0,
            "seed": 42,
        },
        "schema": schema,
        "trees": [
            {"feature": 0, "threshold": 0.0, "left": {"weight": 2.0}, "right": {"weight": 4.0}}
        ],
    }
    doc = {"kind": "stacked", "horizon_steps": 4, "model": {"base": base, "meta": meta}}
    path.write_text(json.dumps(doc, indent=2))


def test_legacy_file_with_seed_loads(tmp_path):
    path = tmp_path / "legacy.json"
    _legacy_stacked_file(path)
    kind, horizon, model = load_model(path)
    assert (kind, horizon) == ("stacked", 4)
    # x = -1: (10 - 1) + (0.5 + 0.5 * 2); x = 1: (10 + 1) + (0.5 + 0.5 * 4).
    preds = stacked_predict_batch(model, np.array([[-1.0], [1.0]]))
    assert preds.tolist() == [10.5, 13.5]
    resaved = tmp_path / "resaved.json"
    save_model(model, horizon, resaved)
    assert "seed" not in resaved.read_text() and "kinds" not in resaved.read_text()
    reloaded = load_model(resaved)[2]
    assert reloaded.meta.config == model.meta.config
    assert reloaded.schema == model.schema
    assert stacked_predict_batch(reloaded, np.array([[-1.0], [1.0]])).tolist() == [10.5, 13.5]


def test_naive_file_whose_horizons_differ_is_schema_error(tmp_path):
    # predict aligns rows by the file's horizon and lags them by the model's:
    # with 32 and 4, every forecast would be the price 28 quarters after it.
    path = tmp_path / "model.json"
    write_json(path, {"kind": "naive", "horizon_steps": 32, "model": {"horizon_steps": 4}})
    with pytest.raises(SchemaError, match="naive horizon_steps 4 is not 32"):
        load_model(path)


@pytest.mark.parametrize("horizon", [0, 4.0])
def test_naive_model_is_saved_only_under_its_own_horizon(horizon, tmp_path):
    # A naive model stores no horizon: the file's, an integer >= 1, is its own.
    path = tmp_path / "model.json"
    with pytest.raises(InvalidArgumentError, match="horizon_steps"):
        save_model(NaiveModel(), horizon, path)
    assert not path.exists()
    save_model(NaiveModel(), 32, path)
    assert path.read_text() == '{"kind": "naive", "horizon_steps": 32, "model": {}}\n'
    assert load_model(path) == ("naive", 32, NaiveModel())


@pytest.mark.parametrize("model", [[], "{}", 4, None])
def test_naive_model_that_is_not_an_object_is_schema_error(model, tmp_path):
    path = tmp_path / "model.json"
    write_json(path, {"kind": "naive", "horizon_steps": 32, "model": model})
    with pytest.raises(SchemaError, match="malformed naive model file"):
        load_model(path)


def test_earlier_naive_file_whose_horizons_agree_loads(tmp_path):
    path = tmp_path / "model.json"
    write_json(path, {"kind": "naive", "horizon_steps": 32, "model": {"horizon_steps": 32}})
    assert load_model(path) == ("naive", 32, NaiveModel())


def test_tree_nested_too_deeply_is_schema_error(tiny_data, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(KINDS["gbt"].train(tiny_data, TINY["gbt"]), 8, path)
    doc = json.loads(path.read_text())
    node = {"weight": 0.0}
    for _ in range(1200):
        node = {"feature": 0, "threshold": 0.0, "left": node, "right": {"weight": 1.0}}
    doc["model"]["trees"] = [node]
    # Hand the nested document to the tree decoder past json's own depth
    # limit: it reads the nest without recursion and refuses its depth as it
    # refuses a flat tree's.
    monkeypatch.setattr(json, "load", lambda fh: doc)
    with pytest.raises(SchemaError) as info:
        load_model(path)
    assert str(info.value) == f"malformed gbt model file {path}: {SchemaError(f'a tree is deeper than {MAX_DEPTH} splits')!r}"


def _set_first(tree, leaf, new):
    """Set the value of the first leaf (or the first split) in ``tree``'s
    pre-order lists to ``new(old)``."""
    i = next(i for i, f in enumerate(tree["feature"]) if (f == -1) == leaf)
    tree["value"][i] = new(tree["value"][i])


def _set(key, value):
    def change(doc):
        doc[key] = value
    return change


@pytest.mark.parametrize(
    "kind, change",
    [
        ("gbt", lambda m: _set_first(m["trees"][0], False, str)),
        ("gbt", lambda m: _set_first(m["trees"][1], True, lambda _: True)),
        ("gbt", lambda m: _set_first(m["trees"][0], True, lambda _: float("nan"))),
        ("gbt", lambda m: _set("base_score", "1.0")(m)),
        ("gbt", lambda m: _set("base_score", 10**400)(m)),
        ("ebm", lambda m: _set(0, [str(c) for c in m["bins"]["cuts"][0]])(m["bins"]["cuts"])),
        ("ebm", lambda m: _set(1, float("inf"))(m["bins"]["cuts"][2])),
        ("ebm", lambda m: _set(0, True)(m["shapes"][0])),
        ("ebm", lambda m: _set(3, None)(m["shapes"][1])),
        ("ebm", lambda m: _set(0, "nan")(m["bins"]["vmin"])),
        ("ebm", lambda m: _set(0, True)(m["bins"]["vmax"])),
        ("ebm", lambda m: _set("intercept", False)(m)),
        ("stacked", lambda m: _set(0, "0")(m["base"]["shapes"][2])),
        ("stacked", lambda m: _set_first(m["meta"]["trees"][0], False, lambda _: [1.0])),
    ],
    ids=[
        "string-threshold", "true-leaf-weight", "nan-leaf-weight", "string-base-score",
        "huge-base-score", "string-cuts", "infinite-cut", "true-in-shape", "null-in-shape",
        "string-vmin", "true-vmax", "false-intercept", "string-in-base-shape",
        "list-meta-threshold",
    ],
)
def test_every_model_number_is_a_finite_json_number(kind, change, tiny_data, tmp_path):
    path = tmp_path / "model.json"
    save_model(KINDS[kind].train(tiny_data, TINY[kind]), 8, path)
    doc = json.loads(path.read_text())
    change(doc["model"])
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb", ""])
def test_schema_name_csv_must_quote_is_schema_error(name, tiny_data, tmp_path):
    path = tmp_path / "model.json"
    save_model(KINDS["gbt"].train(tiny_data, TINY["gbt"]), 8, path)
    doc = json.loads(path.read_text())
    doc["model"]["schema"]["names"][4] = name
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="csv writes unquoted"):
        load_model(path)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_save_model_writes_what_json_dump_writes(kind, tiny_data, tmp_path):
    model = KINDS[kind].train(tiny_data, TINY[kind])
    save_model(model, 8, tmp_path / "model.json")
    doc = {"kind": kind, "horizon_steps": 8, "model": KINDS[kind].to_dict(model)}
    expected = json.dumps(doc, allow_nan=False) + "\n"
    assert (tmp_path / "model.json").read_bytes() == expected.encode()


def test_save_truth_json_writes_what_json_dumps_writes(tmp_path):
    d, truth = generate_synthetic(SyntheticConfig(n_rows=300, seed=21))
    save_truth_json(truth, d, tmp_path / "truth.json")
    table = {name: [[v, c] for v, c in pairs] for name, pairs in truth_table(truth, d).items()}
    expected = json.dumps(table, allow_nan=False) + "\n"
    assert (tmp_path / "truth.json").read_bytes() == expected.encode()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_indented_file_loads_and_predicts_bit_identically(kind, tiny_data, tmp_path):
    """Files written with json.dump(indent=2), as earlier versions did, still load."""
    spec = KINDS[kind]
    model = spec.train(tiny_data, TINY[kind])
    path = tmp_path / "model.json"
    with path.open("w") as fh:
        json.dump({"kind": kind, "horizon_steps": 8, "model": spec.to_dict(model)}, fh, indent=2)
    loaded_kind, horizon, loaded = load_model(path)
    assert (loaded_kind, horizon) == (kind, 8)
    rows = slice(8, tiny_data.n_rows)
    assert np.array_equal(spec.predict(loaded, tiny_data, rows), spec.predict(model, tiny_data, rows))


def _last_leaf_weight(model, value):
    """``model`` (gbt) with the rightmost leaf of its last tree set to ``value``."""
    def rightmost(node):
        if node.is_leaf:
            return node._replace(weight=value)
        return node._replace(right=rightmost(node.right))
    trees = (*model.trees[:-1], rightmost(model.trees[-1]))
    return GbtModel.from_trees(trees, model.base_score, model.config, model.schema)


@pytest.mark.parametrize(
    "kind, spoil",
    [
        ("gbt", lambda m: _last_leaf_weight(m, math.nan)),
        ("gbt", lambda m: _last_leaf_weight(m, math.inf)),
        ("ebm", lambda m: dataclasses.replace(m, intercept=-math.inf)),
        ("stacked", lambda m: dataclasses.replace(m, meta=_last_leaf_weight(m.meta, math.nan))),
    ],
    ids=["gbt-nan-leaf", "gbt-inf-leaf", "ebm-inf-intercept", "stacked-nan-meta-leaf"],
)
def test_non_finite_model_is_not_saved(kind, spoil, tiny_data, tmp_path):
    """A NaN or an infinity anywhere in the model raises ValueError before
    the file is opened: no new file, and an existing one keeps its bytes."""
    model = spoil(KINDS[kind].train(tiny_data, TINY[kind]))
    with pytest.raises(ValueError):
        save_model(model, 8, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()
    existing = tmp_path / "existing.json"
    existing.write_bytes(b"earlier model\n")
    with pytest.raises(ValueError):
        save_model(model, 8, existing)
    assert existing.read_bytes() == b"earlier model\n"


@pytest.mark.parametrize(
    "payload",
    [
        math.nan,
        [1.0, math.inf],
        {"a": -math.inf},
        {math.nan: 1},
        [[np.float64("nan"), 1]],
        [{"weight": math.nan}],
        {"trees": [{"feature": 0, "threshold": math.inf, "left": {"weight": 1.0}, "right": {"weight": 2.0}}]},
    ],
)
def test_writer_rejects_nan_and_infinities(tmp_path, payload):
    json_path = tmp_path / "payload.json"
    json_path.write_text("{}\n")
    with pytest.raises(ValueError):
        write_json(json_path, payload)
    assert json_path.read_text() == "{}\n"


def _gbt_file(path, tree):
    """A one-feature-pair gbt model file whose second tree is ``tree``; the
    first is a leaf nested as earlier versions wrote it, so a flat ``tree``
    shares the file with a nested one."""
    model = {
        "base_score": 0.5,
        "config": {"n_trees": 2, "learning_rate": 0.5, "gamma": 0.0, "reg_lambda": 1.0,
                   "max_depth": 2, "min_child_weight": 1.0},
        "schema": {"names": ["spot", "wind"]},
        "trees": [{"weight": 2.0}, tree],
    }
    path.write_text(json.dumps({"kind": "gbt", "horizon_steps": 4, "model": model}))


def _split(**changes):
    return {"feature": 1, "threshold": 1.5, "left": {"weight": 1.0}, "right": {"weight": 3.0}, **changes}


@pytest.mark.parametrize(
    "tree, message",
    [
        (_split(feature=99), "SchemaError('bad split on feature 99 of 2 at 1.5')"),
        (_split(feature=-1), "SchemaError('bad split on feature -1 of 2 at 1.5')"),
        (_split(feature="1"), "SchemaError(\"bad split on feature '1' of 2 at 1.5\")"),
        (_split(feature=1.0), "SchemaError('bad split on feature 1.0 of 2 at 1.5')"),
        (_split(feature=True), "SchemaError('bad split on feature True of 2 at 1.5')"),
        (_split(threshold="1.5"), "SchemaError(\"expected a finite JSON number, got '1.5'\")"),
        (_split(threshold=True), "SchemaError('expected a finite JSON number, got True')"),
        (_split(threshold=False), "SchemaError('expected a finite JSON number, got False')"),
        (_split(threshold=math.nan), "SchemaError('expected a finite JSON number, got nan')"),
        (_split(threshold=None), "SchemaError('expected a finite JSON number, got None')"),
        (_split(threshold=10**400), "OverflowError("),
        ({"weight": math.inf}, "SchemaError('expected a finite JSON number, got inf')"),
        ({"weight": -math.inf}, "SchemaError('expected a finite JSON number, got -inf')"),
        ({"weight": "1"}, "SchemaError(\"expected a finite JSON number, got '1'\")"),
        ({"weight": True}, "SchemaError('expected a finite JSON number, got True')"),
        ({"weight": [1.0]}, "SchemaError('expected a finite JSON number, got [1.0]')"),
        ({"feature": 1, "threshold": 1.5, "right": {"weight": 1.0}}, "KeyError('left')"),
        ({"feature": 1, "left": {"weight": 1.0}, "right": {"weight": 1.0}}, "KeyError('threshold')"),
        ([1.0], "TypeError("),
        (None, "TypeError("),
    ],
)
def test_malformed_tree_is_the_same_schema_error(tree, message, tmp_path):
    path = tmp_path / "model.json"
    _gbt_file(path, tree)
    with pytest.raises(SchemaError) as info:
        load_model(path)
    expected = f"malformed gbt model file {path}: {message}"
    if message.endswith("("):  # the text of a built-in error varies with the Python version
        assert str(info.value).startswith(expected)
    else:
        assert str(info.value) == expected


def test_integer_tree_numbers_load_as_floats(tmp_path):
    path = tmp_path / "model.json"
    _gbt_file(path, _split(threshold=1, left={"weight": -2}))
    tree = load_model(path)[2].trees[1]
    assert tree == TreeNode(feature=1, threshold=1.0, left=TreeNode(weight=-2.0), right=TreeNode(weight=3.0))
    assert type(tree.threshold) is float and type(tree.left.weight) is float


def _flat(feature, value):
    return {"feature": feature, "value": value}


@pytest.mark.parametrize(
    "tree, message",
    [
        (_flat([1, -1], [1.5, 1.0, 3.0]), "a tree has 2 features and 3 values"),
        (_flat([1, -1, -1], [1.5, 1.0]), "a tree has 3 features and 2 values"),
        (_flat([], []), "a tree has 0 features and 0 values"),
        (_flat([1, -1], [1.5, 1.0]), "a tree's 2 nodes are not one pre-order: a split lacks a child"),
        (_flat([1, 0, -1, -1], [1.5, 0.5, 1.0, 3.0]),
         "a tree's 4 nodes are not one pre-order: a split lacks a child"),
        (_flat([-1, -1], [1.0, 3.0]), "a tree's 2 nodes are not one pre-order: 2 subtrees"),
        (_flat([1, -1, -1, -1], [1.5, 1.0, 3.0, 4.0]), "a tree's 4 nodes are not one pre-order: 2 subtrees"),
        (_flat([-2, -1, -1], [1.5, 1.0, 3.0]), "bad tree feature -2 of 2"),
        (_flat([2, -1, -1], [1.5, 1.0, 3.0]), "bad tree feature 2 of 2"),
        (_flat([True, -1, -1], [1.5, 1.0, 3.0]), "bad tree feature True of 2"),
        (_flat([1.0, -1, -1], [1.5, 1.0, 3.0]), "bad tree feature 1.0 of 2"),
        (_flat(["1", -1, -1], [1.5, 1.0, 3.0]), "bad tree feature '1' of 2"),
        (_flat([1, None, -1], [1.5, 1.0, 3.0]), "bad tree feature None of 2"),
        (_flat([1, -1, -1], [True, 1.0, 3.0]), "expected a finite JSON number, got True"),
        (_flat([1, -1, -1], [1.5, False, 3.0]), "expected a finite JSON number, got False"),
        (_flat([1, -1, -1], ["1.5", 1.0, 3.0]), "expected a finite JSON number, got '1.5'"),
        (_flat([1, -1, -1], [math.nan, 1.0, 3.0]), "expected a finite JSON number, got nan"),
        (_flat([1, -1, -1], [1.5, math.inf, 3.0]), "expected a finite JSON number, got inf"),
        (_flat([1, -1, -1], [1.5, 1.0, -math.inf]), "expected a finite JSON number, got -inf"),
        (_flat([1, -1, -1], [1.5, [1.0], 3.0]), "expected a finite JSON number, got [1.0]"),
        (_flat([1, -1, -1], [1.5, None, 3.0]), "expected a finite JSON number, got None"),
        (_flat([-1], 1.0), "expected a JSON list of numbers, got 1.0"),
        (flat_chain(MAX_DEPTH + 1), f"a tree is deeper than {MAX_DEPTH} splits"),
        (flat_chain(5000), f"a tree is deeper than {MAX_DEPTH} splits"),
    ],
)
def test_malformed_flat_tree_is_schema_error(tree, message, tmp_path):
    path = tmp_path / "model.json"
    _gbt_file(path, tree)
    with pytest.raises(SchemaError) as info:
        load_model(path)
    assert str(info.value) == f"malformed gbt model file {path}: {SchemaError(message)!r}"


@pytest.mark.parametrize(
    "tree, message",
    [
        (_flat([1, -1, -1], [1.5, 10**400, 3.0]), "OverflowError("),
        ({"feature": [1, -1, -1]}, "KeyError('value')"),
    ],
)
def test_flat_tree_without_numbers_is_schema_error(tree, message, tmp_path):
    path = tmp_path / "model.json"
    _gbt_file(path, tree)
    with pytest.raises(SchemaError) as info:
        load_model(path)
    assert str(info.value).startswith(f"malformed gbt model file {path}: {message}")


def _one_tree_doc(tree, p):
    """The ``gbt_to_dict`` document of a model of one tree on ``p`` features."""
    schema = FeatureSchema(tuple(f"f{i}" for i in range(p)))
    return gbt_to_dict(GbtModel.from_trees((tree,), 0.5, GbtConfig(), schema))


def test_flat_codec_does_not_recurse():
    # A recursive encoder raises RecursionError on a chain of 5,000 splits,
    # and a recursive decoder on one of MAX_DEPTH under pytest's own frames.
    tree = TreeNode(1.0)
    for _ in range(5000):
        tree = TreeNode(None, 0, 0.5, tree, TreeNode(1.0))
    assert _one_tree_doc(tree, 1)["trees"] == [flat_chain(5000)]
    doc = _one_tree_doc(TreeNode(1.0), 1)
    doc["trees"] = [flat_chain(MAX_DEPTH)]
    tree, depth = gbt_from_dict(doc).trees[0], 0
    while not tree.is_leaf:
        assert tree.right == TreeNode(1.0)
        tree, depth = tree.left, depth + 1
    assert depth == MAX_DEPTH


def test_tree_lists_are_its_pre_order():
    tree = TreeNode(None, 1, 1.5, TreeNode(None, 0, -2.0, TreeNode(3.0), TreeNode(4.0)), TreeNode(5.0))
    doc = {"feature": [1, 0, -1, -1, -1], "value": [1.5, -2.0, 3.0, 4.0, 5.0]}
    assert _one_tree_doc(tree, 2)["trees"] == [doc]
    assert tree_from_lists(doc, 2) == (doc["feature"], doc["value"])
    loaded = gbt_from_dict(_one_tree_doc(tree, 2))
    assert loaded.trees == (tree,)
    # The root's right child is node 4, the left child's node 3.
    assert loaded.right.tolist() == [4, 3, -1, -1, -1]


def test_integer_flat_tree_numbers_load_as_floats(tmp_path):
    path = tmp_path / "model.json"
    _gbt_file(path, _flat([1, -1, -1], [1, -2, 3.0]))
    tree = load_model(path)[2].trees[1]
    assert tree == TreeNode(feature=1, threshold=1.0, left=TreeNode(weight=-2.0), right=TreeNode(weight=3.0))
    assert type(tree.threshold) is float and type(tree.left.weight) is float


def _gbt_part(kind, model):
    return model if kind == "gbt" else model.meta


# Trees at the default depth, and deep enough for more than 64 leaves, which
# predict partitions before it scores them by bitvectors.
DEPTHS = {
    "default": {
        "gbt": GbtConfig(n_trees=3),
        "stacked": (EbmConfig(outer_rounds=4, max_bins=16), GbtConfig(n_trees=3)),
    },
    "depth-8": {
        "gbt": GbtConfig(n_trees=3, max_depth=8),
        "stacked": (EbmConfig(outer_rounds=4, max_bins=16), GbtConfig(n_trees=3, max_depth=8)),
    },
}


def _leaves(node):
    return 1 if node.is_leaf else _leaves(node.left) + _leaves(node.right)


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
@pytest.mark.parametrize("depth", sorted(DEPTHS))
@pytest.mark.parametrize("kind", ["gbt", "stacked"])
def test_nested_tree_file_loads_like_the_flat_one(kind, depth, indent, deep_data, tmp_path):
    """Files whose trees are nested objects, as earlier versions wrote them,
    load to the trees of the flat file and predict the same bytes."""
    spec = KINDS[kind]
    model = spec.train(deep_data, DEPTHS[depth][kind])
    most = max(map(_leaves, _gbt_part(kind, model).trees))
    assert most > 64 if depth == "depth-8" else most <= 64
    flat, nested = tmp_path / "flat.json", tmp_path / "nested.json"
    save_model(model, 8, flat)
    doc = {"kind": kind, "horizon_steps": 8, "model": legacy_model_doc(kind, model)}
    nested.write_text(json.dumps(doc, indent=indent))
    assert '"threshold"' in nested.read_text() and '"threshold"' not in flat.read_text()
    (_, _, from_flat), (_, _, from_nested) = load_model(flat), load_model(nested)
    trained = _gbt_part(kind, model)
    for m in (from_flat, from_nested):
        part = _gbt_part(kind, m)
        assert (part.trees, part.base_score, part.config) == (trained.trees, trained.base_score, trained.config)
        assert m.schema == model.schema
    rows = slice(8, deep_data.n_rows)
    expected = spec.predict(model, deep_data, rows).tobytes()
    assert spec.predict(from_flat, deep_data, rows).tobytes() == expected
    assert spec.predict(from_nested, deep_data, rows).tobytes() == expected
    resaved = tmp_path / "resaved.json"
    save_model(from_nested, 8, resaved)
    assert resaved.read_bytes() == flat.read_bytes()
