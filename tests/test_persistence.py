import json

import numpy as np
import pytest

from balancecast import (
    KINDS,
    SchemaError,
    EbmConfig,
    GbtConfig,
    SyntheticConfig,
    align_horizon,
    generate_synthetic,
    load_model,
    save_model,
    stacked_predict_batch,
)

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


def _legacy_stacked_file(path):
    """A stacked model file as written when configs still had a seed field."""
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
    assert "seed" not in resaved.read_text()
    assert load_model(resaved)[2].meta.config == model.meta.config


def test_tree_nested_too_deeply_is_schema_error(tiny_data, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(KINDS["gbt"].train(tiny_data, TINY["gbt"]), 8, path)
    doc = json.loads(path.read_text())
    node = {"weight": 0.0}
    for _ in range(1200):
        node = {"feature": 0, "threshold": 0.0, "left": node, "right": {"weight": 1.0}}
    doc["model"]["trees"] = [node]
    # Hand the nested document to the tree decoder past json's own depth limit.
    monkeypatch.setattr(json, "load", lambda fh: doc)
    with pytest.raises(SchemaError, match="RecursionError"):
        load_model(path)
