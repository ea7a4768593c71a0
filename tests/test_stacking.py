import json

import numpy as np
import pytest

from balancecast import (
    Dataset,
    EbmConfig,
    FeatureSchema,
    GbtConfig,
    ebm_predict,
    ebm_predict_batch,
    ebm_train,
    gbt_predict,
    stacked_from_dict,
    stacked_predict,
    stacked_predict_batch,
    stacked_to_dict,
    stacked_train,
)


def dataset_for(features, target):
    features = np.asarray(features, dtype=np.float64)
    schema = FeatureSchema(tuple(f"f{i}" for i in range(features.shape[1])))
    return Dataset(
        timestamps=np.arange(features.shape[0]),
        features=features,
        target=np.asarray(target, dtype=np.float64),
        schema=schema,
    )


def step_dataset(n=120, seed=0):
    # Exactly representable by an additive model: a step in feature 0, with
    # a constant companion so convergence is purely geometric.
    rng = np.random.default_rng(seed)
    x = np.column_stack(
        [rng.choice([0.1, 0.4, 0.6, 0.9], size=n), np.full(n, 5.0)]
    )
    y = np.where(x[:, 0] > 0.5, 3.0, -2.0)
    return dataset_for(x, y)


def interaction_dataset(spiky_data):
    dataset, _ = spiky_data
    hydro = dataset.features[:, dataset.schema.index_of("hydro")]
    heating = dataset.features[:, dataset.schema.index_of("heating")]
    y = dataset.target + 0.01 * (hydro - 320.0) * (heating - 20.0)
    return dataset.with_target(y)


class TestStackedTrain:
    def test_perfect_base_leaves_meta_near_zero(self):
        d = step_dataset()
        ebm_cfg = EbmConfig(outer_rounds=60, learning_rate=0.5, max_bins=32)
        m = stacked_train(d, ebm_cfg, GbtConfig(n_trees=20, max_depth=3))
        base_only = ebm_predict_batch(m.base, d.features)
        stacked = stacked_predict_batch(m, d.features)
        assert np.max(np.abs(stacked - base_only)) < 1e-6

    def test_zero_tree_meta_adds_mean_residual(self, spiky_data):
        dataset, _ = spiky_data
        sub = dataset.slice_rows(0, 400)
        ebm_cfg = EbmConfig(outer_rounds=20, learning_rate=0.3, max_bins=16)
        m = stacked_train(sub, ebm_cfg, GbtConfig(n_trees=0))
        base_pred = ebm_predict_batch(m.base, sub.features)
        mean_residual = float(np.mean(sub.target - base_pred))
        assert m.meta.base_score == pytest.approx(mean_residual, abs=1e-12)
        stacked = stacked_predict_batch(m, sub.features)
        assert np.allclose(stacked, base_pred + mean_residual, atol=1e-12)

    def test_training_mse_not_worse_than_base(self, spiky_data):
        d = interaction_dataset(spiky_data).slice_rows(0, 900)
        ebm_cfg = EbmConfig(outer_rounds=60, learning_rate=0.25, max_bins=32)
        base = ebm_train(d, ebm_cfg)
        stacked = stacked_train(d, ebm_cfg, GbtConfig(n_trees=30, max_depth=3))
        base_mse = float(np.mean((d.target - ebm_predict_batch(base, d.features)) ** 2))
        stacked_mse = float(
            np.mean((d.target - stacked_predict_batch(stacked, d.features)) ** 2)
        )
        assert stacked_mse <= base_mse + 1e-9

    def test_meta_captures_interaction_out_of_sample(self, spiky_data):
        d = interaction_dataset(spiky_data)
        train, test = d.slice_rows(0, 1300), d.slice_rows(1300, d.n_rows)
        ebm_cfg = EbmConfig(outer_rounds=80, learning_rate=0.25, max_bins=32)
        base = ebm_train(train, ebm_cfg)
        stacked = stacked_train(
            train, ebm_cfg, GbtConfig(n_trees=60, max_depth=4, learning_rate=0.12)
        )
        base_mae = float(
            np.mean(np.abs(test.target - ebm_predict_batch(base, test.features)))
        )
        stacked_mae = float(
            np.mean(np.abs(test.target - stacked_predict_batch(stacked, test.features)))
        )
        assert stacked_mae <= base_mae

    def test_schemas_match(self, spiky_data):
        dataset, _ = spiky_data
        sub = dataset.slice_rows(0, 300)
        m = stacked_train(
            sub,
            EbmConfig(outer_rounds=5, learning_rate=0.3, max_bins=8),
            GbtConfig(n_trees=2, max_depth=2),
        )
        assert m.base.schema == m.meta.schema == m.schema == sub.schema


class TestStackedPredict:
    def test_sum_decomposition_exact(self, spiky_data):
        dataset, _ = spiky_data
        sub = dataset.slice_rows(0, 300)
        m = stacked_train(
            sub,
            EbmConfig(outer_rounds=10, learning_rate=0.3, max_bins=16),
            GbtConfig(n_trees=5, max_depth=3),
        )
        for i in (0, 11, 205):
            x = sub.features[i]
            assert stacked_predict(m, x) == ebm_predict(m.base, x) + gbt_predict(
                m.meta, x
            )

    def test_finite_everywhere(self, spiky_data):
        dataset, _ = spiky_data
        sub = dataset.slice_rows(0, 300)
        m = stacked_train(
            sub,
            EbmConfig(outer_rounds=5, learning_rate=0.3, max_bins=8),
            GbtConfig(n_trees=3, max_depth=2),
        )
        assert np.isfinite(stacked_predict_batch(m, sub.features)).all()

    def test_base_explanation_still_sums_to_base_output(self, spiky_data):
        from balancecast import explain_local

        dataset, _ = spiky_data
        sub = dataset.slice_rows(0, 300)
        m = stacked_train(
            sub,
            EbmConfig(outer_rounds=10, learning_rate=0.3, max_bins=16),
            GbtConfig(n_trees=5, max_depth=3),
        )
        x = sub.features[42]
        acc = m.base.intercept
        for _, c in explain_local(m.base, x):
            acc += c
        assert acc == ebm_predict(m.base, x)


class TestStackedPersistence:
    def test_round_trip_exact(self, spiky_data):
        dataset, _ = spiky_data
        sub = dataset.slice_rows(0, 250)
        m = stacked_train(
            sub,
            EbmConfig(outer_rounds=8, learning_rate=0.3, max_bins=16),
            GbtConfig(n_trees=4, max_depth=3),
        )
        doc = json.loads(json.dumps(stacked_to_dict(m)))
        back = stacked_from_dict(doc)
        assert np.array_equal(
            stacked_predict_batch(back, sub.features),
            stacked_predict_batch(m, sub.features),
        )

    def test_envelope_keys(self, spiky_data):
        dataset, _ = spiky_data
        sub = dataset.slice_rows(0, 100)
        m = stacked_train(
            sub,
            EbmConfig(outer_rounds=2, learning_rate=0.3, max_bins=8),
            GbtConfig(n_trees=1, max_depth=2),
        )
        assert set(stacked_to_dict(m)) == {"base", "meta"}
