import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from balancecast import (
    Dataset,
    DegenerateLeafError,
    FeatureSchema,
    GbtConfig,
    GbtModel,
    InvalidArgumentError,
    SchemaError,
    TreeNode,
    fit_tree,
    gbt_from_dict,
    gbt_predict,
    gbt_predict_batch,
    gbt_to_dict,
    gbt_train,
    leaf_weight,
    split_gain,
)
from balancecast.data import CONTINUOUS


def schema_for(p):
    return FeatureSchema(tuple(f"f{i}" for i in range(p)), (CONTINUOUS,) * p)


def dataset_for(features, target=None):
    features = np.asarray(features, dtype=np.float64)
    if target is None:
        target = np.zeros(features.shape[0])
    return Dataset(
        timestamps=np.arange(features.shape[0]),
        features=features,
        target=np.asarray(target, dtype=np.float64),
        schema=schema_for(features.shape[1]),
    )


# ---------------------------------------------------------------------------
# Definition-level oracles, independent of the implementation under test.
# ---------------------------------------------------------------------------


def oracle_term(g_sum, h_sum, lam):
    den = h_sum + lam
    term = 0.0 if den == 0.0 else g_sum * g_sum / den
    return term if math.isfinite(term) else 0.0  # an overflowing score counts as none


def oracle_best_split(x, g, h, lam, gamma, min_child_weight=0.0):
    """Exhaustively score every (feature, midpoint) candidate with loops."""
    n, p = x.shape
    g_total = float(sum(g))
    h_total = float(sum(h))
    parent = oracle_term(g_total, h_total, lam)
    best = None
    for j in range(p):
        distinct = sorted(set(float(v) for v in x[:, j]))
        for a, b in zip(distinct[:-1], distinct[1:]):
            threshold = (a + b) / 2.0
            g_left = h_left = 0.0
            for i in range(n):
                if x[i, j] <= threshold:
                    g_left += float(g[i])
                    h_left += float(h[i])
            g_right = g_total - g_left
            h_right = h_total - h_left
            if h_left < min_child_weight or h_right < min_child_weight:
                continue
            gain = (
                0.5
                * (
                    oracle_term(g_left, h_left, lam)
                    + oracle_term(g_right, h_right, lam)
                    - parent
                )
                - gamma
            )
            if best is None or gain > best[0]:
                best = (gain, j, threshold)
    return best


def leaf_members(root, x):
    """Map each leaf node to the row indices it receives."""
    members = {}
    for i, row in enumerate(x):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        members.setdefault(id(node), (node, []))[1].append(i)
    return list(members.values())


class TestSplitGain:
    def test_zero_gradients(self):
        assert split_gain(0, 1, 0, 1, 0, 0) == 0.0

    def test_symmetric_split(self):
        # 1/2 (4/1 + 4/1 - 0/2) = 4.
        assert split_gain(2, 1, -2, 1, 0, 0) == 4.0

    def test_gamma_subtracted(self):
        assert split_gain(2, 1, -2, 1, 0, 1.5) == 2.5

    def test_zero_denominator_contributes_zero(self):
        # Empty left side with lambda = 0: its term is defined as 0.
        assert split_gain(0, 0, 1, 1, 0, 0) == 0.0

    @given(
        gl=st.floats(-50, 50),
        hl=st.floats(0, 50),
        gr=st.floats(-50, 50),
        hr=st.floats(0, 50),
        lam=st.floats(0, 10),
        gamma=st.floats(0, 5),
    )
    @example(gl=1.0, hl=5e-324, gr=0.0, hr=0.0, lam=0.0, gamma=0.0)  # score overflows
    def test_matches_oracle_formula(self, gl, hl, gr, hr, lam, gamma):
        expected = (
            0.5
            * (
                oracle_term(gl, hl, lam)
                + oracle_term(gr, hr, lam)
                - oracle_term(gl + gr, hl + hr, lam)
            )
            - gamma
        )
        assert split_gain(gl, hl, gr, hr, lam, gamma) == pytest.approx(
            expected, abs=1e-12
        )


class TestLeafWeight:
    def test_zero_gradient(self):
        assert leaf_weight(0, 4, 0) == 0.0

    def test_direct_arithmetic(self):
        assert leaf_weight(3, 2, 1) == -1.0
        assert leaf_weight(-2, 1, 1) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateLeafError):
            leaf_weight(1.0, 0.0, 0.0)


class TestFitTree:
    def test_equal_gradients_single_leaf(self):
        d = dataset_for([[0.0], [1.0], [2.0], [3.0]])
        root = fit_tree(d, np.ones(4), np.ones(4), GbtConfig(reg_lambda=0.0, min_child_weight=0.0))
        assert root.is_leaf
        assert root.weight == -1.0

    def test_hand_enumerated_split(self):
        # g = [-1,-1,1,1] at x = [0,1,2,3]: candidate gains are 2/3, 2.0 and
        # 2/3, so the winner is the midpoint 1.5 with leaf weights +1 / -1.
        d = dataset_for([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        cfg = GbtConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
        root = fit_tree(d, g, np.ones(4), cfg)
        assert not root.is_leaf
        assert 1.0 < root.threshold < 2.0
        assert root.left.weight == 1.0
        assert root.right.weight == -1.0

    def test_max_depth_respected(self):
        rng = np.random.default_rng(0)
        d = dataset_for(rng.normal(size=(30, 2)))
        g = rng.normal(size=30)
        root = fit_tree(d, g, np.ones(30), GbtConfig(max_depth=1, min_child_weight=0.0))
        assert root.depth() <= 1

    def test_empty_dataset_rejected(self):
        d = dataset_for(np.zeros((0, 1)).reshape(0, 1))
        with pytest.raises(InvalidArgumentError):
            fit_tree(d, [], [], GbtConfig())

    def test_gh_length_mismatch(self):
        d = dataset_for([[0.0], [1.0]])
        with pytest.raises(InvalidArgumentError):
            fit_tree(d, [1.0], [1.0], GbtConfig())

    @pytest.mark.parametrize("seed", range(12))
    def test_root_split_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        p = int(rng.integers(1, 3))
        # Mix of continuous and tied values to exercise boundary handling.
        x = np.round(rng.normal(size=(n, p)) * 2.0, 1)
        g = rng.normal(size=n)
        h = np.ones(n)
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        gamma = float(rng.choice([0.0, 0.2]))
        cfg = GbtConfig(
            max_depth=1, reg_lambda=lam, gamma=gamma, min_child_weight=0.0
        )
        d = dataset_for(x)
        root = fit_tree(d, g, h, cfg)
        best = oracle_best_split(x, g, h, lam, gamma)
        if best is None or best[0] <= 0.0:
            assert root.is_leaf
            return
        assert not root.is_leaf
        chosen = oracle_gain_of(x, g, h, root.feature, root.threshold, lam, gamma)
        assert chosen == pytest.approx(best[0], abs=1e-9)
        # Leaf weights equal -G/(H + lambda) over their member rows, exactly.
        for node, rows in leaf_members(root, x):
            rows = np.asarray(rows)
            assert node.weight == leaf_weight(
                float(g[rows].sum()), float(h[rows].sum()), lam
            )


def oracle_gain_of(x, g, h, feature, threshold, lam, gamma):
    left = x[:, feature] <= threshold
    gl, hl = float(g[left].sum()), float(h[left].sum())
    gr, hr = float(g[~left].sum()), float(h[~left].sum())
    return (
        0.5
        * (
            oracle_term(gl, hl, lam)
            + oracle_term(gr, hr, lam)
            - oracle_term(gl + gr, hl + hr, lam)
        )
        - gamma
    )


class TestGbtTrain:
    def test_zero_trees_predicts_mean(self):
        d = dataset_for([[0.0], [1.0], [2.0]], [3.0, 6.0, 9.0])
        m = gbt_train(d, GbtConfig(n_trees=0))
        assert m.base_score == 6.0
        assert gbt_predict(m, [5.0]) == 6.0

    def test_constant_target_exact(self):
        d = dataset_for(np.random.default_rng(1).normal(size=(20, 2)), np.full(20, 7.5))
        m = gbt_train(d, GbtConfig(n_trees=10, reg_lambda=0.0, min_child_weight=0.0))
        preds = gbt_predict_batch(m, d.features)
        assert np.array_equal(preds, np.full(20, 7.5))

    def test_single_tree_full_step_matches_split_oracle(self):
        # K=1, eta=1, lambda=gamma=0, depth 1: the training MSE must equal
        # the best achievable over every single split, found by enumeration.
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([5.0, 5.0, 9.0, 9.0])
        d = dataset_for(x, y)
        cfg = GbtConfig(
            n_trees=1,
            learning_rate=1.0,
            reg_lambda=0.0,
            gamma=0.0,
            max_depth=1,
            min_child_weight=0.0,
        )
        m = gbt_train(d, cfg)
        best_mse = None
        for thr in (0.5, 1.5, 2.5):
            left = x[:, 0] <= thr
            pred = np.where(left, y[left].mean(), y[~left].mean())
            mse = float(np.mean((y - pred) ** 2))
            best_mse = mse if best_mse is None else min(best_mse, mse)
        assert m.train_mse[-1] == pytest.approx(best_mse, abs=1e-12)
        assert m.train_mse[-1] == pytest.approx(0.0, abs=1e-12)

    def test_monotone_training_loss(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 500)
        m = gbt_train(sub, GbtConfig(n_trees=25, max_depth=3))
        curve = np.asarray(m.train_mse)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_needs_two_rows(self):
        d = dataset_for([[1.0]], [2.0])
        with pytest.raises(InvalidArgumentError):
            gbt_train(d, GbtConfig(n_trees=1))

    def test_row_permutation_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(3)
        x = np.round(rng.normal(size=(60, 2)), 1)
        y = x[:, 0] * 2 + rng.normal(size=60)
        d = dataset_for(x, y)
        perm = rng.permutation(60)
        d_perm = dataset_for(x[perm], y[perm])
        cfg = GbtConfig(n_trees=8, max_depth=3, min_child_weight=0.0)
        grid = np.round(rng.normal(size=(40, 2)), 2)
        p1 = gbt_predict_batch(gbt_train(d, cfg), grid)
        p2 = gbt_predict_batch(gbt_train(d_perm, cfg), grid)
        assert np.allclose(p1, p2, atol=1e-9)


class TestGbtPredict:
    def test_single_leaf_tree_with_shrinkage(self):
        m = GbtModel(
            trees=(TreeNode(weight=2.0),),
            base_score=10.0,
            config=GbtConfig(learning_rate=0.5),
            schema=schema_for(1),
        )
        assert gbt_predict(m, [0.0]) == 11.0

    def test_dimension_mismatch(self):
        m = GbtModel(
            trees=(), base_score=0.0, config=GbtConfig(), schema=schema_for(2)
        )
        with pytest.raises(SchemaError):
            gbt_predict(m, [1.0])
        with pytest.raises(SchemaError):
            gbt_predict_batch(m, np.zeros((3, 3)))

    def test_prediction_decomposition(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 300)
        m = gbt_train(sub, GbtConfig(n_trees=6, max_depth=3))
        eta = m.config.learning_rate
        for i in (0, 7, 131):
            x = sub.features[i]
            routed = [tree.predict_row(x) for tree in m.trees]
            expected = m.base_score
            for w in routed:
                expected += eta * w
            assert gbt_predict(m, x) == expected

    def test_finite_on_training_rows(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 200)
        m = gbt_train(sub, GbtConfig(n_trees=4, max_depth=4))
        assert np.isfinite(gbt_predict_batch(m, sub.features)).all()


class TestGbtPersistence:
    def test_round_trip_exact(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 250)
        m = gbt_train(sub, GbtConfig(n_trees=5, max_depth=4))
        doc = json.loads(json.dumps(gbt_to_dict(m)))
        back = gbt_from_dict(doc)
        assert back.base_score == m.base_score
        assert back.config == m.config
        assert np.array_equal(
            gbt_predict_batch(back, sub.features), gbt_predict_batch(m, sub.features)
        )

    def test_document_shape(self):
        d = dataset_for([[0.0], [1.0]], [1.0, 2.0])
        m = gbt_train(d, GbtConfig(n_trees=1, min_child_weight=0.0))
        doc = gbt_to_dict(m)
        assert set(doc) == {"base_score", "config", "schema", "trees"}
        assert len(doc["trees"]) == 1
