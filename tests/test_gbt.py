import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    tree_predict,
)
from balancecast.data import CONTINUOUS, SyntheticConfig, align_horizon, generate_synthetic
from balancecast.persistence import save_model, tree_to_dict


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


# ---------------------------------------------------------------------------
# Reference implementation: the per-node, per-feature exact search that the
# presorted all-feature search replaced. Trees must match it bit for bit.
# ---------------------------------------------------------------------------


def reference_best_split(x, g, h, idx, cfg):
    g_total = float(g[idx].sum())
    h_total = float(h[idx].sum())
    parent = oracle_term(g_total, h_total, cfg.reg_lambda)
    best = None
    for j in range(x.shape[1]):
        values = x[idx, j]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        boundary = np.nonzero(vs[:-1] != vs[1:])[0]
        if boundary.size == 0:
            continue
        gs = np.cumsum(g[idx][order])
        hs = np.cumsum(h[idx][order])
        g_left = gs[boundary]
        h_left = hs[boundary]
        g_right = g_total - g_left
        h_right = h_total - h_left
        valid = (h_left >= cfg.min_child_weight) & (h_right >= cfg.min_child_weight)
        if not valid.any():
            continue
        denom_l = h_left + cfg.reg_lambda
        denom_r = h_right + cfg.reg_lambda
        score_l = np.divide(g_left * g_left, denom_l, out=np.zeros_like(denom_l), where=denom_l != 0)
        score_r = np.divide(g_right * g_right, denom_r, out=np.zeros_like(denom_r), where=denom_r != 0)
        gains = 0.5 * (score_l + score_r - parent) - cfg.gamma
        gains[~valid] = -np.inf
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if best is None or gain > best[0]:
            b = boundary[k]
            best = (gain, j, float(0.5 * (vs[b] + vs[b + 1])))
    return best


def reference_grow(x, g, h, idx, depth, cfg):
    def leaf():
        return TreeNode(
            weight=leaf_weight(float(g[idx].sum()), float(h[idx].sum()), cfg.reg_lambda)
        )

    if depth >= cfg.max_depth or idx.size < 2:
        return leaf()
    best = reference_best_split(x, g, h, idx, cfg)
    if best is None or best[0] <= 0.0:
        return leaf()
    _, feature, threshold = best
    mask = x[idx, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=reference_grow(x, g, h, idx[mask], depth + 1, cfg),
        right=reference_grow(x, g, h, idx[~mask], depth + 1, cfg),
    )


def reference_fit_tree(d, g, h, cfg):
    return reference_grow(d.features, g, h, np.arange(d.n_rows), 0, cfg)


def reference_gbt_train(d, cfg):
    y = d.target
    base = float(y.mean())
    pred = np.full(d.n_rows, base)
    mse = [float(np.mean((y - pred) ** 2))]
    trees = []
    h = np.ones(d.n_rows)
    for _ in range(cfg.n_trees):
        root = reference_fit_tree(d, pred - y, h, cfg)
        trees.append(root)
        pred = pred + cfg.learning_rate * tree_predict(root, d.features)
        mse.append(float(np.mean((y - pred) ** 2)))
    return GbtModel(tuple(trees), base, cfg, d.schema, tuple(mse))


def tree_outcome(fit):
    """The tree's JSON encoding (exact to the bit), or the error it raised."""
    try:
        return json.dumps(tree_to_dict(fit()))
    except DegenerateLeafError as exc:
        return f"DegenerateLeafError: {exc}"


@st.composite
def tied_tree_problems(draw):
    """Small feature matrices full of ties, with gradients."""
    n = draw(st.integers(2, 24))
    p = draw(st.integers(1, 4))
    columns = []
    for _ in range(p):
        if draw(st.booleans()):
            columns.append([draw(st.sampled_from([-1.0, 0.0, 2.5]))] * n)
        else:
            columns.append(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    x = np.array(columns, dtype=np.float64).T
    g_values = st.one_of(st.floats(-10, 10), st.integers(-4, 4).map(float))
    g = np.array(draw(st.lists(g_values, min_size=n, max_size=n)))
    # Now and then one extreme entry: enough to reach the NaN and overflow
    # paths without making every example degenerate.
    if draw(st.integers(0, 3)) == 0:
        g[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return x, g


@st.composite
def unit_hessian_problems(draw):
    """Tied feature matrices with every Hessian exactly 1, as gbt_train passes,
    and minimum child weights on both sides of whole row counts."""
    x, g = draw(tied_tree_problems())
    cfg = GbtConfig(
        max_depth=draw(st.integers(1, 4)),
        reg_lambda=draw(st.sampled_from([0.0, 0.5, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
    )
    return x, g, np.ones(len(g)), cfg


# Feature 0 has no candidate; an infinite gradient gives feature 1 a NaN gain
# and feature 2 an infinite one. The NaN, met first, wins, and a NaN gain
# splits: the root splits on feature 1.
NAN_BLOCKS_LATER_FEATURES = (
    np.array([[5.0, 0.0, 3.0], [5.0, 1.0, 0.0], [5.0, 2.0, 2.0]]),
    np.array([math.inf, 1.0, 1.0]),
    np.ones(3),
    GbtConfig(max_depth=2),
)


def assert_fit_tree_matches_reference(x, g, h, cfg):
    d = dataset_for(x)
    expected = tree_outcome(lambda: reference_fit_tree(d, g, h, cfg))
    assert tree_outcome(lambda: fit_tree(d, g, cfg)) == expected


def assert_gbt_train_matches_reference(tmp_path, cfg):
    """gbt_train on the seed-1 synth (horizon 32, first 1200 rows) writes the
    reference's model file byte for byte and records the same train_mse."""
    dataset, _ = generate_synthetic(SyntheticConfig(n_rows=2000, seed=1))
    sub = align_horizon(dataset, 32).slice_rows(0, 1200)
    model = gbt_train(sub, cfg)
    ref = reference_gbt_train(sub, cfg)
    save_model(model, 32, tmp_path / "model.json")
    save_model(ref, 32, tmp_path / "reference.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert model.train_mse == ref.train_mse


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(unit_hessian_problems())
    @example(NAN_BLOCKS_LATER_FEATURES)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fit_tree_bit_identical_with_unit_hessians(self, problem):
        assert_fit_tree_matches_reference(*problem)

    def test_gbt_train_bit_identical_on_synth(self, tmp_path):
        assert_gbt_train_matches_reference(tmp_path, GbtConfig(n_trees=20))

    @pytest.mark.parametrize("min_child_weight", [0.0, 1.5])
    @pytest.mark.parametrize("max_depth", [1, 2, 6])
    def test_gbt_train_bit_identical_on_synth_configs(self, tmp_path, max_depth, min_child_weight):
        cfg = GbtConfig(n_trees=20, max_depth=max_depth, min_child_weight=min_child_weight)
        assert_gbt_train_matches_reference(tmp_path, cfg)


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
        root = fit_tree(d, np.ones(4), GbtConfig(reg_lambda=0.0, min_child_weight=0.0))
        assert root.is_leaf
        assert root.weight == -1.0

    def test_hand_enumerated_split(self):
        # g = [-1,-1,1,1] at x = [0,1,2,3]: candidate gains are 2/3, 2.0 and
        # 2/3, so the winner is the midpoint 1.5 with leaf weights +1 / -1.
        d = dataset_for([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        cfg = GbtConfig(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
        root = fit_tree(d, g, cfg)
        assert not root.is_leaf
        assert 1.0 < root.threshold < 2.0
        assert root.left.weight == 1.0
        assert root.right.weight == -1.0

    def test_max_depth_respected(self):
        rng = np.random.default_rng(0)
        d = dataset_for(rng.normal(size=(30, 2)))
        g = rng.normal(size=30)
        root = fit_tree(d, g, GbtConfig(max_depth=1, min_child_weight=0.0))
        assert root.depth() <= 1

    def test_empty_dataset_rejected(self):
        d = dataset_for(np.zeros((0, 1)).reshape(0, 1))
        with pytest.raises(InvalidArgumentError):
            fit_tree(d, [], GbtConfig())

    def test_gh_length_mismatch(self):
        d = dataset_for([[0.0], [1.0]])
        with pytest.raises(InvalidArgumentError):
            fit_tree(d, [1.0], GbtConfig())

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
        root = fit_tree(d, g, cfg)
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


class TestRejectsNonFiniteConfig:
    @pytest.mark.parametrize("field", ["gamma", "reg_lambda", "min_child_weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError):
            GbtConfig(**{field: value})


def fitted_tree(x, g, cfg):
    d = dataset_for(x)
    root = fit_tree(d, g, cfg)
    assert tree_outcome(lambda: root) == tree_outcome(
        lambda: reference_fit_tree(d, g, np.ones(len(g)), cfg)
    )
    return root


class TestConstantFeatures:
    """A feature constant among a node's rows has no candidate there or
    below; dropping it must leave the schema indices of the others intact."""

    def test_constant_at_the_root(self):
        # Features 0 and 2 never vary; the tied pairs of feature 1 split.
        x = np.array([[7.0, 0.0, -1.0], [7.0, 0.0, -1.0], [7.0, 1.0, -1.0], [7.0, 1.0, -1.0]])
        cfg = GbtConfig(max_depth=3, reg_lambda=0.0, min_child_weight=0.0)
        root = fitted_tree(x, np.array([-1.0, -1.0, 1.0, 1.0]), cfg)
        assert (root.feature, root.threshold) == (1, 0.5)
        assert (root.left.weight, root.right.weight) == (1.0, -1.0)

    def test_constant_only_inside_one_subtree(self):
        # Feature 1 splits the root. Feature 2 is constant on its left side
        # but splits its right side; feature 3 splits the left side.
        x = np.array(
            [
                [4.0, 0.0, 5.0, 0.0],
                [4.0, 0.0, 5.0, 0.0],
                [4.0, 0.0, 5.0, 1.0],
                [4.0, 0.0, 5.0, 1.0],
                [4.0, 1.0, 2.0, 9.0],
                [4.0, 1.0, 2.0, 9.0],
                [4.0, 1.0, 3.0, 9.0],
                [4.0, 1.0, 3.0, 9.0],
            ]
        )
        g = np.array([-1.0, -1.0, -3.0, -3.0, 10.0, 10.0, 12.0, 12.0])
        cfg = GbtConfig(max_depth=3, reg_lambda=0.0, min_child_weight=0.0)
        root = fitted_tree(x, g, cfg)
        assert (root.feature, root.threshold) == (1, 0.5)
        assert (root.left.feature, root.left.threshold) == (3, 0.5)
        assert (root.right.feature, root.right.threshold) == (2, 2.5)
        weights = [root.left.left, root.left.right, root.right.left, root.right.right]
        assert [node.weight for node in weights] == [1.0, 3.0, -10.0, -12.0]


@st.composite
def predict_problems(draw):
    """A small model fitted on tied random data, and query rows that hit its
    thresholds exactly, fall between them or hold NaN."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 3))
    cells = st.integers(0, 4).map(float)
    x = np.array(draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
    cfg = GbtConfig(
        n_trees=draw(st.integers(0, 6)),
        max_depth=draw(st.integers(1, 4)),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        min_child_weight=0.0,
    )
    model = gbt_train(dataset_for(x, y), cfg)
    query_cells = st.one_of(st.integers(-1, 9).map(lambda v: v / 2.0), st.just(math.nan))
    rows = draw(st.lists(st.lists(query_cells, min_size=p, max_size=p), max_size=12))
    return model, np.array(rows, dtype=np.float64).reshape(len(rows), p)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestPredictMatchesRowReference:
    @settings(max_examples=150, deadline=None)
    @given(predict_problems(), st.sampled_from(["c", "fortran", "strided"]))
    def test_batch_and_single_row_bit_identical(self, problem, layout):
        model, rows = problem
        if layout == "fortran":
            rows = np.asfortranarray(rows)
        elif layout == "strided":
            wide = np.full((rows.shape[0] * 2, rows.shape[1] + 1), 99.0)
            wide[::2, 1:] = rows
            rows = wide[::2, 1:]
        expected = []
        for row in rows:
            acc = model.base_score
            for tree in model.trees:
                acc += model.config.learning_rate * tree.predict_row(row)
            expected.append(acc)
        batch = gbt_predict_batch(model, rows)
        assert batch.shape == (rows.shape[0],)
        assert np.array_equal(bits(batch), bits(expected))
        single = [gbt_predict(model, row) for row in rows]
        assert np.array_equal(bits(single), bits(batch))
