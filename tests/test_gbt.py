import dataclasses
import itertools
import json
import math
import warnings

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
)
from balancecast.data import SyntheticConfig, align_horizon, generate_synthetic
from balancecast.persistence import save_model, tree_to_lists

from conftest import split_gain, traced_peak, tree_depth, tree_predict


def schema_for(p):
    return FeatureSchema(tuple(f"f{i}" for i in range(p)))


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
            # The midpoint, or the lower value where the sum overflows.
            mid = 0.5 * (float(vs[b]) + float(vs[b + 1]))
            best = (gain, j, mid if math.isfinite(mid) else float(vs[b]))
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
        return json.dumps(tree_to_lists(fit()))
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


# Ids "<max_depth>-<min_child_weight>" for the depth and weight grid, then
# one case per regularizer at a value that changes which columns count.
SYNTH_CONFIGS = [
    *(
        pytest.param({"max_depth": depth, "min_child_weight": weight}, id=f"{depth}-{weight}")
        for depth in (1, 2, 6)
        for weight in (0.0, 1.5)
    ),
    pytest.param({"reg_lambda": 0.0}, id="reg_lambda=0.0"),
    pytest.param({"gamma": 0.5}, id="gamma=0.5"),
    pytest.param({"min_child_weight": 3.0}, id="min_child_weight=3.0"),
]


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(unit_hessian_problems())
    @example(NAN_BLOCKS_LATER_FEATURES)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fit_tree_bit_identical_with_unit_hessians(self, problem):
        assert_fit_tree_matches_reference(*problem)

    def test_gbt_train_bit_identical_on_synth(self, tmp_path):
        assert_gbt_train_matches_reference(tmp_path, GbtConfig(n_trees=20))

    @pytest.mark.parametrize("params", SYNTH_CONFIGS)
    def test_gbt_train_bit_identical_on_synth_configs(self, tmp_path, params):
        assert_gbt_train_matches_reference(tmp_path, GbtConfig(n_trees=20, **params))

    @pytest.mark.parametrize(
        "params", [{"reg_lambda": 0.0}, {"min_child_weight": 3.0}], ids=["reg_lambda=0.0", "min_child_weight=3.0"]
    )
    def test_gbt_train_on_synth_raises_no_runtime_warning(self, params):
        """No column of a node's block divides by zero or makes a NaN, not
        even the ones that are no candidate."""
        dataset, _ = generate_synthetic(SyntheticConfig(n_rows=2000, seed=1))
        sub = align_horizon(dataset, 32).slice_rows(0, 1200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gbt_train(sub, GbtConfig(n_trees=20, **params))


class TestTreeNode:
    def test_keyword_construction(self):
        leaf = TreeNode(weight=1.5)
        assert (leaf.weight, leaf.feature, leaf.threshold, leaf.left, leaf.right) == (
            1.5, None, None, None, None,
        )
        split = TreeNode(feature=2, threshold=0.5, left=leaf, right=TreeNode(weight=-1.0))
        assert split.weight is None and split.left is leaf
        assert leaf.is_leaf and not split.is_leaf
        assert tree_predict(split, [[9.0, 9.0, 0.5], [9.0, 9.0, 0.75]]).tolist() == [1.5, -1.0]

    @pytest.mark.parametrize("name", ["weight", "feature", "threshold", "left", "right", "extra"])
    def test_assignment_is_attribute_error(self, name):
        node = TreeNode(weight=1.0)
        with pytest.raises(AttributeError):
            setattr(node, name, 2.0)
        assert node.weight == 1.0

    def test_equality_by_value(self):
        def tree(threshold):
            return TreeNode(
                feature=0, threshold=threshold, left=TreeNode(weight=1.0), right=TreeNode(weight=2.0)
            )

        assert tree(0.5) == tree(0.5) and tree(0.5) is not tree(0.5)
        assert hash(tree(0.5)) == hash(tree(0.5))
        assert tree(0.5) != tree(0.25)
        assert TreeNode(weight=1.0) != TreeNode(weight=2.0)


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
        assert tree_depth(root) <= 1

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


class TestOverflow:
    """Neighbouring values whose sum overflows split at the lower one, which
    parts the rows as the midpoint would; a fit whose base score or leaf
    weights overflow is refused."""

    X = np.array([[-1.7e308], [-1.6e308], [0.0], [1.0], [1.6e308], [1.7e308]])
    CFG = GbtConfig(n_trees=1, learning_rate=1.0, max_depth=3, reg_lambda=0.0, min_child_weight=0.0)

    def test_threshold_is_the_lower_value(self, tmp_path):
        d = dataset_for(self.X, [0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        m = gbt_train(d, self.CFG)
        thresholds = {v for f, v in zip(*tree_to_lists(m.trees[0]).values()) if f >= 0}
        assert thresholds == {-1.7e308, 0.5 * -1.6e308, 0.5, 0.5 * (1.0 + 1.6e308), 1.6e308}
        assert gbt_predict_batch(m, self.X).tolist() == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
        save_model(m, 32, tmp_path / "model.json")
        ref = reference_gbt_train(d, self.CFG)
        assert [tree_to_lists(t) for t in ref.trees] == [tree_to_lists(t) for t in m.trees]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_base_score_rejected(self):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            gbt_train(dataset_for(self.X, [1.7e308] * 6), self.CFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_leaf_weight_rejected(self):
        # The mean is 0, but the split puts rows 0 and 2 (targets 1.7e308)
        # in one leaf, whose gradient sum overflows.
        d = dataset_for([[0.0], [2.0], [1.0], [3.0]], [1.7e308, -1.7e308, 1.7e308, -1.7e308])
        cfg = dataclasses.replace(self.CFG, max_depth=1, min_child_weight=2.0)
        assert fit_tree(d, -d.target, cfg).left.weight == math.inf
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            gbt_train(d, cfg)


class TestGbtPredict:
    def test_single_leaf_tree_with_shrinkage(self):
        m = GbtModel(
            trees=(TreeNode(weight=2.0),),
            base_score=10.0,
            config=GbtConfig(learning_rate=0.5),
            schema=schema_for(1),
        )
        assert gbt_predict(m, [0.0]) == 11.0

    @pytest.mark.parametrize("layout", ["leaf", "leaf,split", "split,leaf,split"])
    def test_batch_with_single_leaf_trees_and_nan_inputs(self, layout):
        leaf = TreeNode(weight=2.0)
        split = TreeNode(
            feature=0, threshold=0.5, left=TreeNode(weight=1.25),
            right=TreeNode(feature=1, threshold=-1.0, left=TreeNode(weight=-3.0), right=TreeNode(weight=0.1)),
        )
        nan = math.nan
        rows = np.array([[0.0, 0.0], [1.0, -2.0], [nan, 0.0], [0.0, nan], [1.0, nan], [nan, nan]])
        # The weight each row reaches in each tree: NaN compares false and goes right.
        reached = {"leaf": [2.0] * 6, "split": [1.25, -3.0, 0.1, 1.25, 0.1, 0.1]}
        kinds = layout.split(",")
        m = GbtModel(
            trees=tuple(leaf if k == "leaf" else split for k in kinds),
            base_score=10.1,
            config=GbtConfig(learning_rate=0.3),
            schema=schema_for(2),
        )
        expected = []
        for i in range(len(rows)):
            acc = 10.1
            for k in kinds:
                acc += 0.3 * reached[k][i]
            expected.append(acc)
        assert np.array_equal(bits(gbt_predict_batch(m, rows)), bits(expected))

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
            routed = [tree_predict(tree, [x])[0] for tree in m.trees]
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
        # One split at 0.5 with leaves -G/(H + lambda) = -0.5/2 and 0.5/2, as
        # pre-order lists: the split, its left leaf, its right leaf.
        assert doc["trees"] == [{"feature": [0, -1, -1], "value": [0.5, -0.25, 0.25]}]


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
    thresholds exactly, fall between them or hold NaN. Half of the models are
    7 or 8 deep on 130-200 rows of up to 401 values per feature, without the
    L2 penalty that keeps small nodes whole, so that some of their trees have
    more than 64 leaves."""
    p = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n, top, depth, lam = draw(st.integers(130, 200)), 400, draw(st.integers(7, 8)), 0.0
        x = rng.integers(0, top + 1, (n, p)).astype(float)
        y = rng.uniform(-50, 50, n)
    else:
        n, top, depth, lam = draw(st.integers(2, 30)), 4, draw(st.integers(1, 4)), 1.0
        cells = st.integers(0, top).map(float)
        x = np.array(draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n, max_size=n)))
        y = np.array(draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
    cfg = GbtConfig(
        n_trees=draw(st.integers(0, 6)),
        max_depth=depth,
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        reg_lambda=lam,
        min_child_weight=0.0,
    )
    model = gbt_train(dataset_for(x, y), cfg)
    query_cells = st.one_of(st.integers(-1, 2 * top + 1).map(lambda v: v / 2.0), st.just(math.nan))
    rows = draw(st.lists(st.lists(query_cells, min_size=p, max_size=p), max_size=12))
    return model, np.array(rows, dtype=np.float64).reshape(len(rows), p)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def row_reference(model, rows):
    """What gbt_predict_batch must return: per row, base_score plus the
    learning rate times the leaf each tree routes the row to, in tree order."""
    expected = []
    for row in rows:
        acc = model.base_score
        for tree in model.trees:
            acc += model.config.learning_rate * tree_predict(tree, [row])[0]
        expected.append(acc)
    return np.array(expected, dtype=np.float64)


def leaf_count(node):
    return 1 if node.is_leaf else leaf_count(node.left) + leaf_count(node.right)


class TestPredictMatchesRowReference:
    def test_batch_and_single_row_bit_identical(self):
        most_leaves = []

        @settings(max_examples=150, deadline=None)
        @given(predict_problems(), st.sampled_from(["c", "fortran", "strided"]))
        def check(problem, layout):
            model, rows = problem
            if layout == "fortran":
                rows = np.asfortranarray(rows)
            elif layout == "strided":
                wide = np.full((rows.shape[0] * 2, rows.shape[1] + 1), 99.0)
                wide[::2, 1:] = rows
                rows = wide[::2, 1:]
            batch = gbt_predict_batch(model, rows)
            assert batch.shape == (rows.shape[0],)
            assert np.array_equal(bits(batch), bits(row_reference(model, rows)))
            single = [gbt_predict(model, row) for row in rows]
            assert np.array_equal(bits(single), bits(batch))
            most_leaves.append(max(map(leaf_count, model.trees), default=1))

        check()
        # Trees of more than 64 leaves partition their rows before scoring.
        assert max(most_leaves) > 64


def complete_tree(depth, p, thresholds):
    """A complete tree of 2**depth leaves weighing 0.25 * k - 3 for the k-th
    from the left; its splits cycle through features 0 .. p-1 and through
    ``thresholds`` in pre-order."""
    splits, leaves = itertools.count(), itertools.count()

    def grow(d):
        if d == depth:
            return TreeNode(weight=0.25 * next(leaves) - 3.0)
        k = next(splits)
        return TreeNode(
            feature=k % p, threshold=thresholds[k % len(thresholds)], left=grow(d + 1), right=grow(d + 1)
        )

    return grow(0)


def split_last_leaf(node, feature, threshold):
    """``node`` with its rightmost leaf split in two at (feature, threshold)."""
    if node.is_leaf:
        return TreeNode(
            feature=feature, threshold=threshold,
            left=TreeNode(weight=node.weight), right=TreeNode(weight=-node.weight - 1.0),
        )
    return node._replace(right=split_last_leaf(node.right, feature, threshold))


SPECIAL_THRESHOLDS = [0.5, -math.inf, 0.0, math.inf, -0.0, 1.0, -1.5, 0.0]
SPECIAL_CELLS = [-math.inf, -2.0, -1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf, math.nan]


def leaf(w):
    return TreeNode(weight=w)


# (schema width, trees): hand-built models at the batch scorer's edges.
HAND_BUILT = {
    # Exactly one 64-bit word of leaves, and one leaf more.
    "complete-64": (2, (complete_tree(6, 2, [0.5, -1.0, 1.0, 0.0, 2.0]),)),
    "65-leaves": (2, (split_last_leaf(complete_tree(6, 2, [0.5, -1.0, 1.0, 0.0, 2.0]), 1, 1.0),)),
    # Infinite thresholds, and 0.0 and -0.0 in one tree.
    "special-thresholds": (3, (complete_tree(5, 3, SPECIAL_THRESHOLDS), complete_tree(7, 3, SPECIAL_THRESHOLDS))),
    # The same (feature, threshold) twice on one path; one subtree is unreachable.
    "repeated-test": (2, (
        TreeNode(
            feature=0, threshold=1.0,
            left=TreeNode(feature=0, threshold=1.0, left=leaf(1.0), right=leaf(2.0)),
            right=TreeNode(
                feature=1, threshold=-0.0,
                left=TreeNode(feature=1, threshold=0.0, left=leaf(3.0), right=leaf(4.0)),
                right=leaf(5.0),
            ),
        ),
    )),
    # Feature 1 of the schema is never split on.
    "unused-feature": (3, (complete_tree(3, 1, [0.5, -1.0]), TreeNode(feature=2, threshold=0.0, left=leaf(1.5), right=leaf(-0.5)))),
    # A NaN threshold sends every row right, as NaN <= t is false.
    "nan-threshold": (2, (
        TreeNode(
            feature=0, threshold=math.nan, left=leaf(7.0),
            right=TreeNode(feature=1, threshold=math.nan, left=leaf(8.0), right=complete_tree(2, 2, [0.5, 1.0])),
        ),
        split_last_leaf(complete_tree(6, 2, [0.5, -1.0]), 0, math.nan),
    )),
    "no-trees": (2, ()),
    "single-leaf": (2, (leaf(2.5),)),
    "mixed": (2, (leaf(2.5), complete_tree(6, 2, [0.5, 1.0]), split_last_leaf(complete_tree(7, 2, [0.0, 1.0, -1.5]), 0, 0.5))),
}


class TestHandBuiltModels:
    """Batch predictions equal the per-row reference bit for bit on
    hand-built trees, on rows of infinite, signed-zero and NaN cells."""

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_matches_row_reference(self, name):
        p, trees = HAND_BUILT[name]
        m = GbtModel(trees=trees, base_score=0.1, config=GbtConfig(learning_rate=0.3), schema=schema_for(p))
        rows = np.array(list(itertools.product(SPECIAL_CELLS, repeat=p)))
        for batch in (rows, rows[:0], rows[5:6]):
            assert np.array_equal(bits(gbt_predict_batch(m, batch)), bits(row_reference(m, batch)))
        assert np.array_equal(bits([gbt_predict(m, row) for row in rows]), bits(row_reference(m, rows)))

    def test_leaf_counts(self):
        counts = {name: [leaf_count(t) for t in trees] for name, (_, trees) in HAND_BUILT.items()}
        assert counts["complete-64"] == [64]
        assert counts["65-leaves"] == [65]
        assert counts["mixed"] == [1, 64, 129]


def batch_reference(model, x):
    """Base score plus the learning rate times each tree's walked outputs, in
    tree order, which is gbt_predict's sum for every row."""
    acc = np.full(len(x), model.base_score)
    for tree in model.trees:
        acc += model.config.learning_rate * tree_predict(tree, x)
    return acc


@pytest.fixture(scope="module")
def spiky_models(aligned_spiky):
    """The default 300-tree model, and one whose trees have more than 64
    leaves, fitted on the spiky synth."""
    deep = gbt_train(aligned_spiky, GbtConfig(n_trees=3, max_depth=9, min_child_weight=0.0))
    assert max(map(leaf_count, deep.trees)) > 64
    return {"default": gbt_train(aligned_spiky, GbtConfig()), "deep": deep}


class TestBatchReadsInputInPlace:
    @pytest.mark.parametrize("model", ["default", "deep"])
    @pytest.mark.parametrize("layout", ["fortran", "reversed", "leading-columns"])
    def test_not_c_contiguous_matches_walk(self, aligned_spiky, spiky_models, model, layout):
        m = spiky_models[model]
        x = aligned_spiky.features[:600]
        if layout == "fortran":
            rows = np.asfortranarray(x)
        elif layout == "reversed":
            rows = x[::-1]
        else:
            rows = np.hstack([x, -x])[:, : x.shape[1]]
        assert not rows.flags.c_contiguous
        assert np.array_equal(bits(gbt_predict_batch(m, rows)), bits(batch_reference(m, rows)))

    def test_holds_one_tree_layout_at_a_time(self, aligned_spiky, spiky_models):
        # Laying out every tree before scoring any adds about 5 kB per tree.
        m = spiky_models["default"]
        x = aligned_spiky.features
        few = dataclasses.replace(m, trees=m.trees[:30])
        gbt_predict_batch(few, x)  # the first call in a process keeps about 1 MB
        extra = traced_peak(gbt_predict_batch, m, x) - traced_peak(gbt_predict_batch, few, x)
        assert extra < 250_000
