import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancecast import (
    BinMap,
    Dataset,
    EbmConfig,
    EbmModel,
    FeatureSchema,
    InvalidArgumentError,
    SchemaError,
    ShapeFunction,
    apply_shape_table,
    bin_centers,
    build_bins,
    ebm_from_dict,
    ebm_predict,
    ebm_predict_batch,
    ebm_to_dict,
    ebm_train,
    explain_local,
    export_shapes,
    global_importance,
)
from balancecast import ebm
from balancecast.data import (
    CONTINUOUS,
    SyntheticConfig,
    align_horizon,
    generate_synthetic,
    hydro_price_response,
)
from balancecast.persistence import save_model


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


def manual_model(cuts_per_feature, values_per_feature, intercept=0.0):
    p = len(cuts_per_feature)
    cuts = tuple(np.asarray(c, dtype=np.float64) for c in cuts_per_feature)
    bins = BinMap(
        cuts=cuts,
        vmin=tuple(float(c[0]) - 1.0 if len(c) else 0.0 for c in cuts),
        vmax=tuple(float(c[-1]) + 1.0 if len(c) else 1.0 for c in cuts),
    )
    shapes = tuple(
        ShapeFunction(feature_index=j, values=np.asarray(v, dtype=np.float64))
        for j, v in enumerate(values_per_feature)
    )
    return EbmModel(
        intercept=intercept,
        shapes=shapes,
        bins=bins,
        schema=schema_for(p),
        config=EbmConfig(),
    )


def quantile_by_position(sorted_vals, q):
    """Independent linear-interpolation quantile over a sorted array."""
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


class TestBuildBins:
    def test_constant_feature_single_bin(self):
        d = dataset_for(np.full((10, 1), 3.0))
        bins = build_bins(d, 8)
        assert bins.n_bins(0) == 1
        assert len(bins.cuts[0]) == 0

    def test_few_distinct_values_one_bin_each(self):
        d = dataset_for(np.array([[1.0], [2.0], [3.0], [2.0], [1.0]]))
        bins = build_bins(d, 256)
        assert bins.n_bins(0) == 3
        assert list(bins.cuts[0]) == [1.5, 2.5]

    def test_quartile_cuts_match_positional_oracle(self):
        values = np.arange(1.0, 1001.0)
        d = dataset_for(values.reshape(-1, 1))
        bins = build_bins(d, 4)
        expected = [quantile_by_position(values, q) for q in (0.25, 0.5, 0.75)]
        assert np.allclose(bins.cuts[0], expected, atol=1e-9)
        assert bins.n_bins(0) == 4

    def test_never_exceeds_max_bins(self):
        rng = np.random.default_rng(0)
        d = dataset_for(rng.normal(size=(500, 1)))
        for max_bins in (2, 5, 32):
            assert build_bins(d, max_bins).n_bins(0) <= max_bins

    def test_every_value_maps_to_one_bin(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=300)
        d = dataset_for(col.reshape(-1, 1))
        bins = build_bins(d, 16)
        idx = bins.bin_index(0, col)
        assert idx.min() >= 0 and idx.max() < bins.n_bins(0)

    def test_max_bins_validation(self):
        d = dataset_for([[1.0], [2.0]])
        with pytest.raises(InvalidArgumentError):
            build_bins(d, 1)


class TestEbmTrain:
    def test_zero_rounds_is_pure_intercept(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=30)
        d = dataset_for(rng.normal(size=(30, 2)), y)
        m = ebm_train(d, EbmConfig(outer_rounds=0))
        assert m.intercept == pytest.approx(float(y.mean()), abs=1e-12)
        for s in m.shapes:
            assert np.all(s.values == 0.0)

    def test_constant_target(self):
        rng = np.random.default_rng(3)
        d = dataset_for(rng.normal(size=(25, 3)), np.full(25, 4.25))
        m = ebm_train(d, EbmConfig(outer_rounds=20, learning_rate=0.5))
        assert m.intercept == pytest.approx(4.25, abs=1e-9)
        for s in m.shapes:
            assert np.max(np.abs(s.values)) < 1e-9

    def test_step_function_recovered_geometrically(self):
        # One feature carries a step, the other is constant. Each round the
        # single-feature fit removes the whole residual once, so the miss
        # shrinks by (1 - eta) per round.
        x0 = np.array([0.1, 0.3, 0.7, 0.9] * 3)
        x = np.column_stack([x0, np.full(12, 5.0)])
        y = np.where(x0 > 0.5, 2.0, -1.0)
        d = dataset_for(x, y)
        eta, rounds = 0.5, 40
        m = ebm_train(
            d, EbmConfig(outer_rounds=rounds, learning_rate=eta, max_bins=64)
        )
        centered_step = y - y.mean()
        contrib = m.shapes[0].values[m.bins.bin_index(0, x0)]
        tol = 3.0 * (1 - eta) ** rounds * np.abs(centered_step).max() + 1e-9
        assert np.max(np.abs(contrib - centered_step)) < tol
        assert m.intercept == pytest.approx(float(y.mean()), abs=1e-9)

    def test_monotone_training_loss(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 600)
        m = ebm_train(sub, EbmConfig(outer_rounds=40, learning_rate=0.3, max_bins=32))
        curve = np.asarray(m.train_mse)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_shapes_centered_over_training_set(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 400)
        m = ebm_train(sub, EbmConfig(outer_rounds=30, learning_rate=0.3, max_bins=32))
        for j in range(sub.n_features):
            contrib = m.shapes[j].values[m.bins.bin_index(j, sub.features[:, j])]
            assert abs(float(contrib.mean())) < 1e-9

    def test_needs_two_rows(self):
        d = dataset_for([[1.0]], [2.0])
        with pytest.raises(InvalidArgumentError):
            ebm_train(d, EbmConfig(outer_rounds=1))

    def test_shape_recovery_of_nonlinear_driver(self, clean_data):
        d, _ = clean_data
        m = ebm_train(d, EbmConfig(outer_rounds=150, learning_rate=0.25, max_bins=48))
        j = d.schema.index_of("hydro")
        learned = m.shapes[j].values
        truth = hydro_price_response(bin_centers(m.bins, j))
        corr = np.corrcoef(learned, truth)[0, 1]
        assert corr >= 0.99


class TestEbmPredict:
    def test_zero_shapes_give_intercept(self):
        m = manual_model([[0.5]], [[0.0, 0.0]], intercept=3.5)
        assert ebm_predict(m, [0.2]) == 3.5

    def test_two_feature_sum_by_hand(self):
        # Bin lookups contribute 1.5 and -0.5 on top of intercept 10.
        m = manual_model(
            [[0.0], [0.0]], [[0.0, 1.5], [-0.5, 0.0]], intercept=10.0
        )
        assert ebm_predict(m, [1.0, -1.0]) == 11.0

    def test_out_of_range_clamps_to_edge_bin(self, clean_data):
        d, _ = clean_data
        m = ebm_train(d, EbmConfig(outer_rounds=10, learning_rate=0.3, max_bins=16))
        x_max = d.features.max(axis=0).copy()
        x_beyond = x_max + 1000.0
        assert ebm_predict(m, x_beyond) == ebm_predict(m, x_max)
        x_min = d.features.min(axis=0).copy()
        assert ebm_predict(m, x_min - 1000.0) == ebm_predict(m, x_min)

    def test_dimension_mismatch(self):
        m = manual_model([[0.5]], [[0.0, 0.0]])
        with pytest.raises(SchemaError):
            ebm_predict(m, [1.0, 2.0])
        with pytest.raises(SchemaError):
            ebm_predict_batch(m, np.zeros((3, 2)))

    def test_batch_matches_scalar_bitwise(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 200)
        m = ebm_train(sub, EbmConfig(outer_rounds=15, learning_rate=0.3, max_bins=16))
        batch = ebm_predict_batch(m, sub.features[:50])
        scalar = np.array([ebm_predict(m, sub.features[i]) for i in range(50)])
        assert np.array_equal(batch, scalar)


class TestExplainLocal:
    def test_all_zero_shapes(self):
        m = manual_model([[0.5], []], [[0.0, 0.0], [0.0]], intercept=2.0)
        contribs = explain_local(m, [0.1, 9.9])
        assert [c for _, c in contribs] == [0.0, 0.0]

    def test_additivity_bit_exact(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 300)
        m = ebm_train(sub, EbmConfig(outer_rounds=20, learning_rate=0.3, max_bins=32))
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = sub.features[int(rng.integers(0, sub.n_rows))]
            contribs = explain_local(m, x)
            acc = m.intercept
            for _, c in contribs:
                acc += c
            assert acc == ebm_predict(m, x)

    def test_single_nonzero_shape_isolated(self):
        m = manual_model([[0.5], [0.5]], [[0.0, 0.0], [0.0, 2.5]], intercept=0.0)
        contribs = dict(explain_local(m, [0.0, 1.0]))
        assert contribs["f0"] == 0.0
        assert contribs["f1"] == 2.5

    def test_changing_one_feature_touches_one_contribution(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 200)
        m = ebm_train(sub, EbmConfig(outer_rounds=10, learning_rate=0.3, max_bins=16))
        x = sub.features[10].copy()
        before = explain_local(m, x)
        x2 = x.copy()
        x2[3] = x[3] + 100.0
        after = explain_local(m, x2)
        for j, ((name_b, cb), (name_a, ca)) in enumerate(zip(before, after)):
            assert name_b == name_a
            if j != 3:
                assert cb == ca


class TestGlobalImportance:
    def test_zero_shape_zero_mac(self):
        m = manual_model([[0.5], [0.5]], [[0.0, 0.0], [1.0, -1.0]])
        d = dataset_for(np.array([[0.0, 0.0], [1.0, 1.0]]))
        ranking = dict(global_importance(m, d))
        assert ranking["f0"] == 0.0

    def test_symmetric_contributions_average_to_two(self):
        # Shape contributes +2 on half the rows and -2 on the other half.
        m = manual_model([[0.5]], [[-2.0, 2.0]])
        d = dataset_for(np.array([[0.0], [1.0], [0.0], [1.0]]))
        ranking = global_importance(m, d)
        assert ranking[0] == ("f0", 2.0)

    def test_matches_bruteforce_loop(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 150)
        m = ebm_train(sub, EbmConfig(outer_rounds=10, learning_rate=0.3, max_bins=16))
        ranking = dict(global_importance(m, sub))
        for j, name in enumerate(sub.schema.names):
            total = 0.0
            for i in range(sub.n_rows):
                cuts = m.bins.cuts[j]
                v = sub.features[i, j]
                b = 0
                while b < len(cuts) and v > cuts[b]:
                    b += 1
                total += abs(float(m.shapes[j].values[b]))
            assert ranking[name] == pytest.approx(total / sub.n_rows, abs=1e-12)

    def test_sorted_descending_with_index_tiebreak(self):
        m = manual_model(
            [[0.5], [0.5], [0.5]],
            [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]],
        )
        d = dataset_for(np.zeros((4, 3)))
        ranking = global_importance(m, d)
        assert [name for name, _ in ranking] == ["f1", "f0", "f2"]

    def test_spot_ranks_first_on_anchored_data(self, clean_data):
        d, _ = clean_data
        m = ebm_train(d, EbmConfig(outer_rounds=60, learning_rate=0.25, max_bins=32))
        ranking = global_importance(m, d)
        assert ranking[0][0] == "spot"

    def test_empty_dataset_rejected(self):
        m = manual_model([[0.5]], [[0.0, 0.0]])
        empty = Dataset(
            timestamps=np.arange(0),
            features=np.zeros((0, 1)),
            target=np.zeros(0),
            schema=schema_for(1),
        )
        with pytest.raises(InvalidArgumentError):
            global_importance(m, empty)


class TestExportShapes:
    def test_single_bin_covers_real_line(self):
        m = manual_model([[]], [[1.25]])
        table = export_shapes(m)["f0"]
        assert table == [(-np.inf, np.inf, 1.25)]

    def test_three_bin_structure(self):
        m = manual_model([[1.0, 2.0]], [[0.1, 0.2, 0.3]])
        table = export_shapes(m)["f0"]
        assert table == [
            (-np.inf, 1.0, 0.1),
            (1.0, 2.0, 0.2),
            (2.0, np.inf, 0.3),
        ]

    def test_table_lookup_reproduces_predictions(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 200)
        m = ebm_train(sub, EbmConfig(outer_rounds=15, learning_rate=0.3, max_bins=16))
        tables = export_shapes(m)
        for i in (0, 13, 77):
            x = sub.features[i]
            acc = m.intercept
            for j, name in enumerate(sub.schema.names):
                acc += apply_shape_table(tables[name], float(x[j]))
            assert acc == ebm_predict(m, x)


class TestEbmPersistence:
    def test_round_trip_exact(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 200)
        m = ebm_train(sub, EbmConfig(outer_rounds=15, learning_rate=0.3, max_bins=16))
        doc = json.loads(json.dumps(ebm_to_dict(m)))
        back = ebm_from_dict(doc)
        assert back.intercept == m.intercept
        assert np.array_equal(
            ebm_predict_batch(back, sub.features), ebm_predict_batch(m, sub.features)
        )

    def test_document_shape(self):
        m = manual_model([[0.5]], [[0.0, 1.0]])
        doc = ebm_to_dict(m)
        assert set(doc) == {"intercept", "bins", "shapes", "config", "schema"}


# ---------------------------------------------------------------------------
# Reference implementation: the feature step that recomputed every segment's
# candidates from scratch. Steps and models must match it bit for bit.
# ---------------------------------------------------------------------------


def reference_fit_leaf_steps(counts, sums, max_leaves):
    n_bins = len(counts)
    segments = [(0, n_bins)]

    def best_split(lo, hi):
        c = counts[lo:hi]
        s = sums[lo:hi]
        c_tot = c.sum()
        if c_tot == 0 or hi - lo < 2:
            return None
        c_left = np.cumsum(c)[:-1]
        s_left = np.cumsum(s)[:-1]
        c_right = c_tot - c_left
        s_right = (s.sum()) - s_left
        ok = (c_left > 0) & (c_right > 0)
        if not ok.any():
            return None
        base = s.sum() ** 2 / c_tot
        with np.errstate(divide="ignore", invalid="ignore"):
            red = np.where(
                ok,
                s_left**2 / np.where(c_left > 0, c_left, 1)
                + s_right**2 / np.where(c_right > 0, c_right, 1)
                - base,
                -np.inf,
            )
        k = int(np.argmax(red))
        return float(red[k]), lo + k + 1

    while len(segments) < max_leaves:
        candidates = [(best_split(lo, hi), i) for i, (lo, hi) in enumerate(segments)]
        candidates = [(r, i) for r, i in candidates if r is not None and r[0] > 0.0]
        if not candidates:
            break
        (_, split_at), seg_i = max(candidates, key=lambda c: c[0][0])
        lo, hi = segments.pop(seg_i)
        segments.insert(seg_i, (split_at, hi))
        segments.insert(seg_i, (lo, split_at))

    delta = np.zeros(n_bins)
    for lo, hi in segments:
        c_tot = counts[lo:hi].sum()
        if c_tot > 0:
            delta[lo:hi] = sums[lo:hi].sum() / c_tot
    return delta


def reference_ebm_train(d, cfg):
    n = d.n_rows
    p = d.n_features
    bins = build_bins(d, cfg.max_bins)
    bin_idx = [bins.bin_index(j, d.features[:, j]) for j in range(p)]
    counts = [
        np.bincount(bin_idx[j], minlength=bins.n_bins(j)).astype(np.float64)
        for j in range(p)
    ]
    y = d.target
    intercept = float(y.mean())
    pred = np.full(n, intercept)
    shape_values = [np.zeros(bins.n_bins(j)) for j in range(p)]
    mse = [float(np.mean((y - pred) ** 2))]
    for _ in range(cfg.outer_rounds):
        for j in range(p):
            residual = y - pred
            sums = np.bincount(bin_idx[j], weights=residual, minlength=bins.n_bins(j))
            delta = reference_fit_leaf_steps(counts[j], sums, cfg.max_leaves_per_round)
            shape_values[j] += cfg.learning_rate * delta
            pred += cfg.learning_rate * delta[bin_idx[j]]
        mse.append(float(np.mean((y - pred) ** 2)))
    for j in range(p):
        mean_j = float((counts[j] * shape_values[j]).sum() / n)
        shape_values[j] -= mean_j
        intercept += mean_j
    shapes = tuple(ShapeFunction(feature_index=j, values=shape_values[j]) for j in range(p))
    return EbmModel(
        intercept=intercept, shapes=shapes, bins=bins, schema=d.schema, config=cfg,
        train_mse=tuple(mse),
    )


@st.composite
def leaf_step_problems(draw):
    """Bin counts with empty bins and empty edges, and residual sums that
    are either arbitrary or the counts times one mean. With one mean every
    reduction is zero in exact arithmetic, so whether a split happens rests
    on rounding alone; the +-1e200 entries make squares overflow to inf and
    reductions turn NaN."""
    n_bins = draw(st.integers(1, 16))
    count_values = st.one_of(st.just(0), st.integers(0, 3))
    counts = np.array(draw(st.lists(count_values, min_size=n_bins, max_size=n_bins)), dtype=np.float64)
    if draw(st.booleans()):
        sums = counts * draw(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, -0.2]))
    else:
        sum_values = st.one_of(
            st.floats(-10, 10),
            st.integers(-5, 5).map(float),
            st.sampled_from([1e200, -1e200]),
        )
        sums = np.array(draw(st.lists(sum_values, min_size=n_bins, max_size=n_bins)))
    return counts, sums, draw(st.integers(1, 8))


def leaf_steps(counts, sums, max_leaves):
    return ebm._fit_leaf_steps(ebm.split_plan(counts), sums, max_leaves)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(leaf_step_problems())
    @example((np.array([0.0]), np.array([1.0]), 3))
    @example((np.array([2.0, 0.0]), np.array([1.0, 0.0]), 2))
    @example((np.array([0.0, 1.0, 0.0]), np.array([0.0, 3.0, 0.0]), 8))
    # Both candidates reduce by NaN: neither the segment nor its step splits.
    @example((np.array([1.0, 1.0, 1.0]), np.array([1e200, -1e200, 1e200]), 3))
    # One mean: a zero reduction must not split, and the rounding of a
    # segment's total (pairwise sum) and of a right-hand segment's left sums
    # (its own cumsum) decides whether a tiny positive one does.
    @example((np.array([1.0, 2.0]), np.array([0.1, 0.2]), 4))
    @example((np.array([1.0, 2.0, 2.0, 2.0]), np.array([0.1, 0.2, 0.2, 0.2]), 4))
    @example((np.array([2.0, 1.0, 2.0, 2.0, 2.0]), np.array([0.2, 0.1, 0.2, 0.2, 0.2]), 4))
    # Two segments tie for the best reduction: the first one splits.
    @example((np.array([2.0, 1.0, 2.0, 1.0]), np.array([-1.0, -2.0, 1.0, -1.0]), 3))
    def test_fit_leaf_steps_bit_identical(self, problem):
        counts, sums, max_leaves = problem
        with np.errstate(all="ignore"):
            expected = reference_fit_leaf_steps(counts, sums, max_leaves)
            got = leaf_steps(counts, sums, max_leaves)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_rows", [1200, 1584])
    @pytest.mark.parametrize(
        "cfg", [EbmConfig(), EbmConfig(max_bins=32, max_leaves_per_round=5)],
        ids=["default", "bins32-leaves5"],
    )
    def test_ebm_train_bit_identical_on_synth(self, tmp_path, n_rows, cfg):
        dataset, _ = generate_synthetic(SyntheticConfig(n_rows=2000, seed=1))
        self.assert_same_model(tmp_path, align_horizon(dataset, 32).slice_rows(0, n_rows), cfg)

    def test_ebm_train_bit_identical_on_a_year(self, tmp_path):
        dataset, _ = generate_synthetic(SyntheticConfig(n_rows=35040, seed=1))
        year = align_horizon(dataset, 1)
        assert year.n_rows == 35039
        self.assert_same_model(tmp_path, year, EbmConfig())

    @staticmethod
    def assert_same_model(tmp_path, d, cfg):
        model = ebm_train(d, cfg)
        ref = reference_ebm_train(d, cfg)
        save_model(model, 32, tmp_path / "model.json")
        save_model(ref, 32, tmp_path / "reference.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
        assert model.train_mse == ref.train_mse
