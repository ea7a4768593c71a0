"""End-to-end acceptance checks for the toolkit, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Each check is property-based or oracle-backed on seeded synthetic
data and the whole module completes in well under ten minutes.
"""

import math
import time

import numpy as np
import pytest

from balancecast import (
    Dataset,
    EbmConfig,
    FeatureSchema,
    GbtConfig,
    SyntheticConfig,
    align_horizon,
    bin_centers,
    compute_metrics,
    ebm_predict,
    ebm_predict_batch,
    ebm_train,
    evaluate,
    expanding_window_folds,
    explain_local,
    filter_deviation_events,
    fit_tree,
    gbt_train,
    generate_synthetic,
    global_importance,
    leaf_weight,
    model_spec,
    stacked_predict_batch,
    stacked_train,
)
from balancecast.cli import main as cli_main
from balancecast.data import CONTINUOUS, hydro_price_response

from conftest import CLEAN_CFG


def _ok(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


# -- criterion 1 -------------------------------------------------------------


def oracle_term(g_sum, h_sum, lam):
    den = h_sum + lam
    return 0.0 if den == 0.0 else g_sum * g_sum / den


def oracle_all_candidates(x, g, h, lam, gamma):
    """Gain of every (feature, midpoint) candidate, definition-level."""
    n, p = x.shape
    g_tot, h_tot = float(sum(g)), float(sum(h))
    parent = oracle_term(g_tot, h_tot, lam)
    gains = []
    for j in range(p):
        distinct = sorted(set(float(v) for v in x[:, j]))
        for a, b in zip(distinct[:-1], distinct[1:]):
            thr = (a + b) / 2.0
            gl = sum(float(g[i]) for i in range(n) if x[i, j] <= thr)
            hl = sum(float(h[i]) for i in range(n) if x[i, j] <= thr)
            gr, hr = g_tot - gl, h_tot - hl
            gains.append(
                0.5 * (oracle_term(gl, hl, lam) + oracle_term(gr, hr, lam) - parent)
                - gamma
            )
    return gains


def test_criterion_1_gbt_split_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240501)
    checked_splits = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 3))
        x = np.round(rng.normal(size=(n, p)) * 3.0, 1)
        g = rng.normal(size=n)
        h = np.ones(n)
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        gamma = float(rng.choice([0.0, 0.2]))
        schema = FeatureSchema(tuple(f"f{i}" for i in range(p)), (CONTINUOUS,) * p)
        d = Dataset(
            timestamps=np.arange(n), features=x, target=np.zeros(n), schema=schema
        )
        cfg = GbtConfig(max_depth=1, reg_lambda=lam, gamma=gamma, min_child_weight=0.0)
        root = fit_tree(d, g, cfg)
        gains = oracle_all_candidates(x, g, h, lam, gamma)
        best = max(gains) if gains else None
        if best is None or best <= 0.0:
            assert root.is_leaf
        else:
            assert not root.is_leaf
            left = x[:, root.feature] <= root.threshold
            gl, hl = float(g[left].sum()), float(h[left].sum())
            gr, hr = float(g[~left].sum()), float(h[~left].sum())
            chosen = (
                0.5
                * (
                    oracle_term(gl, hl, lam)
                    + oracle_term(gr, hr, lam)
                    - oracle_term(gl + gr, hl + hr, lam)
                )
                - gamma
            )
            assert abs(chosen - best) <= 1e-9
            checked_splits += 1
        # Leaf weights must equal -G/(H + lambda) over their members, exactly.
        for node, member_mask in _leaves_with_members(root, x):
            assert node.weight == leaf_weight(
                float(g[member_mask].sum()), float(h[member_mask].sum()), lam
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _ok(1, f"100/100 root splits match enumeration ({checked_splits} split cases, "
           f"{elapsed:.2f}s)")


def _leaves_with_members(root, x):
    leaves = {}
    for i, row in enumerate(x):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        leaves.setdefault(id(node), (node, np.zeros(len(x), dtype=bool)))
        leaves[id(node)][1][i] = True
    return leaves.values()


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_monotone_training_loss(aligned_spiky):
    sub = aligned_spiky.slice_rows(0, 800)
    gbt = gbt_train(sub, GbtConfig(n_trees=50, max_depth=3, learning_rate=0.1))
    gbt_curve = np.asarray(gbt.train_mse)
    assert len(gbt_curve) == 51
    assert np.all(np.diff(gbt_curve) <= 1e-12)
    ebm = ebm_train(
        sub, EbmConfig(outer_rounds=100, learning_rate=0.25, max_bins=32)
    )
    ebm_curve = np.asarray(ebm.train_mse)
    assert len(ebm_curve) == 101
    assert np.all(np.diff(ebm_curve) <= 1e-12)
    _ok(2, f"GBT MSE {gbt_curve[0]:.2f}->{gbt_curve[-1]:.2f} and EBM MSE "
           f"{ebm_curve[0]:.2f}->{ebm_curve[-1]:.2f} are non-increasing")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_ebm_additivity_and_centering(aligned_spiky):
    train = aligned_spiky.slice_rows(0, 700)
    model = ebm_train(
        train, EbmConfig(outer_rounds=40, learning_rate=0.25, max_bins=32)
    )
    rng = np.random.default_rng(7)
    lo = train.features.min(axis=0) - 50.0
    hi = train.features.max(axis=0) + 50.0
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        contributions = explain_local(model, x)
        acc = model.intercept
        for _, c in contributions:
            acc += c
        assert acc == ebm_predict(model, x)
    for j in range(train.n_features):
        contrib = model.shapes[j].values[
            model.bins.bin_index(j, train.features[:, j])
        ]
        assert abs(float(contrib.mean())) < 1e-9
    _ok(3, "1000/1000 random inputs decompose exactly; all shapes centered")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_shape_recovery():
    d, _ = generate_synthetic(CLEAN_CFG)
    model = ebm_train(
        d, EbmConfig(outer_rounds=150, learning_rate=0.25, max_bins=48)
    )
    j = d.schema.index_of("hydro")
    learned = model.shapes[j].values
    truth = hydro_price_response(bin_centers(model.bins, j))
    corr = float(np.corrcoef(learned, truth)[0, 1])
    assert corr >= 0.99
    _ok(4, f"learned hydro shape correlates {corr:.4f} with the true ramp")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_importance_ranks_spot_first():
    cfg = SyntheticConfig(
        n_rows=1200, seed=9, noise_sd=2.0, spike_prob=0.0, spike_scale=60.0
    )
    d, _ = generate_synthetic(cfg)
    model = ebm_train(
        d, EbmConfig(outer_rounds=100, learning_rate=0.25, max_bins=32)
    )
    ranking = global_importance(model, d)
    assert ranking[0][0] == "spot"
    assert ranking[0][1] > ranking[1][1]
    _ok(5, f"spot ranks first: {[(n, round(m, 2)) for n, m in ranking[:3]]}")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_model_ordering(aligned_spiky, spiky_data):
    folds = expanding_window_folds(aligned_spiky.n_rows, 1200, 384)
    ebm_cfg = EbmConfig(outer_rounds=120, learning_rate=0.25, max_bins=48)
    stack_ebm_cfg = EbmConfig(outer_rounds=80, learning_rate=0.25, max_bins=48)
    meta_cfg = GbtConfig(n_trees=40, max_depth=3)
    report = evaluate(
        [
            model_spec("naive", 32),
            model_spec("gbt", GbtConfig(n_trees=120, max_depth=3, learning_rate=0.1)),
            model_spec("ebm", ebm_cfg),
            model_spec("stacked", (stack_ebm_cfg, meta_cfg)),
        ],
        aligned_spiky,
        folds,
        epsilon=25.0,
    )
    maes = {r.model: r.metrics.mae for r in report.rows if not r.filtered}
    assert maes["gbt"] <= 0.8 * maes["naive"]
    assert maes["ebm"] <= 0.8 * maes["naive"]

    # Stacking can only help on the training split.
    train = aligned_spiky.slice_rows(0, 1200)
    base = ebm_train(train, stack_ebm_cfg)
    stacked = stacked_train(train, stack_ebm_cfg, meta_cfg)
    base_mse = float(np.mean((train.target - ebm_predict_batch(base, train.features)) ** 2))
    stacked_mse = float(
        np.mean((train.target - stacked_predict_batch(stacked, train.features)) ** 2)
    )
    assert stacked_mse <= base_mse + 1e-9

    # On data with a multiplicative term the residual learner wins out of
    # sample too.
    dataset, _ = spiky_data
    hydro = dataset.features[:, dataset.schema.index_of("hydro")]
    heating = dataset.features[:, dataset.schema.index_of("heating")]
    d_int = dataset.with_target(
        dataset.target + 0.01 * (hydro - 320.0) * (heating - 20.0)
    )
    tr, te = d_int.slice_rows(0, 1300), d_int.slice_rows(1300, d_int.n_rows)
    base_i = ebm_train(tr, stack_ebm_cfg)
    stacked_i = stacked_train(
        tr, stack_ebm_cfg, GbtConfig(n_trees=60, max_depth=4, learning_rate=0.12)
    )
    base_mae = float(np.mean(np.abs(te.target - ebm_predict_batch(base_i, te.features))))
    stacked_mae = float(
        np.mean(np.abs(te.target - stacked_predict_batch(stacked_i, te.features)))
    )
    assert stacked_mae <= base_mae
    _ok(
        6,
        f"naive {maes['naive']:.2f} vs gbt {maes['gbt']:.2f} / ebm "
        f"{maes['ebm']:.2f} MAE (>=20% better); stacked train MSE "
        f"{stacked_mse:.2f} <= {base_mse:.2f}; interaction test MAE "
        f"{stacked_mae:.2f} <= {base_mae:.2f}",
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_deviation_event_degradation():
    cfg = SyntheticConfig(
        n_rows=2000, seed=13, noise_sd=2.0, spike_prob=0.05, spike_scale=60.0
    )
    d, _ = generate_synthetic(cfg)
    aligned = align_horizon(d, 32)
    folds = expanding_window_folds(aligned.n_rows, 1200, 384)
    report = evaluate(
        [
            model_spec("gbt", GbtConfig(n_trees=120, max_depth=3, learning_rate=0.1)),
            model_spec("ebm", EbmConfig(outer_rounds=120, learning_rate=0.25, max_bins=48)),
            model_spec(
                "stacked",
                (
                    EbmConfig(outer_rounds=80, learning_rate=0.25, max_bins=48),
                    GbtConfig(n_trees=40, max_depth=3),
                ),
            ),
        ],
        aligned,
        folds,
        epsilon=25.0,
    )
    rows = {(r.model, r.filtered): r for r in report.rows}
    drops = {}
    for model in ("gbt", "ebm", "stacked"):
        unfiltered = rows[(model, False)].metrics.r2
        filtered = rows[(model, True)].metrics.r2
        assert filtered < unfiltered
        drops[model] = unfiltered - filtered

    # Accounting columns against a hand-counted fixture: 3 of 10 rows
    # deviate, so n_orig=10, n_filter=3, removal 70%.
    spot = [10.0] * 10
    y = [10.0] * 7 + [15.0, 3.0, 42.0]
    y_hat = [float(i) for i in range(10)]
    _, _, n_orig, n_filter = filter_deviation_events(y, y_hat, spot, 1.0)
    assert (n_orig, n_filter) == (10, 3)
    assert 1.0 - n_filter / n_orig == pytest.approx(0.70, abs=0)
    filtered_row = rows[("gbt", True)]
    assert filtered_row.removal_fraction == 1.0 - (
        filtered_row.n_filter / filtered_row.n_orig
    )
    _ok(
        7,
        "filtered R2 strictly worse for all learned models "
        f"(drops: { {k: round(v, 3) for k, v in drops.items()} }); "
        "removal accounting exact on hand-counted fixture",
    )


# -- criterion 8 -------------------------------------------------------------


def _metrics_oracle(y, y_hat):
    n = len(y)
    abs_sum = sum(abs(a - b) for a, b in zip(y, y_hat))
    sq_sum = sum((a - b) ** 2 for a, b in zip(y, y_hat))
    mean_y = sum(y) / n
    ss_tot = sum((a - mean_y) ** 2 for a in y)
    r2 = None if ss_tot == 0.0 else 1.0 - sq_sum / ss_tot
    return abs_sum / n, math.sqrt(sq_sum / n), r2


def test_criterion_8_metrics_oracle():
    rng = np.random.default_rng(4242)
    negative_r2_seen = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        y = rng.uniform(-100, 100, size=n)
        y_hat = rng.uniform(-100, 100, size=n)
        mae, rmse, r2 = _metrics_oracle(list(y), list(y_hat))
        m = compute_metrics(y, y_hat)
        assert abs(m.mae - mae) < 1e-10
        assert abs(m.rmse - rmse) < 1e-10
        assert r2 is not None
        assert abs(m.r2 - r2) < 1e-10
        if m.r2 < 0:
            negative_r2_seen += 1
    assert negative_r2_seen > 0
    _ok(8, f"200/200 metric triples match the oracle "
           f"({negative_r2_seen} with negative R2, none clamped)")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_leakage_freedom(aligned_spiky):
    checked = 0
    for n, initial, test_len in (
        (aligned_spiky.n_rows, 1200, 384),
        (aligned_spiky.n_rows, 800, 100),
        (500, 123, 77),
        (50, 10, 7),
    ):
        sub = aligned_spiky.slice_rows(0, n)
        for fold in expanding_window_folds(n, initial, test_len):
            train_ts = sub.timestamps[: fold.train_end]
            test_ts = sub.timestamps[fold.test_start : fold.test_end]
            assert train_ts.max() < test_ts.min()
            checked += 1
    _ok(9, f"max train timestamp < min test timestamp in all {checked} folds")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert (
        cli_main(
            ["synth", "--n-rows", "500", "--seed", "5", "--out", str(data_dir)]
        )
        == 0
    )
    data = str(data_dir / "dataset.csv")

    def run_twice(name, argv, outputs):
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out in (dir_a, dir_b):
            assert cli_main(argv + ["--out", str(out)]) == 0
        for filename in outputs:
            assert (dir_a / filename).read_bytes() == (dir_b / filename).read_bytes()

    run_twice(
        "synth",
        ["synth", "--n-rows", "500", "--seed", "5"],
        ["dataset.csv", "truth.json"],
    )
    train_argv = [
        "train", "--data", data, "--model", "ebm",
        "--outer-rounds", "10", "--max-bins", "16", "--seed", "11",
    ]
    run_twice("train", train_argv, ["model.json"])
    model_dir = tmp_path / "model"
    assert cli_main(train_argv + ["--out", str(model_dir)]) == 0
    model = str(model_dir / "model.json")
    run_twice(
        "predict", ["predict", "--data", data, "--model", model], ["predictions.csv"]
    )
    run_twice(
        "evaluate",
        [
            "evaluate", "--data", data, "--models", "naive,ebm",
            "--initial-train", "300", "--test-len", "84",
            "--outer-rounds", "8", "--max-bins", "16",
        ],
        ["report.csv", "report.txt", "predictions.csv"],
    )
    run_twice(
        "explain",
        ["explain", "--model", model, "--data", data],
        ["importance.csv", "shapes.csv"],
    )
    run_twice(
        "explain_local",
        ["explain", "--model", model, "--data", data, "--row", "3"],
        ["local_explanation.csv"],
    )
    run_twice(
        "grid",
        [
            "grid", "--data", data, "--model", "ebm",
            "--param", "outer_rounds=2,4", "--initial-train", "300",
            "--test-len", "84",
        ],
        ["grid.csv"],
    )
    _ok(10, "synth/train/predict/evaluate/explain/grid all byte-identical on rerun")
