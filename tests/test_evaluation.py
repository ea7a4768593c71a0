import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancecast import (
    Dataset,
    EbmConfig,
    FeatureSchema,
    FoldSpec,
    GbtConfig,
    InvalidArgumentError,
    Metrics,
    ModelSpec,
    compute_metrics,
    evaluate,
    expanding_window_folds,
    filter_deviation_events,
    model_spec,
)
from balancecast import ebm, stacking
from balancecast.data import CONTINUOUS


def metrics_oracle(y, y_hat):
    """Definition-level MAE/RMSE/R2 with plain Python loops."""
    n = len(y)
    abs_sum = 0.0
    sq_sum = 0.0
    for a, b in zip(y, y_hat):
        abs_sum += abs(a - b)
        sq_sum += (a - b) ** 2
    mean_y = sum(y) / n
    ss_tot = sum((a - mean_y) ** 2 for a in y)
    mae = abs_sum / n
    rmse = math.sqrt(sq_sum / n)
    r2 = None if ss_tot == 0.0 else 1.0 - sq_sum / ss_tot
    if r2 is not None and not math.isfinite(r2):
        r2 = None  # a spread so small that the ratio overflows
    return mae, rmse, r2


class TestComputeMetrics:
    def test_perfect_prediction(self):
        m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m == Metrics(mae=0.0, rmse=0.0, r2=1.0)

    def test_mean_predictor_scores_zero_r2(self):
        m = compute_metrics([0.0, 2.0], [1.0, 1.0])
        assert m.mae == 1.0 and m.rmse == 1.0 and m.r2 == 0.0

    def test_negative_r2_not_clamped(self):
        m = compute_metrics([0.0, 4.0], [4.0, 0.0])
        assert m.mae == 4.0 and m.rmse == 4.0 and m.r2 == -3.0

    def test_constant_target_r2_undefined(self):
        m = compute_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert m.r2 is None
        assert m.mae == pytest.approx(2.0 / 3.0)
        assert m.rmse == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_segment_mean_predictor_r2_exactly_zero(self):
        y = np.random.default_rng(11).normal(size=100)
        m = compute_metrics(y, np.full(100, y.mean()))
        assert m.r2 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            compute_metrics([1.0, 2.0], [1.0])

    def test_needs_two_points(self):
        with pytest.raises(InvalidArgumentError):
            compute_metrics([1.0], [1.0])

    @given(
        data=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=150)
    @example(data=[(0.0, 0.0), (5.323388268647946e-155, 1.0)])  # subnormal ss_tot
    def test_matches_definition_oracle(self, data):
        y = [a for a, _ in data]
        y_hat = [b for _, b in data]
        mae, rmse, r2 = metrics_oracle(y, y_hat)
        m = compute_metrics(y, y_hat)
        assert abs(m.mae - mae) < 1e-10
        assert abs(m.rmse - rmse) < 1e-10
        if r2 is None:
            assert m.r2 is None
        else:
            assert abs(m.r2 - r2) < 1e-10


class TestExpandingWindowFolds:
    def test_enumerated_example(self):
        folds = expanding_window_folds(10, 4, 2)
        assert folds == [
            FoldSpec(4, 4, 6),
            FoldSpec(6, 6, 8),
            FoldSpec(8, 8, 10),
        ]

    def test_single_fold(self):
        assert expanding_window_folds(5, 4, 1) == [FoldSpec(4, 4, 5)]

    def test_no_room_for_test(self):
        with pytest.raises(InvalidArgumentError):
            expanding_window_folds(4, 4, 1)

    def test_partial_tail_fold_tiles_series(self):
        folds = expanding_window_folds(11, 4, 2)
        assert folds[-1] == FoldSpec(10, 10, 11)
        covered = [i for f in folds for i in range(f.test_start, f.test_end)]
        assert covered == list(range(4, 11))

    @given(
        n=st.integers(3, 200),
        initial=st.integers(1, 50),
        test_len=st.integers(1, 20),
    )
    @settings(max_examples=80)
    def test_windows_expand_and_tile(self, n, initial, test_len):
        if initial + test_len > n:
            with pytest.raises(InvalidArgumentError):
                expanding_window_folds(n, initial, test_len)
            return
        folds = expanding_window_folds(n, initial, test_len)
        assert folds[0].train_end == initial
        assert folds[-1].test_end == n
        for prev, cur in zip(folds, folds[1:]):
            assert cur.train_end == prev.test_end
            assert cur.train_end > prev.train_end
        for f in folds:
            assert f.train_end == f.test_start

    def test_invalid_fold_spec(self):
        with pytest.raises(InvalidArgumentError):
            FoldSpec(train_end=5, test_start=4, test_end=6)


class TestFilterDeviationEvents:
    def test_all_anchored_rows_removed(self):
        y = [1.0, 2.0, 3.0]
        kept_y, kept_hat, n_orig, n_filter = filter_deviation_events(
            y, [0.0, 0.0, 0.0], y, 0.0
        )
        assert n_orig == 3 and n_filter == 0
        assert len(kept_y) == 0

    def test_nothing_removed_when_all_deviate(self):
        y = [1.0, 2.0]
        _, _, n_orig, n_filter = filter_deviation_events(
            y, [0.0, 0.0], [5.0, 5.0], 0.5
        )
        assert n_filter == n_orig == 2

    def test_hand_counted_fixture(self):
        # 3 of 10 rows deviate beyond epsilon: 70% removal, like the
        # removal-percentage accounting of the filtered report.
        spot = [10.0] * 10
        y = [10.0] * 7 + [13.0, 8.0, 20.0]
        y_hat = list(range(10))
        kept_y, kept_hat, n_orig, n_filter = filter_deviation_events(
            y, y_hat, spot, 1.0
        )
        assert (n_orig, n_filter) == (10, 3)
        assert list(kept_y) == [13.0, 8.0, 20.0]
        assert list(kept_hat) == [7.0, 8.0, 9.0]
        assert 1.0 - n_filter / n_orig == pytest.approx(0.70)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)
            ),
            min_size=1,
            max_size=40,
        ),
        eps=st.floats(0, 10),
    )
    @settings(max_examples=60)
    def test_partition(self, rows, eps):
        y = np.array([r[0] for r in rows])
        y_hat = np.array([r[1] for r in rows])
        spot = np.array([r[2] for r in rows])
        kept_y, _, n_orig, n_filter = filter_deviation_events(y, y_hat, spot, eps)
        removed = np.abs(spot - y) <= eps
        assert n_filter + int(removed.sum()) == n_orig
        assert len(kept_y) == n_filter

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            filter_deviation_events([1.0], [1.0, 2.0], [1.0], 0.0)


def tiny_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    spot = 10.0 + rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = spot + 0.5 * x2 + rng.normal(scale=0.1, size=n)
    schema = FeatureSchema(("spot", "other"), (CONTINUOUS, CONTINUOUS))
    return Dataset(
        timestamps=np.arange(n),
        features=np.column_stack([spot, x2]),
        target=y,
        schema=schema,
    )


def oracle_spec():
    """A model that looks up the true target (upper bound on accuracy)."""

    def fit(_train, _fitted):
        return lambda d, idx: d.target[idx].copy()

    return ModelSpec(label="oracle", fit=fit)


def mean_spec():
    def fit(train, _fitted):
        mean = float(train.target.mean())
        return lambda d, idx: np.full(len(idx), mean)

    return ModelSpec(label="mean", fit=fit)


class TestEvaluate:
    def test_row_accounting_single_model(self):
        d = tiny_dataset()
        folds = expanding_window_folds(d.n_rows, 20, 10)
        report = evaluate([mean_spec()], d, folds, epsilon=0.1)
        assert len(report.rows) == 2
        flags = [r.filtered for r in report.rows]
        assert flags == [False, True]
        assert report.rows[0].n_orig == report.rows[0].n_filter == 20

    def test_oracle_dominates_naive_and_mean(self):
        d = tiny_dataset(n=60, seed=3)
        folds = expanding_window_folds(d.n_rows, 30, 10)
        report = evaluate(
            [oracle_spec(), model_spec("naive", 4), mean_spec()], d, folds, epsilon=0.1
        )
        rows = {(r.model, r.filtered): r.metrics for r in report.rows}
        oracle = rows[("oracle", False)]
        for other in (rows[("naive", False)], rows[("mean", False)]):
            assert oracle.mae < other.mae
            assert oracle.rmse < other.rmse
            assert oracle.r2 > other.r2

    def test_pooled_mae_matches_bruteforce(self):
        d = tiny_dataset(n=50, seed=5)
        folds = expanding_window_folds(d.n_rows, 20, 10)
        report = evaluate([mean_spec()], d, folds, epsilon=0.1)
        # Recompute the pooled MAE per definition: refit per fold by hand.
        errors = []
        for f in folds:
            mean = float(d.target[: f.train_end].mean())
            for i in range(f.test_start, f.test_end):
                errors.append(abs(d.target[i] - mean))
        expected_mae = sum(errors) / len(errors)
        assert report.rows[0].metrics.mae == pytest.approx(expected_mae, abs=1e-12)
        assert len(report.predictions["mean"]) == len(errors)

    def test_epsilon_monotone_kept_counts(self):
        d = tiny_dataset(n=60, seed=7)
        folds = expanding_window_folds(d.n_rows, 30, 10)
        kept = []
        for eps in (0.0, 0.5, 1.0, 2.0, 5.0):
            report = evaluate([mean_spec()], d, folds, epsilon=eps)
            kept.append(report.rows[1].n_filter)
        assert all(a >= b for a, b in zip(kept, kept[1:]))

    def test_fold_out_of_range_rejected(self):
        d = tiny_dataset(n=30)
        with pytest.raises(InvalidArgumentError):
            evaluate([mean_spec()], d, [FoldSpec(10, 10, 40)], epsilon=0.1)

    def test_leakage_freedom_all_folds(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 400)
        folds = expanding_window_folds(sub.n_rows, 200, 50)
        for f in folds:
            assert sub.timestamps[: f.train_end].max() < sub.timestamps[
                f.test_start : f.test_end
            ].min()

    def test_learned_models_run_end_to_end(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 500)
        folds = expanding_window_folds(sub.n_rows, 350, 75)
        report = evaluate(
            [
                model_spec("naive", 32),
                model_spec("gbt", GbtConfig(n_trees=10, max_depth=3)),
                model_spec("ebm", EbmConfig(outer_rounds=10, learning_rate=0.3, max_bins=16)),
            ],
            sub,
            folds,
            epsilon=20.0,
        )
        assert len(report.rows) == 6
        assert all(r.metrics is not None for r in report.rows if not r.filtered)


SHARED_EBM = EbmConfig(outer_rounds=10, learning_rate=0.3, max_bins=16)
META = GbtConfig(n_trees=4, max_depth=2)


def sharing_specs(kinds, stack_ebm=SHARED_EBM):
    cfgs = {
        "naive": 32,
        "gbt": GbtConfig(n_trees=4, max_depth=3),
        "ebm": SHARED_EBM,
        "stacked": (stack_ebm, META),
    }
    return [model_spec(kind, cfgs[kind]) for kind in kinds]


class TestFitSharing:
    """Within a fold, the stack's base is the ebm model's fit when their
    configs are equal, whatever their order; outputs do not change."""

    @pytest.fixture
    def ebm_calls(self, monkeypatch):
        # Every binding of ebm_train, as the benchmark tracer wraps them.
        calls = []
        original = ebm.ebm_train

        def counted(d, cfg=EbmConfig()):
            calls.append(cfg)
            return original(d, cfg)

        monkeypatch.setattr(ebm, "ebm_train", counted)
        monkeypatch.setattr(stacking, "ebm_train", counted)
        return calls

    @pytest.fixture(scope="class")
    def backtest(self, aligned_spiky):
        sub = aligned_spiky.slice_rows(0, 600)
        folds = expanding_window_folds(sub.n_rows, 400, 100)
        assert len(folds) == 2
        return sub, folds

    @pytest.mark.parametrize(
        "kinds",
        [("naive", "gbt", "ebm", "stacked"), ("stacked", "ebm"), ("stacked",)],
        ids=",".join,
    )
    def test_one_ebm_fit_per_fold(self, backtest, ebm_calls, kinds):
        d, folds = backtest
        report = evaluate(sharing_specs(kinds), d, folds)
        assert len(ebm_calls) == 2
        assert [row.model for row in report.rows[::2]] == list(kinds)
        for spec in sharing_specs(kinds):
            alone = evaluate([spec], d, folds).predictions[spec.label]
            assert report.predictions[spec.label].tobytes() == alone.tobytes()

    def test_different_configs_fit_apart(self, backtest, ebm_calls):
        d, folds = backtest
        other = EbmConfig(outer_rounds=12, learning_rate=0.3, max_bins=16)
        evaluate(sharing_specs(("ebm", "stacked"), stack_ebm=other), d, folds)
        assert ebm_calls == [SHARED_EBM, other] * 2

    def test_hand_written_specs_beside_shared_fits(self, backtest):
        d, folds = backtest
        kinds = ("stacked", "ebm")
        report = evaluate([mean_spec(), *sharing_specs(kinds), oracle_spec()], d, folds)
        assert [row.model for row in report.rows[::2]] == ["mean", *kinds, "oracle"]
        assert report.predictions["oracle"].tobytes() == report.actual.tobytes()


class TestEvalReportOutput:
    def test_csv_layout(self, tmp_path):
        d = tiny_dataset(n=40, seed=2)
        folds = expanding_window_folds(d.n_rows, 20, 10)
        report = evaluate([mean_spec()], d, folds, epsilon=0.1, label="zone1")
        report.save(tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "label,direction,model,filtered,n_orig,n_filter,mae,rmse,r2"
        assert lines[1].startswith("zone1,up,mean,false,20,20,")
        assert len(lines) == 3
        assert (tmp_path / "report.txt").read_text() == report.format_table() + "\n"

    def test_report_carries_pooled_segment(self, tmp_path):
        d = tiny_dataset(n=40, seed=2)
        folds = expanding_window_folds(d.n_rows, 20, 10)
        report = evaluate([mean_spec(), oracle_spec()], d, folds, epsilon=0.1)
        assert report.issue_timestamps.tolist() == d.timestamps[20:40].tolist()
        assert report.actual.tolist() == d.target[20:40].tolist()
        assert list(report.predictions) == ["mean", "oracle"]
        report.save(tmp_path)
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "model,issue_timestamp,actual,predicted"
        expected = [
            f"{model},{t},{y!r},{p!r}"
            for model in ("mean", "oracle")
            for t, y, p in zip(
                d.timestamps[20:40].tolist(),
                d.target[20:40].tolist(),
                report.predictions[model].tolist(),
            )
        ]
        assert lines[1:] == expected

    def test_removal_percentage_exact(self):
        d = tiny_dataset(n=40, seed=2)
        folds = expanding_window_folds(d.n_rows, 20, 10)
        report = evaluate([mean_spec()], d, folds, epsilon=0.5)
        filtered = report.rows[1]
        assert filtered.removal_fraction == 1.0 - filtered.n_filter / filtered.n_orig

    def test_text_table_mentions_models(self):
        d = tiny_dataset(n=40, seed=2)
        folds = expanding_window_folds(d.n_rows, 20, 10)
        report = evaluate([mean_spec(), oracle_spec()], d, folds, epsilon=0.1)
        table = report.format_table()
        assert "mean" in table and "oracle" in table and "R2" in table
