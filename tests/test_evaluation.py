import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balancecast import (
    Dataset,
    EbmConfig,
    EvalReport,
    EvalRow,
    FeatureSchema,
    FoldSpec,
    GbtConfig,
    InvalidArgumentError,
    Metrics,
    ModelSpec,
    align_horizon,
    compute_metrics,
    evaluate,
    expanding_window_folds,
    filter_deviation_events,
    model_spec,
)
from balancecast import ebm, gbt, stacking
from balancecast.evaluation import run_folds


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

    def test_rmse_whose_squares_overflow_is_finite(self):
        # Errors of 1e200 and 2e200: their squares overflow, their RMSE does not.
        y_hat = np.array([0.0, 0.0, 1e200])
        m = compute_metrics([1e200, -2e200, 1e200], y_hat)
        assert m.rmse == 2e200 * math.sqrt((0.25 + 1.0 + 0.0) / 3) and m.r2 is None
        assert m.mae == pytest.approx(1e200)

    def test_mae_whose_sum_overflows_is_finite(self):
        # Errors of 1.7e308, 1.7e308 and 0: their sum overflows, their MAE does not.
        m = compute_metrics([1.7e308, 1.7e308, 0.0], [0.0, 0.0, 0.0])
        assert m.mae == 1.7e308 * ((1.0 + 1.0 + 0.0) / 3)
        assert m.rmse == 1.7e308 * math.sqrt((1.0 + 1.0 + 0.0) / 3)

    def test_wide_metric_is_printed_in_e_notation(self):
        report = EvalReport(issue_timestamps=np.arange(2), actual=np.zeros(2))
        report.rows.append(EvalRow("x", "up", "m", False, 2, 2, Metrics(3.07e304, 12.5, -1e6)))
        header, _, line = report.format_table().splitlines()
        assert line.endswith(" 3.07e+304    12.5000  -1.0e+06") and len(line) == len(header)

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

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_non_negative(self, eps):
        with pytest.raises(InvalidArgumentError, match="epsilon"):
            filter_deviation_events([1.0], [1.0], [1.0], eps)


def tiny_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    spot = 10.0 + rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = spot + 0.5 * x2 + rng.normal(scale=0.1, size=n)
    schema = FeatureSchema(("spot", "other"))
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
        d = align_horizon(tiny_dataset(n=64, seed=3), 4)
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

    @pytest.mark.parametrize("cfg", [None, 4, 32])
    def test_naive_forecast_is_the_price_at_the_issue_time(self, spiky_data, cfg):
        # The naive model lags by the data's horizon, whatever cfg it is given.
        raw = spiky_data[0].slice_rows(0, 600)
        aligned = align_horizon(raw, 32)
        folds = expanding_window_folds(aligned.n_rows, 300, 100)
        report = evaluate([model_spec("naive", cfg)], aligned, folds)
        issue_rows = report.issue_timestamps - raw.timestamps[0]
        assert np.array_equal(report.predictions["naive"], raw.target[issue_rows])

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

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_bad_epsilon_rejected_before_any_fit(self, eps):
        def fit(train, fitted):
            raise AssertionError("fit called")

        d = tiny_dataset(n=30)
        with pytest.raises(InvalidArgumentError, match="epsilon"):
            evaluate([ModelSpec("never", fit)], d, [FoldSpec(10, 10, 20)], epsilon=eps)

    def test_repeated_label_rejected_before_any_fit(self, monkeypatch):
        # Two specs of one label would share one entry of report.predictions.
        def never(*args, **kwargs):
            raise AssertionError("gbt_train called")

        monkeypatch.setattr(gbt, "gbt_train", never)
        specs = [model_spec("gbt", GbtConfig(n_trees=3)), model_spec("gbt", GbtConfig(n_trees=6))]
        d = tiny_dataset(n=30)
        with pytest.raises(InvalidArgumentError, match="labels repeat"):
            evaluate(specs, d, [FoldSpec(10, 10, 20)])

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


class TestRunFolds:
    """run_folds fits each spec once per fold, folds in order and specs in
    spec order, on the rows before the fold's test window, and the specs of
    a fold share one fresh ``fitted`` dict."""

    @staticmethod
    def spy(label, calls):
        def fit(train, fitted):
            calls.append((label, train.n_rows, fitted))
            fitted.setdefault("fitted in order", []).append(label)
            mean = float(train.target.mean())
            return lambda d, idx: np.full(len(idx), mean)

        return ModelSpec(label, fit)

    def test_each_spec_fits_once_per_fold(self):
        d = tiny_dataset(n=70, seed=4)
        folds = expanding_window_folds(d.n_rows, 30, 15)
        assert len(folds) == 3
        calls = []
        specs = [self.spy(label, calls) for label in "abc"]
        report = evaluate(specs, d, folds, epsilon=0.1)
        assert [call[:2] for call in calls] == [(label, f.train_end) for f in folds for label in "abc"]
        per_fold = [calls[i : i + 3] for i in range(0, len(calls), 3)]
        for fold_calls in per_fold:
            assert all(call[2] is fold_calls[0][2] for call in fold_calls)
            assert fold_calls[0][2] == {"fitted in order": ["a", "b", "c"]}
        assert len({id(fold_calls[0][2]) for fold_calls in per_fold}) == 3
        assert [row.model for row in report.rows[::2]] == ["a", "b", "c"]

    def test_yields_each_folds_predictions_in_spec_order(self):
        d = tiny_dataset(n=70, seed=4)
        folds = expanding_window_folds(d.n_rows, 30, 15)
        calls = []
        fold_preds = list(run_folds([mean_spec(), oracle_spec(), self.spy("spy", calls)], d, folds))
        assert len(fold_preds) == len(folds) == len(calls)
        for fold, (mean, oracle, spy) in zip(folds, fold_preds):
            assert mean.tolist() == [float(d.target[: fold.train_end].mean())] * (fold.test_end - fold.test_start)
            assert oracle.tolist() == d.target[fold.test_start : fold.test_end].tolist()
            assert spy.tolist() == mean.tolist()
        report = evaluate([mean_spec(), oracle_spec()], d, folds)
        assert report.predictions["mean"].tolist() == np.concatenate([p[0] for p in fold_preds]).tolist()


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

    @pytest.mark.parametrize("labels", [["mean", "oracle"], ["", "a,b", 'q"t', "line\nbreak", "cr\r"]])
    def test_predictions_csv_matches_a_csv_writer(self, tmp_path, labels):
        actual = np.array([1.5, -0.0, 0.0, 5e-324, 1e16, 0.1])
        report = EvalReport(
            issue_timestamps=np.arange(-3, 3),
            actual=actual,
            predictions={label: actual[::-1] * i for i, label in enumerate(labels)},
        )
        report.save(tmp_path)
        rows = [["model", "issue_timestamp", "actual", "predicted"]]
        for label, pred_pool in report.predictions.items():
            for t, y, p in zip(range(-3, 3), actual.tolist(), pred_pool.tolist()):
                rows.append([label, str(t), repr(y), repr(p)])

        def line(row):
            # A writer whose lines end in "\r\n" also quotes a cell holding
            # a bare "\r", which the csv reader would take for a line break.
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            return buf.getvalue()[:-2] + "\n"

        assert (tmp_path / "predictions.csv").read_bytes() == "".join(map(line, rows)).encode()
        with (tmp_path / "predictions.csv").open(newline="") as fh:
            assert list(csv.reader(fh)) == rows

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
