import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancecast import data

from balancecast import (
    Dataset,
    FeatureSchema,
    GridError,
    IngestError,
    InvalidArgumentError,
    SchemaError,
    SyntheticConfig,
    align_horizon,
    encode_cyclical,
    generate_synthetic,
    load_csv,
    save_csv,
    synthetic_schema,
    truth_table,
)
from balancecast.data import (
    CONTINUOUS,
    SYNTHETIC_FEATURES,
    _ar1,
    heating_price_response,
    hydro_price_response,
)


def small_schema(p=2):
    return FeatureSchema(
        names=tuple(f"f{i}" for i in range(p)), kinds=(CONTINUOUS,) * p
    )


def make_dataset(features, target, start=0, spot_column=0):
    features = np.asarray(features, dtype=np.float64)
    return Dataset(
        timestamps=np.arange(start, start + len(features)),
        features=features,
        target=np.asarray(target, dtype=np.float64),
        schema=small_schema(features.shape[1]),
        spot_column=spot_column,
    )


class TestEncodeCyclical:
    def test_zero_phase(self):
        assert encode_cyclical(0, 24) == (0.0, 1.0)

    def test_quarter_period(self):
        sin_c, cos_c = encode_cyclical(6, 24)
        assert sin_c == 1.0
        assert abs(cos_c) < 1e-12

    def test_pi_over_two(self):
        # 2*pi*3/12 = pi/2, so sin = 1 and cos = 0.
        sin_c, cos_c = encode_cyclical(3, 12)
        assert sin_c == pytest.approx(1.0, abs=1e-15)
        assert cos_c == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("period", [0, -1, -0.5])
    def test_nonpositive_period(self, period):
        with pytest.raises(InvalidArgumentError):
            encode_cyclical(1.0, period)

    @given(
        value=st.floats(-5000, 5000),
        period=st.floats(5.0, 100.0),
    )
    def test_unit_circle_identity(self, value, period):
        sin_c, cos_c = encode_cyclical(value, period)
        assert abs(sin_c**2 + cos_c**2 - 1.0) < 1e-12

    @given(
        value=st.floats(-5000, 5000),
        period=st.floats(5.0, 100.0),
    )
    def test_periodicity(self, value, period):
        a = encode_cyclical(value, period)
        b = encode_cyclical(value + period, period)
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[1] == pytest.approx(b[1], abs=1e-9)

    def test_array_input(self):
        sin_c, cos_c = encode_cyclical(np.array([0.0, 6.0]), 24)
        assert np.allclose(sin_c, [0.0, 1.0])


class TestDataset:
    def test_basic_invariants(self):
        d = make_dataset([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])
        assert d.n_rows == 2 and d.n_features == 2
        assert d.features.flags.writeable is False

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_dataset([[np.nan, 2.0]], [1.0])
        with pytest.raises(InvalidArgumentError):
            make_dataset([[1.0, 2.0]], [np.inf])

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(
                timestamps=np.arange(3),
                features=np.zeros((2, 2)),
                target=np.zeros(2),
                schema=small_schema(),
            )

    def test_grid_gap_rejected(self):
        with pytest.raises(GridError):
            Dataset(
                timestamps=np.array([0, 2]),
                features=np.zeros((2, 2)),
                target=np.zeros(2),
                schema=small_schema(),
            )

    def test_spot_column_bounds(self):
        with pytest.raises(InvalidArgumentError):
            make_dataset([[1.0, 2.0]], [1.0], spot_column=5)

    def test_slice_rows_keeps_grid(self):
        d = make_dataset(np.arange(10.0).reshape(5, 2), np.arange(5.0))
        s = d.slice_rows(1, 4)
        assert s.n_rows == 3
        assert list(s.timestamps) == [1, 2, 3]


class TestCsvRoundTrip:
    def test_happy_path(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "d.csv"
        path.write_text(
            "timestamp,f0,f1,target\n0,1.5,2.5,10.0\n1,3.5,4.5,20.0\n2,5.5,6.5,30.0\n"
        )
        d = load_csv(path, schema)
        assert d.n_rows == 3
        assert d.features[1, 0] == 3.5

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,f0,f1,target\n1,3.0,4.0,20.0\n0,1.0,2.0,10.0\n")
        d = load_csv(path, small_schema())
        assert list(d.timestamps) == [0, 1]
        assert d.target[0] == 10.0

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,f0,target\n0,1.0,10.0\n")
        with pytest.raises(SchemaError, match="f1"):
            load_csv(path, small_schema())

    def test_nan_cell_cites_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "timestamp,f0,f1,target\n0,1.0,2.0,10.0\n1,nan,2.0,20.0\n2,1.0,2.0,30.0\n"
        )
        with pytest.raises(IngestError, match="row 2"):
            load_csv(path, small_schema())

    def test_unparsable_cell_cites_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,f0,f1,target\n0,1.0,x,10.0\n")
        with pytest.raises(IngestError, match="row 1"):
            load_csv(path, small_schema())

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,f0,f1,target\n0,1.0,2.0,10.0\n2,1.0,2.0,30.0\n")
        with pytest.raises(GridError):
            load_csv(path, small_schema())

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,f0,f1,target\n0,1.0,2.0,10.0\n0,1.0,2.0,30.0\n")
        with pytest.raises(GridError):
            load_csv(path, small_schema())

    def test_round_trip_exact(self, tmp_path, spiky_data):
        d, _ = spiky_data
        path = tmp_path / "round.csv"
        save_csv(d, path)
        back = load_csv(path, d.schema)
        assert np.array_equal(back.timestamps, d.timestamps)
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.target, d.target)
        assert back.spot_column == d.spot_column


def reference_save_csv(d, path):
    """save_csv as one csv.writer row per dataset row, cell by cell."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", *d.schema.names, "target"])
        for i in range(d.n_rows):
            row = [str(int(d.timestamps[i]))]
            row.extend(repr(float(v)) for v in d.features[i])
            row.append(repr(float(d.target[i])))
            writer.writerow(row)


def reference_load_csv(path, schema):
    """load_csv parsing and checking one cell at a time."""
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: file is empty") from None
        expected = ["timestamp", *schema.names, "target"]
        for col in expected:
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")
        if header != expected:
            raise SchemaError(
                f"{path}: header {header!r} does not match expected {expected!r}"
            )
        p = len(schema)
        ts_rows, rows, targets = [], [], []
        row_no = 0
        while True:
            try:
                row = next(reader, None)
            except csv.Error as exc:
                raise IngestError(f"{path}: row {row_no + 1}: {exc}") from None
            if row is None:
                break
            row_no += 1
            if len(row) != p + 2:
                raise IngestError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {p + 2}"
                )
            try:
                ts = int(row[0])
            except ValueError:
                raise IngestError(
                    f"{path}: row {row_no}: bad timestamp {row[0]!r}"
                ) from None
            values = []
            for name, cell in zip((*schema.names, "target"), row[1:]):
                try:
                    v = float(cell)
                except ValueError:
                    raise IngestError(
                        f"{path}: row {row_no}: cannot parse {name}={cell!r}"
                    ) from None
                if not np.isfinite(v):
                    raise IngestError(
                        f"{path}: row {row_no}: non-finite value in column {name}"
                    )
                values.append(v)
            ts_rows.append(ts)
            rows.append(values[:-1])
            targets.append(values[-1])
    order = np.argsort(np.asarray(ts_rows, dtype=np.int64), kind="stable")
    timestamps = np.asarray(ts_rows, dtype=np.int64)[order]
    if len(timestamps) > 1:
        step = np.diff(timestamps)
        if (step == 0).any():
            dup = int(timestamps[int(np.argmax(step == 0))])
            raise GridError(f"{path}: duplicate timestamp {dup}")
        if (step != 1).any():
            after = int(timestamps[int(np.argmax(step != 1))])
            raise GridError(f"{path}: timestamp gap after quarter {after}")
    features = np.asarray(rows, dtype=np.float64).reshape(len(rows), p)
    return timestamps, features[order], np.asarray(targets, dtype=np.float64)[order]


def outcome(load, path, schema):
    """The arrays a loader returns as bytes, or the class and message of
    what it raises."""
    try:
        result = load(path, schema)
    except (IngestError, SchemaError, GridError) as exc:
        return type(exc), str(exc)
    if isinstance(result, Dataset):
        result = (result.timestamps, result.features, result.target)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in result)


def assert_loads_like_reference(path, schema=None):
    schema = schema or small_schema()
    expected = outcome(reference_load_csv, path, schema)
    assert outcome(load_csv, path, schema) == expected
    return expected


# Finite doubles, weighted towards the values whose repr or parse could go
# wrong: signed zeros, subnormals, extreme magnitudes and integers.
SPECIAL_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e300, -1e300, 1.7976931348623157e308, 1e16, 1e-5]),
    st.integers(-(2**60), 2**60).map(float),
)


def csv_file(path, n_rows, edits=None):
    """A gap-free csv of ``n_rows`` rows of ``small_schema()``; ``edits``
    maps 1-based data row numbers to replacement lines."""
    edits = edits or {}
    lines = ["timestamp,f0,f1,target"]
    lines += [edits.get(r, f"{r - 1},1.5,1.5,1.5") for r in range(1, n_rows + 1)]
    path.write_text("\n".join(lines) + "\n")
    return path


# Datasets of 1 to 80 finite cells: p features plus the target per row.
SAVED_DATASETS = {
    "p": st.integers(1, 3),
    "cells": st.lists(SPECIAL_FLOATS, min_size=4, max_size=80),
    "start": st.integers(-(2**62), 2**62),
}


class TestCsvAgainstReference:
    @given(**SAVED_DATASETS)
    @settings(max_examples=60, deadline=None)
    def test_bytes_and_values_match_reference(self, tmp_path_factory, p, cells, start):
        self.assert_saves_like_reference(tmp_path_factory, p, cells, start)

    @given(**SAVED_DATASETS)
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_reference_in_3_row_chunks(self, tmp_path_factory, p, cells, start):
        with mock.patch.object(data, "_CSV_CHUNK_ROWS", 3):
            self.assert_saves_like_reference(tmp_path_factory, p, cells, start)

    @staticmethod
    def assert_saves_like_reference(tmp_path_factory, p, cells, start):
        n = len(cells) // (p + 1)
        block = np.array(cells[: n * (p + 1)]).reshape(n, p + 1)
        d = Dataset(
            timestamps=np.arange(start, start + n),
            features=block[:, :p],
            target=block[:, p],
            schema=small_schema(p),
        )
        out = tmp_path_factory.mktemp("csv")
        save_csv(d, out / "new.csv")
        reference_save_csv(d, out / "ref.csv")
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
        loaded = assert_loads_like_reference(out / "ref.csv", d.schema)
        assert loaded == outcome(lambda *_: d, None, None)

    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from(["0", "1", "2", " 3 ", "1_0", "-1", "1.5", "-0.0",
                                 "5e-324", "1e400", "inf", "nan", "x", ""]),
                max_size=5,
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_malformed_cells_match_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text("timestamp,f0,f1,target\n" + "".join(",".join(r) + "\n" for r in rows))
        with mock.patch.object(data, "_CSV_CHUNK_ROWS", 3):
            assert_loads_like_reference(path)

    def test_bad_cell_in_first_row_of_second_chunk(self, tmp_path):
        first = data._CSV_CHUNK_ROWS + 1
        path = csv_file(tmp_path / "d.csv", first + 5, {first: f"{first - 1},1.5,oops,2.0"})
        kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and f"row {first}: cannot parse f1='oops'" in message

    def test_short_row_after_bad_cell_in_same_chunk(self, tmp_path):
        path = csv_file(tmp_path / "d.csv", 50, {10: "9,1.5,x,2.0", 11: "10,1.5"})
        kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and "row 10: cannot parse f1='x'" in message

    def test_non_finite_cell_before_unparsable_one(self, tmp_path):
        path = csv_file(tmp_path / "d.csv", 50, {7: "6,inf,x,2.0"})
        kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and "row 7: non-finite value in column f0" in message

    def test_bad_cell_before_unreadable_row_in_same_chunk(self, tmp_path):
        oversized = "1" * (csv.field_size_limit() + 1)
        path = csv_file(tmp_path / "d.csv", 50, {3: "2,x,1.5,2.0", 20: f"19,{oversized},1.5,2.0"})
        kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and "row 3: cannot parse f0='x'" in message

    def test_unreadable_row_is_ingest_error(self, tmp_path):
        oversized = "1" * (csv.field_size_limit() + 1)
        path = csv_file(tmp_path / "d.csv", 50, {20: f"19,{oversized},1.5,2.0"})
        kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and "row 20: field larger than field limit" in message

    def test_header_only_file(self, tmp_path):
        path = csv_file(tmp_path / "d.csv", 0)
        assert_loads_like_reference(path)
        assert load_csv(path, small_schema()).features.shape == (0, 2)

    def test_file_of_exactly_one_chunk(self, tmp_path):
        n = data._CSV_CHUNK_ROWS
        path = csv_file(tmp_path / "d.csv", n)
        assert_loads_like_reference(path)
        d = load_csv(path, small_schema())
        assert d.n_rows == n and d.timestamps[-1] == n - 1
        csv_file(path, n, {n: f"{n - 1},1.5,1.5"})
        kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and f"row {n} has 3 cells, expected 4" in message

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
    def test_timestamp_outside_int64_is_ingest_error(self, tmp_path, cell):
        path = csv_file(tmp_path / "d.csv", 300, {200: f"{cell},1.5,1.5,2.0"})
        with pytest.raises(IngestError, match=f"row 200: bad timestamp '{cell}'"):
            load_csv(path, small_schema())


class TestAlignHorizon:
    def test_index_shift_by_hand(self):
        d = make_dataset(
            np.arange(10.0).reshape(5, 2), [10.0, 20.0, 30.0, 40.0, 50.0]
        )
        a = align_horizon(d, 1)
        assert a.n_rows == 4
        assert list(a.target) == [20.0, 30.0, 40.0, 50.0]
        assert np.array_equal(a.features, d.features[:4])

    def test_horizon_too_large(self):
        d = make_dataset(np.zeros((3, 2)), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgumentError):
            align_horizon(d, 3)

    @pytest.mark.parametrize("h", [0, -1])
    def test_horizon_must_be_positive(self, h):
        d = make_dataset(np.zeros((3, 2)), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgumentError):
            align_horizon(d, h)

    @given(h=st.integers(1, 20))
    @settings(max_examples=20)
    def test_never_uses_future_features(self, h):
        # With timestamp-valued feature and target, every aligned row must
        # satisfy target_time - feature_time = h.
        n = 40
        ts = np.arange(n, dtype=float)
        d = Dataset(
            timestamps=np.arange(n),
            features=np.column_stack([ts, ts]),
            target=ts,
            schema=small_schema(),
        )
        a = align_horizon(d, h)
        assert np.all(a.target - a.features[:, 0] == h)


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_rows=200, seed=9, noise_sd=1.5, spike_prob=0.1)
        d1, t1 = generate_synthetic(cfg)
        d2, t2 = generate_synthetic(cfg)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.target, d2.target)
        assert np.array_equal(t1.base_target, t2.base_target)

    def test_schema_and_spot_column(self):
        d, _ = generate_synthetic(SyntheticConfig(n_rows=10, seed=1))
        assert d.schema.names == SYNTHETIC_FEATURES
        assert d.schema == synthetic_schema()
        assert d.spot_column == 0

    def test_degenerate_noise_matches_recipe(self):
        cfg = SyntheticConfig(n_rows=300, seed=4, noise_sd=0.0, spike_prob=0.0)
        d, truth = generate_synthetic(cfg)
        assert np.array_equal(d.target, truth.base_target)
        # With zero forecast noise the features are the true drivers, so the
        # recipe can be recomputed from the emitted columns.
        recomputed = (
            d.features[:, 0]
            + hydro_price_response(d.features[:, 2])
            + heating_price_response(d.features[:, 4])
        )
        assert np.allclose(recomputed, d.target, atol=1e-12)

    def test_no_spikes_means_no_deviations(self):
        cfg = SyntheticConfig(n_rows=400, seed=8, noise_sd=0.0, spike_prob=0.0)
        d, truth = generate_synthetic(cfg)
        assert int(np.sum(d.target != truth.base_target)) == 0

    def test_spike_rows_marked(self):
        cfg = SyntheticConfig(
            n_rows=400, seed=8, noise_sd=0.0, spike_prob=0.2, spike_scale=30.0
        )
        d, truth = generate_synthetic(cfg)
        deviating = d.target != truth.base_target
        assert np.array_equal(deviating, truth.spike_indicator)
        assert truth.spike_indicator.any()
        assert np.all(truth.spike_magnitude[truth.spike_indicator] >= 30.0)

    def test_truth_table_matches_components(self, clean_data):
        d, truth = clean_data
        table = truth_table(truth, d, n_points=11)
        hydro_pairs = table["hydro"]
        for v, c in hydro_pairs:
            assert c == pytest.approx(float(hydro_price_response(v)), abs=1e-12)
        assert all(c == 0.0 for _, c in table["wind"])

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticConfig(n_rows=0)
        with pytest.raises(InvalidArgumentError):
            SyntheticConfig(noise_sd=-1.0)
        with pytest.raises(InvalidArgumentError):
            SyntheticConfig(spike_prob=1.5)
        with pytest.raises(InvalidArgumentError):
            SyntheticConfig(spike_scale=0.0)

    def test_cyclical_columns_consistent(self):
        d, _ = generate_synthetic(SyntheticConfig(n_rows=96, seed=2, noise_sd=0.0))
        hour_sin = d.features[:, d.schema.index_of("hour_sin")]
        hour_cos = d.features[:, d.schema.index_of("hour_cos")]
        assert np.allclose(hour_sin**2 + hour_cos**2, 1.0, atol=1e-12)
        # Quarter 0 is hour 0: phase zero.
        assert hour_sin[0] == 0.0 and hour_cos[0] == 1.0


def reference_ar1(rng, n, rho, sd):
    """_ar1 stepping through a float64 array."""
    stationary_sd = sd / np.sqrt(1.0 - rho * rho)
    innovations = rng.normal(0.0, sd, size=n)
    x = np.empty(n)
    x[0] = rng.normal(0.0, stationary_sd)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + innovations[i]
    return x


@pytest.mark.parametrize("n, rho, sd", [(1, 0.5, 1.0), (500, 0.97, 1.2), (300, 0.95, 6.0)])
def test_ar1_matches_array_reference(n, rho, sd):
    got = _ar1(np.random.default_rng(n), n, rho, sd)
    want = reference_ar1(np.random.default_rng(n), n, rho, sd)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
