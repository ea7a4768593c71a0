import csv
import math
import re
from dataclasses import replace
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
)
from balancecast.data import (
    QUARTERS_PER_DAY,
    SYNTHETIC_COMPONENTS,
    SYNTHETIC_FEATURES,
    SyntheticTruth,
    _ar1,
    heating_price_response,
    hour_of_day,
    hydro_price_response,
    month_index,
    truth_table,
)

from conftest import traced_peak


def small_schema(p=2):
    return FeatureSchema(names=tuple(f"f{i}" for i in range(p)))


def make_dataset(features, target, start=0):
    features = np.asarray(features, dtype=np.float64)
    return Dataset(
        timestamps=np.arange(start, start + len(features)),
        features=features,
        target=np.asarray(target, dtype=np.float64),
        schema=small_schema(features.shape[1]),
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

    @pytest.mark.parametrize("period", [0, -1, -0.5, math.nan, math.inf])
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

    def test_spot_needs_a_spot_feature(self):
        d = make_dataset([[1.0, 2.0]], [1.0])
        with pytest.raises(SchemaError, match="'spot'"):
            d.spot
        assert replace(d, schema=FeatureSchema(("f0", "spot"))).spot.tolist() == [2.0]

    def test_slice_rows_keeps_grid(self):
        d = make_dataset(np.arange(10.0).reshape(5, 2), np.arange(5.0))
        s = d.slice_rows(1, 4)
        assert s.n_rows == 3
        assert list(s.timestamps) == [1, 2, 3]


# Feature names: any character (lone surrogates too), the ones csv quotes or
# str.splitlines breaks at, and the header's own column names.
SCHEMA_NAMES = st.text(
    st.characters() | st.characters(categories=["Cs"])
    | st.sampled_from(',"\r\n\x00\x0b\x1c\x85\u2028\ufeff '),
    max_size=4,
) | st.sampled_from(["timestamp", "target", "spot", "a,b"])


class TestFeatureSchema:
    @pytest.mark.parametrize("name", ["", "a,b", 'a"b', "a\nb", "a\rb", "a\r\nb", 7, None])
    def test_name_csv_must_quote_is_schema_error(self, name):
        with pytest.raises(SchemaError, match="csv writes unquoted"):
            FeatureSchema(("c", name))

    def test_names_csv_writes_unquoted_are_kept(self):
        names = ("wind speed", "prix \u20ac", "a;b", " pad ", "tab\tbed")
        assert FeatureSchema(names).names == names

    @pytest.mark.parametrize("name", ["timestamp", "target"])
    def test_header_column_name_is_schema_error(self, name):
        with pytest.raises(SchemaError, match="taken by a column of the CSV header"):
            FeatureSchema(("c", name))

    def test_lone_surrogate_is_schema_error(self):
        with pytest.raises(SchemaError, match="not UTF-8 text"):
            FeatureSchema(("c", "a\ud800"))

    @given(
        names=st.lists(SCHEMA_NAMES, min_size=1, max_size=4),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_accepted_schema_round_trips_through_csv(self, tmp_path_factory, names, values):
        try:
            schema = FeatureSchema(tuple(names))
        except SchemaError:
            return
        p = len(names)
        d = Dataset(
            timestamps=np.arange(3, 5),
            features=np.resize(values, (2, p)),
            target=np.array(values[-2:]),
            schema=schema,
        )
        path = tmp_path_factory.mktemp("schema") / "d.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert back.schema == schema
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.target, d.target)
        assert back.timestamps.tolist() == [3, 4]


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
        assert np.array_equal(back.spot, d.spot)


class TestCsvHeaderSchema:
    def test_header_names_the_features(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,load,spot,wind speed,target\n1,3.0,4.0,5.0,20.0\n0,1.0,2.0,3.0,10.0\n")
        d = load_csv(path)
        assert d.schema == FeatureSchema(("load", "spot", "wind speed"))
        assert d.features.tolist() == [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]
        assert d.spot.tolist() == [2.0, 4.0] and d.target.tolist() == [10.0, 20.0]

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "time,f0,target",
            "f0,timestamp,target",
            "timestamp,f0,price",
            "timestamp,target,f0",
            "timestamp,target",
            "timestamp",
            "timestamp,f0,f0,target",
            "timestamp,timestamp,target",
            "timestamp,f0,target,target",
            '"",target',
            'timestamp,"",target',
            'timestamp,"a,b",target',
            'timestamp,"a""b",target',
            'timestamp,"a\nb",target',
            'timestamp,"a\rb",target',
        ],
    )
    def test_malformed_header_is_schema_error(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_bytes((header + "\n0,1.0,2.0\n").encode())
        with pytest.raises(SchemaError, match="header"):
            load_csv(path)

    def test_header_name_csv_must_quote_names_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('timestamp,"a,b",target\n0,1.0,2.0\n')
        with pytest.raises(SchemaError) as exc:
            load_csv(path)
        assert str(exc.value) == (
            f"{path}: header ['timestamp', 'a,b', 'target'] has a name csv must quote: 'a,b'"
        )


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
    """The outcome of load_csv on ``path``, checked against the reference;
    where the file's header is the schema's, also without a schema."""
    schema = schema or small_schema()
    expected = outcome(reference_load_csv, path, schema)
    assert outcome(load_csv, path, schema) == expected
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
    if header == ["timestamp", *schema.names, "target"]:
        assert outcome(load_csv, path, None) == expected
    return expected


# Finite doubles, weighted towards the values whose repr or parse could go
# wrong: signed zeros, subnormals, extreme magnitudes and integers.
SPECIAL_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e300, -1e300, 1.7976931348623157e308, 1e16, 1e-5]),
    st.integers(-(2**60), 2**60).map(float),
)

# A few doubles, so that a column repeats values: both zeros, the smallest
# subnormal, extreme magnitudes and ordinary values.
REPEATED_POOL = [0.0, -0.0, 5e-324, 1e16, 1e300, 1.5, -2.75, 0.1]


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


LINE_ENDS = ["\n", "\r\n", "\r"]


def _plain_line(cells, end):
    return lambda row_no: f"{row_no},{','.join(cells)}{end}"


# Makers of csv text for data row ``row_no`` (its timestamp): mostly plain
# rows with any line ending, mixed with what the csv reader must read.
LINES = st.one_of(
    st.builds(
        _plain_line,
        st.lists(st.sampled_from(["1.5", "-0.0", "2", " 3 ", "1e3", "5e-324"]), min_size=3, max_size=3),
        st.sampled_from(LINE_ENDS),
    ),
    st.sampled_from([
        lambda r: f'{r},"1.5",2,3\n',
        lambda r: f'{r},"1.5\n",2,3\n',  # a quoted line break
        lambda r: f'{r},"\r\n2",2,3\r\n',
        lambda r: f'{r},1\x005,2,3\n',
        lambda r: "\n",
        lambda r: "\r\n",
        lambda r: f"{r},1,2,3,4\n{r + 1},1,2\n",  # 4 + 2 commas, 3 per line on average
        lambda r: f"{r},1,2\r{r + 1},1,2,3,4\r",
        lambda r: f"{r},1,x,3\n",
        lambda r: f"{r},1,nan,3\r\n",
        lambda r: f"{r},1,2,\n",
        lambda r: f"{r},1,2,3,\n",
        lambda r: f"{r},{'1' * (csv.field_size_limit() + 1)},2,3\n",
    ]),
)


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

    @pytest.mark.parametrize("chunk_rows", [3, 1024])
    @given(
        p=st.integers(1, 3),
        cells=st.lists(st.sampled_from(REPEATED_POOL), min_size=4, max_size=80),
        start=SAVED_DATASETS["start"],
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_values_match_reference(self, tmp_path_factory, chunk_rows, p, cells, start):
        with mock.patch.object(data, "_CSV_CHUNK_ROWS", chunk_rows):
            self.assert_saves_like_reference(tmp_path_factory, p, cells, start)

    @pytest.mark.parametrize("n_rows", [1, 1023, 1024, 1025, 2049])
    def test_repeated_values_at_chunk_edges(self, tmp_path_factory, n_rows):
        cells = np.random.default_rng(n_rows).choice(REPEATED_POOL, 4 * n_rows)
        self.assert_saves_like_reference(tmp_path_factory, 3, cells.tolist(), -n_rows)

    def test_synthetic_file_matches_reference(self, tmp_path):
        d, _ = generate_synthetic(SyntheticConfig(n_rows=3000))
        save_csv(d, tmp_path / "new.csv")
        reference_save_csv(d, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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

    @given(lines=st.lists(LINES, max_size=14), header_end=st.sampled_from(LINE_ENDS),
           final_newline=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_mixed_lines_match_reference_in_3_line_chunks(
        self, tmp_path_factory, lines, header_end, final_newline
    ):
        text = "timestamp,f0,f1,target" + header_end
        text += "".join(make(row_no) for row_no, make in enumerate(lines))
        if not final_newline:
            text = text.rstrip("\r\n")
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(data, "_CSV_CHUNK_ROWS", 3):
            assert_loads_like_reference(path)

    def test_quoted_line_break_across_chunks(self, tmp_path):
        # Chunk 2 (lines 4-6) ends inside row 6's quoted cell; the csv reader
        # reads from there, and row numbers count rows, not lines.
        lines = [f"{r},1.5,1.5,1.5\r\n" for r in range(5)]
        lines += ['5,"1.5\n', '",1.5,1.5\n', "6,2.5,2.5,2.5\n", "7,x,1.5,1.5\n"]
        path = tmp_path / "d.csv"
        path.write_text("timestamp,f0,f1,target\n" + "".join(lines), newline="")
        with mock.patch.object(data, "_CSV_CHUNK_ROWS", 3):
            kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and "row 8: cannot parse f0='x'" in message

    def test_long_and_short_row_with_equal_comma_total(self, tmp_path):
        path = csv_file(tmp_path / "d.csv", 6, {2: "1,1.5,1.5,1.5,1.5", 3: "2,1.5,1.5"})
        with mock.patch.object(data, "_CSV_CHUNK_ROWS", 3):
            kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and "row 2 has 5 cells, expected 4" in message

    def test_oversized_field_in_a_later_chunk(self, tmp_path):
        oversized = "1" * (csv.field_size_limit() + 1)
        path = csv_file(tmp_path / "d.csv", 12, {11: f"10,{oversized},1.5,2.0"})
        with mock.patch.object(data, "_CSV_CHUNK_ROWS", 3):
            kind, message = assert_loads_like_reference(path)
        assert kind is IngestError and "row 11: field larger than field limit" in message

    @pytest.mark.parametrize("line_end", LINE_ENDS)
    def test_plain_file_reads_no_data_row_with_the_csv_reader(self, tmp_path, line_end):
        d, _ = generate_synthetic(SyntheticConfig())
        path = tmp_path / "d.csv"
        save_csv(d, path)
        path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            loaded = load_csv(path)
        assert reader.call_count == 1  # the header's
        assert outcome(lambda *_: loaded, None, None) == outcome(lambda *_: d, None, None)

    def test_quoted_cell_hands_the_rest_to_the_csv_reader(self, tmp_path):
        d, _ = generate_synthetic(SyntheticConfig())
        path = tmp_path / "d.csv"
        save_csv(d, path)
        lines = path.read_text().splitlines(keepends=True)
        row = lines[1500].split(",")
        lines[1500] = ",".join([row[0], f'"{row[1]}"', *row[2:]])
        path.write_text("".join(lines))
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            loaded = load_csv(path)
        assert reader.call_count == 2
        assert outcome(lambda *_: loaded, None, None) == outcome(lambda *_: d, None, None)

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
    def test_timestamp_outside_int64_is_ingest_error(self, tmp_path, cell):
        path = csv_file(tmp_path / "d.csv", 300, {200: f"{cell},1.5,1.5,2.0"})
        with pytest.raises(IngestError, match=f"row 200: bad timestamp '{cell}'"):
            load_csv(path, small_schema())


class TestLoadIntoDatasetArrays:
    """load_csv counts the file's line breaks, sizes the dataset's arrays
    from them and parses each chunk straight into those arrays."""

    @pytest.fixture(scope="class")
    def year_file(self, tmp_path_factory):
        """A 100,000-row synth file with LF line endings."""
        d, _ = generate_synthetic(SyntheticConfig(n_rows=100_000, seed=1))
        path = tmp_path_factory.mktemp("year") / "d.csv"
        save_csv(d, path)
        return path

    def test_peak_is_the_arrays_plus_a_chunk(self, year_file):
        # Holding the parsed chunks and their concatenation at once peaks at
        # 2.1 times the arrays. At 20,000 rows a chunk's strings alone come
        # near 1.5 times, so the file is larger.
        loaded = load_csv(year_file)
        arrays = loaded.timestamps.nbytes + loaded.features.nbytes + loaded.target.nbytes
        assert traced_peak(load_csv, year_file) <= 1.5 * arrays

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_files_load_like_lf(self, year_file, tmp_path, end):
        # Counting the "\r" of each "\r\n" as a second break sized the
        # arrays of a CRLF file for 2n + 1 rows: 2.26 times its arrays.
        path = tmp_path / "d.csv"
        path.write_bytes(year_file.read_bytes().replace(b"\n", end.encode()))
        lf, loaded = load_csv(year_file), load_csv(path)
        assert loaded.n_rows == lf.n_rows == 100_000
        for name in ("timestamps", "features", "target"):
            assert getattr(loaded, name).tobytes() == getattr(lf, name).tobytes()
        arrays = loaded.timestamps.nbytes + loaded.features.nbytes + loaded.target.nbytes
        assert traced_peak(load_csv, path) <= 1.5 * arrays

    def test_line_breaks_count_a_crlf_pair_once(self, tmp_path):
        # A "\r\n", a "\n\r" or a "\r" ends at each power-of-two offset, so
        # some straddle the blocks the file is read in (the "\r\n" at 2**18
        # among them), and the last block is shorter than the one before it.
        text = bytearray(b"x" * ((1 << 19) + 1))
        for k in range(4, 20):
            text[(1 << k) - 1 : (1 << k) + 1] = [b"\r\n", b"\n\r", b"\rx"][k % 3]
        text += b"a\r\nb\rc\n\nd\r\r\n\r"
        path = tmp_path / "d.csv"
        path.write_bytes(bytes(text))
        # The line ends that csv and universal newlines see.
        assert data._line_breaks(path) == len(re.findall(rb"\r\n|\r|\n", text)) == 29

    def test_blank_lines_do_not_size_the_arrays(self, tmp_path):
        # A row of 1,002 cells takes 2,003 bytes, so 2,000,000 blank lines
        # (2 MB) bound the rows at 1,000, not at 2,000,000 (15 GiB of arrays).
        path = tmp_path / "d.csv"
        header = ["timestamp", *(f"f{i}" for i in range(1000)), "target"]
        path.write_text(",".join(header) + "\n" * 2_000_001)

        def load():
            with pytest.raises(IngestError, match="row 1 has 0 cells, expected 1002"):
                load_csv(path)

        assert traced_peak(load) < 50_000_000

    def test_rows_up_to_the_bound_load(self, tmp_path):
        path = csv_file(tmp_path / "d.csv", 3000)
        with mock.patch.object(data, "_line_breaks", return_value=3000):
            d = load_csv(path, small_schema())
        assert d.n_rows == 3000 and d.timestamps[-1] == 2999

    def test_rows_past_the_bound_are_ingest_error(self, tmp_path):
        # A file that gains rows between the count and the parse.
        path = csv_file(tmp_path / "d.csv", 3000)
        with mock.patch.object(data, "_line_breaks", return_value=2999):
            with pytest.raises(IngestError) as exc:
                load_csv(path, small_schema())
        assert str(exc.value) == f"{path}: file grew while it was read: more than 2999 rows"


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
        assert a.horizon_steps == h


class TestDatasetHorizon:
    """``Dataset.horizon_steps`` records how far each target lies past its
    row's timestamp: 0 as built or loaded, composed by ``align_horizon`` and
    kept by the row and target replacements."""

    def test_loaded_data_has_horizon_0(self, tmp_path):
        d = make_dataset(np.arange(10.0).reshape(5, 2), np.arange(5.0))
        save_csv(d, tmp_path / "d.csv")
        assert d.horizon_steps == load_csv(tmp_path / "d.csv").horizon_steps == 0

    def test_align_sets_and_composes_it(self):
        d = make_dataset(np.zeros((10, 2)), np.arange(10.0))
        assert align_horizon(d, 2).horizon_steps == 2
        twice = align_horizon(align_horizon(d, 2), 3)
        assert twice.horizon_steps == 5
        assert np.array_equal(twice.target, align_horizon(d, 5).target)

    def test_slice_and_with_target_keep_it(self):
        a = align_horizon(make_dataset(np.zeros((10, 2)), np.arange(10.0)), 3)
        assert a.slice_rows(1, 4).horizon_steps == 3
        assert a.with_target(np.zeros(a.n_rows)).horizon_steps == 3

    @pytest.mark.parametrize("h", [-1, 1.5, True])
    def test_refused_unless_an_integer_at_least_0(self, h):
        d = make_dataset(np.zeros((3, 2)), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgumentError, match="horizon_steps must be an integer >= 0"):
            replace(d, horizon_steps=h)


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
        assert np.array_equal(d.spot, d.features[:, SYNTHETIC_FEATURES.index("spot")])

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["noise_sd", "spike_scale"])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
            SyntheticConfig(**{name: value})

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


def reference_generate_synthetic(cfg):
    """generate_synthetic building its features from a forecast dict, the
    cyclical columns and one column_stack, with the array-stepping AR(1)."""
    n = cfg.n_rows
    rng = np.random.default_rng(cfg.seed)
    ts = np.arange(n, dtype=np.int64)
    hour = hour_of_day(ts)
    month = month_index(ts).astype(np.float64)

    def swell(period_days):
        return np.sin(2.0 * np.pi * ts / (QUARTERS_PER_DAY * period_days))

    spot = (
        40.0
        + 12.0 * np.sin(2.0 * np.pi * (hour - 8.5) / 24.0)
        + 7.0 * swell(2.7)
        + reference_ar1(rng, n, 0.97, 1.2)
    )
    consumption = (
        640.0
        + 120.0 * np.sin(2.0 * np.pi * (hour - 18.5) / 24.0)
        + 30.0 * swell(5.0)
        + reference_ar1(rng, n, 0.95, 5.0)
    )
    hydro = 320.0 + 55.0 * swell(3.3) + 25.0 * swell(1.37) + reference_ar1(rng, n, 0.97, 3.0)
    wind = np.maximum(0.0, 85.0 + 30.0 * swell(2.2) + reference_ar1(rng, n, 0.95, 6.0))
    temp = (
        8.0
        + 7.0 * np.sin(2.0 * np.pi * (hour - 15.0) / 24.0)
        + 3.0 * swell(4.1)
        + reference_ar1(rng, n, 0.97, 0.6)
    )
    heating = 3.0 * np.maximum(0.0, 16.0 - temp)

    spike_indicator = rng.random(n) < cfg.spike_prob
    spike_magnitude = cfg.spike_scale * (1.0 + rng.exponential(1.0, size=n))
    noise = rng.normal(0.0, cfg.noise_sd, size=n)

    base = spot + hydro_price_response(hydro) + heating_price_response(heating)
    target = base + np.where(spike_indicator, spike_magnitude, 0.0) + noise

    true_drivers = {
        "spot": spot,
        "consumption": consumption,
        "hydro": hydro,
        "wind": wind,
        "heating": heating,
    }
    forecast = {
        name: values + rng.normal(0.0, cfg.noise_sd, size=n)
        for name, values in true_drivers.items()
    }
    hour_sin, hour_cos = encode_cyclical(hour, 24.0)
    month_sin, month_cos = encode_cyclical(month, 12.0)
    columns = {
        **forecast,
        "hour_sin": hour_sin,
        "hour_cos": hour_cos,
        "month_sin": month_sin,
        "month_cos": month_cos,
    }
    features = np.column_stack([columns[name] for name in SYNTHETIC_FEATURES])
    dataset = Dataset(
        timestamps=ts, features=features, target=target, schema=synthetic_schema()
    )
    truth = SyntheticTruth(
        base_target=base,
        spike_indicator=spike_indicator,
        spike_magnitude=np.where(spike_indicator, spike_magnitude, 0.0),
        true_drivers=true_drivers,
        components=dict(SYNTHETIC_COMPONENTS),
    )
    return dataset, truth


def synthetic_arrays(dataset, truth):
    """Every array of a generated dataset and its truth, as bytes."""
    arrays = {
        "timestamps": dataset.timestamps,
        "features": dataset.features,
        "target": dataset.target,
        "base_target": truth.base_target,
        "spike_indicator": truth.spike_indicator,
        "spike_magnitude": truth.spike_magnitude,
        **{f"true_drivers[{name!r}]": a for name, a in truth.true_drivers.items()},
    }
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}


@pytest.mark.parametrize("n_rows", [1, 2, 97, 2000, 35040])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generate_synthetic_matches_reference(seed, n_rows):
    cfg = SyntheticConfig(n_rows=n_rows, seed=seed)
    dataset, truth = generate_synthetic(cfg)
    want_dataset, want_truth = reference_generate_synthetic(cfg)
    assert dataset.features.flags.c_contiguous
    assert dataset.schema == want_dataset.schema
    assert truth.components == want_truth.components
    assert synthetic_arrays(dataset, truth) == synthetic_arrays(want_dataset, want_truth)
