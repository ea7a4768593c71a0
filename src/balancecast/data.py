"""Data substrate for balancing-market price forecasting experiments.

A dataset is a gap-free 15-minute grid of feature rows plus a price target.
Timestamps are integer quarter-hour indices counted from an arbitrary epoch,
which sidesteps timezone and calendar questions entirely. Ingestion is
CSV-only, and a file's header names its features; a seeded synthetic
generator stands in for real market data and exposes its ground-truth
component functions so attribution and shape recovery can be tested
against the data-generating process.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import (
    GridError, IngestError, InvalidArgumentError, SchemaError, Settings, check_bound, setting
)

QUARTERS_PER_HOUR = 4
QUARTERS_PER_DAY = 96
# 8-hour forecast horizon at 15-minute resolution.
DEFAULT_HORIZON_STEPS = 32


def encode_cyclical(value, period):
    """Map a periodic quantity onto the unit circle.

    Returns ``(sin(2*pi*value/period), cos(2*pi*value/period))``. Accepts
    scalars or numpy arrays for ``value``.
    """
    check_bound("period", period, 0, above=True)
    phase = 2.0 * np.pi * np.asarray(value, dtype=np.float64) / float(period)
    sin_c = np.sin(phase)
    cos_c = np.cos(phase)
    if np.ndim(value) == 0:
        return float(sin_c), float(cos_c)
    return sin_c, cos_c


def hour_of_day(quarters: np.ndarray) -> np.ndarray:
    """Fractional hour in [0, 24) for each quarter-hour index."""
    return (np.asarray(quarters) % QUARTERS_PER_DAY) / QUARTERS_PER_HOUR


def month_index(quarters: np.ndarray) -> np.ndarray:
    """Zero-based month in [0, 12), using fixed 30-day synthetic months."""
    return (np.asarray(quarters) // QUARTERS_PER_DAY // 30) % 12


@dataclass(frozen=True)
class FeatureSchema:
    """Unique feature names, in the order of a dataset's columns (the CSV
    header between ``timestamp`` and ``target``, which no feature may be
    named)."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise SchemaError("feature names must be unique")
        for name in self.names:
            if type(name) is not str or _csv_quotes(name):
                raise SchemaError(f"feature name {name!r} is not text that csv writes unquoted")
            if name in ("timestamp", "target"):
                raise SchemaError(f"feature name {name!r} is taken by a column of the CSV header")
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate
                raise SchemaError(f"feature name {name!r} is not UTF-8 text") from None

    def __len__(self) -> int:
        return len(self.names)

    def check_features(self, x, ndim: int) -> np.ndarray:
        """``x`` as float64: one feature row (``ndim`` 1) or a matrix of rows (2)."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != ndim or a.shape[-1] != len(self):
            raise SchemaError(
                f"expected {ndim}-D features with {len(self)} columns, got shape {a.shape}"
            )
        return a

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"no feature named {name!r} among {list(self.names)}") from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix, target vector, and quarter-hour timestamps.

    Invariants enforced at construction: equal row counts everywhere, no
    non-finite values, and strictly consecutive timestamps (a gap-free
    grid). The spot price, where a harness needs it, is the feature named
    ``spot``. Each target is the price realized ``horizon_steps`` (an
    integer >= 0) quarters after its row's timestamp: 0 as loaded, and what
    ``align_horizon`` adds. It is the one record of the forecast horizon.
    """

    timestamps: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)
    schema: FeatureSchema
    horizon_steps: int = 0

    def __post_init__(self):
        check_bound("horizon_steps", self.horizon_steps, 0, integer=True)
        ts = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        x = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.target, dtype=np.float64)
        if x.ndim != 2:
            raise InvalidArgumentError("features must be a 2-D matrix")
        n, p = x.shape
        if ts.ndim != 1 or y.ndim != 1 or len(ts) != n or len(y) != n:
            raise InvalidArgumentError(
                f"row counts differ: {len(ts)} timestamps, {n} feature rows, "
                f"{len(y)} targets"
            )
        if p != len(self.schema):
            raise SchemaError(
                f"feature matrix has {p} columns but schema lists {len(self.schema)}"
            )
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise InvalidArgumentError("features and target must be finite")
        if n > 1:
            step = np.diff(ts)
            if (step <= 0).any():
                raise GridError("timestamps must be strictly increasing")
            if (step != 1).any():
                bad = int(np.argmax(step != 1))
                raise GridError(
                    f"timestamp grid has a gap after quarter {int(ts[bad])}"
                )
        for arr in (ts, x, y):
            arr.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "target", y)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def spot(self) -> np.ndarray:
        """The ``spot`` feature column; SchemaError if there is none."""
        return self.features[:, self.schema.index_of("spot")]

    def slice_rows(self, start: int, stop: int) -> "Dataset":
        """Contiguous row window as a new Dataset (grid stays gap-free, horizon kept)."""
        return replace(
            self,
            timestamps=self.timestamps[start:stop],
            features=self.features[start:stop],
            target=self.target[start:stop],
        )

    def with_target(self, target: np.ndarray) -> "Dataset":
        """Same rows, features and horizon with a replacement target vector."""
        return replace(self, target=target)


def align_horizon(d: Dataset, horizon_steps: int) -> Dataset:
    """Pair each feature row with the target ``horizon_steps`` quarters later.

    Row i of the result carries the features observed at timestamp t_i and
    the price realized at t_(i+h), which is the supervised layout for an
    h-step-ahead forecaster. The trailing h rows are dropped, and h is added
    to the horizon ``d`` already has: aligning by 2 and then by 3 gives 5.
    """
    check_bound("horizon_steps", horizon_steps, 1, integer=True)
    if horizon_steps >= d.n_rows:
        raise InvalidArgumentError(
            f"horizon_steps={horizon_steps} must be smaller than n={d.n_rows}"
        )
    h = int(horizon_steps)
    return replace(
        d, timestamps=d.timestamps[:-h], features=d.features[:-h], target=d.target[h:],
        horizon_steps=d.horizon_steps + h,
    )


# ---------------------------------------------------------------------------
# CSV and JSON files
# ---------------------------------------------------------------------------


# Rows that load_csv parses and write_csv formats at a time: each holds one
# chunk's lines and cells, never the whole file's. load_csv parses each chunk
# into the dataset's own arrays, so its peak is those arrays plus one chunk.
_CSV_CHUNK_ROWS = 1024


def _expected_header(schema: FeatureSchema) -> list[str]:
    return ["timestamp", *schema.names, "target"]


def _csv_quotes(name: str) -> bool:
    """Whether csv must quote ``name``: it is empty or holds a comma, a quote
    or a "\n" (csv quotes those), or a "\r" (a line break to the csv reader)."""
    return csv_line([name], "\r\n") != name + "\r\n"


def csv_line(cells, end: str = "\n") -> str:
    """One csv line of ``cells`` ending in ``end``, quoted where csv needs it:
    csv also quotes a cell that holds a character of ``end``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator=end).writerow(cells)
    return buf.getvalue()


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as ``json.dumps(payload, allow_nan=False)``
    plus a newline: one line, floats in their shortest repr, so a reload
    reproduces them exactly. The whole text is encoded before the file is
    opened, so a NaN or an infinity raises ValueError and leaves any file
    already at ``path`` as it was."""
    text = json.dumps(payload, allow_nan=False) + "\n"
    Path(path).write_text(text, newline="")


def read_json_object(path, error: type, what: str) -> dict:
    """The JSON object that the file at ``path`` holds. A file that is not
    UTF-8 JSON, is nested too deeply or holds another value raises ``error``
    with a message that names it as ``what``; opening it may raise OSError."""
    with Path(path).open("r") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise error(f"{what} {path} is nested too deeply") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise error(f"{what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return doc


def _cells(col, rows: slice) -> list[str]:
    """The cells of ``col[rows]`` as :func:`write_csv` formats them."""
    part = col[rows]
    if not isinstance(part, np.ndarray):
        # Lines that end in "\r\n" make csv quote a bare "\r" too, as _csv_quotes does.
        quoted = {v: csv_line([v, ""], "\r\n")[:-3] for v in set(part) if isinstance(v, str)}
        return [quoted[v] if isinstance(v, str) else "" if v is None else str(v) for v in part]
    if part.dtype.kind != "f":
        return list(map(str, part.tolist()))
    # Bit patterns as keys keep 0.0 and -0.0 apart.
    keys, cell_of = np.unique(part.view(np.int64), return_inverse=True)
    cells = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return cells[cell_of].tolist()


def write_csv(path, header: list[str], columns) -> None:
    """Write the csv ``header`` row, then one row per index of the equally
    long ``columns``, ``_CSV_CHUNK_ROWS`` rows at a time. The one cell format
    of every CSV file: an integer array's cells are ``str(int)``; a float64
    array's are the ``repr`` of each value, so a reload reproduces it bit for
    bit, and each distinct value (``0.0`` and ``-0.0`` count as two) is
    formatted once per chunk. Any other column is a sequence of cells: a
    string as given, quoted only where csv quotes it in a row of two or more
    cells or where it holds a "\r"; None as an empty cell; a number as
    ``str(value)``, a float's repr."""
    n_rows = len(columns[0]) if columns else 0

    def chunk(lo: int) -> str:
        cols = [_cells(col, slice(lo, lo + _CSV_CHUNK_ROWS)) for col in columns]
        return "\n".join(map(",".join, zip(*cols))) + "\n"

    with Path(path).open("w", newline="") as fh:
        fh.write(csv_line(header))
        fh.writelines(map(chunk, range(0, n_rows, _CSV_CHUNK_ROWS)))


def save_csv(d: Dataset, path) -> None:
    """Write ``timestamp,<features...>,target`` rows with :func:`write_csv`."""
    write_csv(path, _expected_header(d.schema), [d.timestamps, *d.features.T, d.target])


def _parse_cells(path, header: list[str], stamps: list[str], values, rows, first_row_no: int):
    """(int64 timestamps, float64 ``(len(stamps), len(header) - 1)`` values)
    of consecutive data rows: ``stamps`` holds their timestamp cells and
    ``values`` their other cells, row by row. A malformed cell raises the
    IngestError of the first malformed row of ``rows()``, the same rows as
    lists of cells, the first being data row ``first_row_no``."""
    n = len(stamps)
    try:
        timestamps = np.fromiter(map(int, stamps), np.int64, n)
        block = np.fromiter(map(float, values), np.float64, n * (len(header) - 1))
        if np.isfinite(block).all():
            return timestamps, block.reshape(n, -1)
    except (ValueError, OverflowError):
        pass
    _raise_first_error(path, header, rows(), first_row_no)


def _plain_cells(lines: list[str], commas: int) -> list[str] | None:
    """The cells of ``lines`` split at every comma, each row's last cell
    keeping its line ending; None unless the csv reader would read each
    line as one row of the same cells (no quote or NUL, ``commas`` commas
    per line, no line over the field size limit)."""
    text = ",".join(lines)
    if (
        '"' in text
        or "\0" in text
        or set(map(str.count, lines, itertools.repeat(","))) != {commas}
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    return text.split(",")


def _read_rows(path, fh, header: list[str]):
    """The (timestamps, values) chunks of the data rows of ``fh``, whose
    header row is read. Chunks of lines that split at every comma into rows
    of ``len(header)`` cells are split directly; from the first chunk that
    does not, the csv reader reads the rest of the file. Both give the same
    rows, row numbers and errors."""
    k = len(header)
    row_no = 1
    while True:
        lines = list(itertools.islice(fh, _CSV_CHUNK_ROWS))
        if not lines:
            return
        cells = _plain_cells(lines, k - 1)
        if cells is None:
            break
        stamps = cells[::k]
        del cells[::k]
        yield _parse_cells(
            path, header, stamps, cells,
            lambda: [line.rstrip("\r\n").split(",") for line in lines], row_no,
        )
        row_no += len(lines)
    reader = csv.reader(itertools.chain(lines, fh))
    while True:
        rows: list[list[str]] = []
        try:
            rows.extend(itertools.islice(reader, _CSV_CHUNK_ROWS))
        except csv.Error as exc:
            # A malformed row read before the unreadable one is reported first.
            _raise_first_error(path, header, rows, row_no)
            raise IngestError(f"{path}: row {row_no + len(rows)}: {exc}") from None
        if not rows:
            return
        if any(len(row) != k for row in rows):
            _raise_first_error(path, header, rows, row_no)
        cells = itertools.chain.from_iterable([row[1:] for row in rows])
        yield _parse_cells(path, header, [row[0] for row in rows], cells, lambda: rows, row_no)
        row_no += len(rows)


def _raise_first_error(path, header: list[str], rows, first_row_no: int) -> None:
    """Raise the IngestError of the first malformed row in ``rows``, checking
    one cell at a time; ``rows[0]`` is data row ``first_row_no``."""
    for row_no, row in enumerate(rows, start=first_row_no):
        if len(row) != len(header):
            raise IngestError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        try:
            np.int64(int(row[0]))
        except (ValueError, OverflowError):
            raise IngestError(
                f"{path}: row {row_no}: bad timestamp {row[0]!r}"
            ) from None
        for name, cell in zip(header[1:], row[1:]):
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


def _line_breaks(path) -> int:
    """How many line breaks ("\n", "\r\n" or a "\r" alone) the file at
    ``path`` holds, read 64 KiB at a time: a row takes at least one line, so
    this bounds the data rows."""
    block = bytearray(1 << 16)
    codes = np.frombuffer(block, np.uint8)
    breaks, cr_ended = 0, False
    with Path(path).open("rb") as fh:
        while size := fh.readinto(block):
            breaks += int(np.count_nonzero(codes[:size] == 10))
            if block.find(b"\r", 0, size) >= 0:  # a memchr, cheaper than a count
                breaks += int(np.count_nonzero(codes[:size] == 13))
                breaks -= block.count(b"\r\n", 0, size)
            if cr_ended and block[0] == 10:  # a "\r\n" split between two blocks
                breaks -= 1
            cr_ended = block[size - 1] == 13
    return breaks


def _header_schema(path, header: list[str]) -> FeatureSchema:
    """The schema of a ``timestamp,<features...>,target`` header of unique
    names that csv writes unquoted; any other header raises SchemaError."""
    if len(header) < 3 or header[0] != "timestamp" or header[-1] != "target":
        raise SchemaError(
            f"{path}: header {header!r} is not timestamp,<features...>,target"
        )
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: header {header!r} repeats a name")
    for name in header:
        if _csv_quotes(name):
            raise SchemaError(f"{path}: header {header!r} has a name csv must quote: {name!r}")
    return FeatureSchema(tuple(header[1:-1]))


def load_csv(path, schema: FeatureSchema | None = None) -> Dataset:
    """Read a dataset CSV, sort rows by timestamp, and validate the grid.

    Without a ``schema`` the header defines the features: it must read
    ``timestamp,<features...>,target`` with at least one feature, no name
    twice and no name that csv would quote, else SchemaError. With one it
    must be exactly ``timestamp,<schema names...>,target``. Cells that fail
    to parse (bytes that are not UTF-8 among them), or parse to non-finite
    values, timestamps outside int64 and rows the csv reader rejects (a
    field over its size limit) raise IngestError with the 1-based data row
    number, or naming the header; so does a file that grows as it is read.
    """
    path = Path(path)
    # Undecodable bytes become lone surrogates, which no number parses, so
    # they fail in the row that holds them.
    with path.open("r", newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise IngestError(f"{path}: header: {exc}") from None
        try:
            ",".join(header).encode()
        except UnicodeEncodeError:
            raise IngestError(f"{path}: header is not UTF-8 text") from None
        if schema is None:
            schema = _header_schema(path, header)
        expected = _expected_header(schema)
        for col in expected:
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")
        if header != expected:
            raise SchemaError(
                f"{path}: header {header!r} does not match expected {expected!r}"
            )
        p = len(schema)
        # Rows that parse take a line each and 2k - 1 bytes: k cells, none empty, k - 1 commas.
        bound = min(_line_breaks(path), path.stat().st_size // (2 * len(expected) - 1))
        timestamps, target = np.empty(bound, np.int64), np.empty(bound)
        features = np.empty((bound, p))
        n = 0
        for stamps, block in _read_rows(path, fh, expected):
            end = n + len(stamps)
            if end > bound:
                raise IngestError(f"{path}: file grew while it was read: more than {bound} rows")
            timestamps[n:end], features[n:end], target[n:end] = stamps, block[:, :p], block[:, p]
            n = end
    # The rows past n were never written, so their pages hold no memory.
    timestamps, features, target = timestamps[:n], features[:n], target[:n]
    step = np.diff(timestamps)
    if (step <= 0).any():
        order = np.argsort(timestamps, kind="stable")
        timestamps, features, target = timestamps[order], features[order], target[order]
        step = np.diff(timestamps)
    if (step == 0).any():
        dup = int(timestamps[int(np.argmax(step == 0))])
        raise GridError(f"{path}: duplicate timestamp {dup}")
    if (step != 1).any():
        after = int(timestamps[int(np.argmax(step != 1))])
        raise GridError(f"{path}: timestamp gap after quarter {after}")
    return Dataset(timestamps=timestamps, features=features, target=target, schema=schema)


# ---------------------------------------------------------------------------
# Synthetic balancing-market generator
# ---------------------------------------------------------------------------

SYNTHETIC_FEATURES = (
    "spot",
    "consumption",
    "hydro",
    "wind",
    "heating",
    "hour_sin",
    "hour_cos",
    "month_sin",
    "month_cos",
)
# Deterministic target recipe: target = spot + hydro_response(hydro)
#   + heating_response(heating) + spike + Gaussian(0, noise_sd).
HEATING_COEF = 0.4
HYDRO_RAMP_START = 330.0
HYDRO_RAMP_WIDTH = 100.0
HYDRO_RAMP_LEVEL = -24.0


def hydro_price_response(hydro) -> np.ndarray:
    """Saturating ramp: zero below the ramp start, then a linear descent to
    HYDRO_RAMP_LEVEL once production exceeds start + width."""
    h = np.asarray(hydro, dtype=np.float64)
    return HYDRO_RAMP_LEVEL * np.clip((h - HYDRO_RAMP_START) / HYDRO_RAMP_WIDTH, 0.0, 1.0)


def heating_price_response(heating) -> np.ndarray:
    return HEATING_COEF * np.asarray(heating, dtype=np.float64)


def spot_price_response(spot) -> np.ndarray:
    return np.asarray(spot, dtype=np.float64)


def _zero_response(values) -> np.ndarray:
    return np.zeros_like(np.asarray(values, dtype=np.float64))


SYNTHETIC_COMPONENTS: Mapping[str, Callable[[np.ndarray], np.ndarray]] = {
    name: {
        "spot": spot_price_response,
        "hydro": hydro_price_response,
        "heating": heating_price_response,
    }.get(name, _zero_response)
    for name in SYNTHETIC_FEATURES
}


@dataclass(frozen=True)
class SyntheticConfig(Settings):
    """Knobs for the synthetic generator; fully deterministic given seed."""

    n_rows: int = setting(2000, low=1)
    seed: int = setting(42, low=0)
    noise_sd: float = setting(2.0, low=0)
    spike_prob: float = setting(0.02, low=0, high=1)
    spike_scale: float = setting(60.0, low=0, above=True)


@dataclass(frozen=True, eq=False)
class SyntheticTruth:
    """Ground truth emitted next to a synthetic Dataset.

    ``base_target`` is the deterministic spot-anchored part (no spikes, no
    noise) evaluated on the true drivers. ``components`` maps each feature
    name to its additive contribution function; nuisance features map to the
    zero function.
    """

    base_target: np.ndarray = field(repr=False)
    spike_indicator: np.ndarray = field(repr=False)
    spike_magnitude: np.ndarray = field(repr=False)
    true_drivers: dict[str, np.ndarray] = field(repr=False)
    components: dict[str, Callable[[np.ndarray], np.ndarray]] = field(repr=False)


def synthetic_schema() -> FeatureSchema:
    return FeatureSchema(SYNTHETIC_FEATURES)


def _ar1(rng: np.random.Generator, n: int, rho: float, sd: float) -> np.ndarray:
    """Stationary AR(1) path with innovation scale sd."""
    stationary_sd = sd / np.sqrt(1.0 - rho * rho)
    innovations = rng.normal(0.0, sd, size=n)

    def path(x: float):
        # Python floats: the same IEEE operations as on numpy scalars, far faster.
        yield x
        for e in memoryview(innovations[1:]):
            x = rho * x + e
            yield x

    return np.fromiter(path(rng.normal(0.0, stationary_sd)), np.float64, n)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, SyntheticTruth]:
    """Generate a seeded synthetic balancing-market series.

    True drivers combine a daily cycle, a slower multi-day swell with an
    incommensurate period, and a fast AR(1) term. The deterministic cycles
    guarantee that every driver sweeps its full range inside a desk-scale
    series regardless of seed, so expanding-window splits stay stationary:

    * spot        = 40 + 12 sin(2pi (hour - 8.5)/24) + 7 swell(2.7 d)
                    + AR(rho=.97, sd=1.2)
    * consumption = 640 + 120 sin(2pi (hour - 18.5)/24) + 30 swell(5.0 d)
                    + AR(.95, 5)
    * hydro       = 320 + 55 swell(3.3 d) + 25 swell(1.37 d) + AR(.97, 3)
    * wind        = max(0, 85 + 30 swell(2.2 d) + AR(.95, 6))
    * heating     = 3 max(0, 16 - temp), temp = 8 + 7 sin(2pi (hour - 15)/24)
                    + 3 swell(4.1 d) + AR(.97, 0.6)

    target = spot + hydro_price_response(hydro) + heating_price_response(heating)
             + spike + Gaussian(0, noise_sd), where a spike fires with
    probability spike_prob and magnitude spike_scale * (1 + Exp(1)).

    The emitted feature columns are forecast stand-ins: each driver is
    perturbed by Gaussian(0, noise_sd) noise so that test-time inputs are
    imperfect previews of the truth, while cyclical columns are exact. With
    noise_sd = 0 the features equal the true drivers and the target equals
    the deterministic recipe above exactly.
    """
    n = cfg.n_rows
    rng = np.random.default_rng(cfg.seed)
    ts = np.arange(n, dtype=np.int64)
    hour = hour_of_day(ts)
    month = month_index(ts).astype(np.float64)

    def swell(period_days: float) -> np.ndarray:
        return np.sin(2.0 * np.pi * ts / (QUARTERS_PER_DAY * period_days))

    spot = (
        40.0
        + 12.0 * np.sin(2.0 * np.pi * (hour - 8.5) / 24.0)
        + 7.0 * swell(2.7)
        + _ar1(rng, n, 0.97, 1.2)
    )
    consumption = (
        640.0
        + 120.0 * np.sin(2.0 * np.pi * (hour - 18.5) / 24.0)
        + 30.0 * swell(5.0)
        + _ar1(rng, n, 0.95, 5.0)
    )
    hydro = 320.0 + 55.0 * swell(3.3) + 25.0 * swell(1.37) + _ar1(rng, n, 0.97, 3.0)
    wind = np.maximum(0.0, 85.0 + 30.0 * swell(2.2) + _ar1(rng, n, 0.95, 6.0))
    temp = (
        8.0
        + 7.0 * np.sin(2.0 * np.pi * (hour - 15.0) / 24.0)
        + 3.0 * swell(4.1)
        + _ar1(rng, n, 0.97, 0.6)
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
    features = np.empty((n, len(SYNTHETIC_FEATURES)))
    column = dict(zip(SYNTHETIC_FEATURES, features.T))
    # Forecast copies of each driver, in the fixed order above.
    for name, values in true_drivers.items():
        np.add(values, rng.normal(0.0, cfg.noise_sd, size=n), out=column[name])
    column["hour_sin"][:], column["hour_cos"][:] = encode_cyclical(hour, 24.0)
    column["month_sin"][:], column["month_cos"][:] = encode_cyclical(month, 12.0)
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


def truth_table(
    truth: SyntheticTruth, d: Dataset, n_points: int = 101
) -> dict[str, list[tuple[float, float]]]:
    """Sample each feature's true contribution on a grid over its range."""
    table: dict[str, list[tuple[float, float]]] = {}
    for j, name in enumerate(d.schema.names):
        col = d.features[:, j]
        grid = np.linspace(float(col.min()), float(col.max()), n_points)
        contrib = truth.components[name](grid)
        table[name] = [(float(v), float(c)) for v, c in zip(grid, contrib)]
    return table


def save_truth_json(truth: SyntheticTruth, d: Dataset, path) -> None:
    """Write the ground-truth sidecar: feature -> (input, contribution) pairs."""
    payload = {
        name: [[v, c] for v, c in pairs]
        for name, pairs in truth_table(truth, d).items()
    }
    write_json(path, payload)
