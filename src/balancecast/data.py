"""Data substrate for balancing-market price forecasting experiments.

A dataset is a gap-free 15-minute grid of feature rows plus a price target.
Timestamps are integer quarter-hour indices counted from an arbitrary epoch,
which sidesteps timezone and calendar questions entirely. Ingestion is
CSV-only; a seeded synthetic generator stands in for real market data and
exposes its ground-truth component functions so attribution and shape
recovery can be tested against the data-generating process.
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

from .errors import GridError, IngestError, InvalidArgumentError, SchemaError

CONTINUOUS = "continuous"
CYCLICAL = "cyclical-derived"
_VALID_KINDS = (CONTINUOUS, CYCLICAL)

QUARTERS_PER_HOUR = 4
QUARTERS_PER_DAY = 96
# 8-hour forecast horizon at 15-minute resolution.
DEFAULT_HORIZON_STEPS = 32


def encode_cyclical(value, period):
    """Map a periodic quantity onto the unit circle.

    Returns ``(sin(2*pi*value/period), cos(2*pi*value/period))``. Accepts
    scalars or numpy arrays for ``value``.
    """
    if not np.isscalar(period) or period <= 0:
        raise InvalidArgumentError(f"period must be a positive scalar, got {period!r}")
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
    """Ordered feature names with a continuous/cyclical tag per column."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if len(self.names) != len(self.kinds):
            raise SchemaError(
                f"{len(self.names)} names but {len(self.kinds)} kind tags"
            )
        if len(set(self.names)) != len(self.names):
            raise SchemaError("feature names must be unique")
        for name, kind in zip(self.names, self.kinds):
            if kind not in _VALID_KINDS:
                raise SchemaError(f"unknown kind {kind!r} for feature {name!r}")

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
            raise SchemaError(f"unknown feature {name!r}") from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix, target vector, and quarter-hour timestamps.

    Invariants enforced at construction: equal row counts everywhere, no
    non-finite values, a valid spot-price column, and strictly consecutive
    timestamps (a gap-free grid).
    """

    timestamps: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)
    schema: FeatureSchema
    spot_column: int = 0

    def __post_init__(self):
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
        if not 0 <= self.spot_column < p:
            raise InvalidArgumentError(
                f"spot_column {self.spot_column} out of range for {p} features"
            )
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
        return self.features[:, self.spot_column]

    def slice_rows(self, start: int, stop: int) -> "Dataset":
        """Contiguous row window as a new Dataset (grid stays gap-free)."""
        return replace(
            self,
            timestamps=self.timestamps[start:stop],
            features=self.features[start:stop],
            target=self.target[start:stop],
        )

    def with_target(self, target: np.ndarray) -> "Dataset":
        """Same rows and features with a replacement target vector."""
        return replace(self, target=target)


def align_horizon(d: Dataset, horizon_steps: int) -> Dataset:
    """Pair each feature row with the target ``horizon_steps`` quarters later.

    Row i of the result carries the features observed at timestamp t_i and
    the price realized at t_(i+h), which is the supervised layout for an
    h-step-ahead forecaster. The trailing h rows are dropped.
    """
    if not isinstance(horizon_steps, (int, np.integer)) or horizon_steps < 1:
        raise InvalidArgumentError(
            f"horizon_steps must be a positive integer, got {horizon_steps!r}"
        )
    if horizon_steps >= d.n_rows:
        raise InvalidArgumentError(
            f"horizon_steps={horizon_steps} must be smaller than n={d.n_rows}"
        )
    h = int(horizon_steps)
    return replace(
        d, timestamps=d.timestamps[:-h], features=d.features[:-h], target=d.target[h:]
    )


# ---------------------------------------------------------------------------
# CSV and JSON files
# ---------------------------------------------------------------------------


# Rows that load_csv parses at a time: it holds one chunk's cells, never the
# whole file's.
_CSV_CHUNK_ROWS = 4096


def _expected_header(schema: FeatureSchema) -> list[str]:
    return ["timestamp", *schema.names, "target"]


def csv_line(cells) -> str:
    """One csv line of ``cells``, quoted where csv needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def write_csv_lines(path, header: list[str], lines) -> None:
    """Write the csv ``header`` row, then the already formatted ``lines``
    (each string one or more whole lines)."""
    with Path(path).open("w", newline="") as fh:
        fh.write(csv_line(header))
        fh.writelines(lines)


def write_json(path, payload) -> None:
    """``payload`` as indented JSON plus a trailing newline; floats keep
    their shortest repr, so a reload reproduces them exactly."""
    with Path(path).open("w", newline="") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def save_csv(d: Dataset, path) -> None:
    """Write ``timestamp,<features...>,target`` rows; floats via repr so a
    reload reproduces every value exactly. Rows are formatted
    ``_CSV_CHUNK_ROWS`` at a time, so memory stays bounded."""

    def chunk(lo: int) -> str:
        rows = slice(lo, lo + _CSV_CHUNK_ROWS)
        cells = zip(d.timestamps[rows].tolist(), d.features[rows].tolist(), d.target[rows].tolist())
        return "".join([f"{t},{','.join(map(repr, x))},{y!r}\n" for t, x, y in cells])

    chunks = map(chunk, range(0, d.n_rows, _CSV_CHUNK_ROWS))
    write_csv_lines(path, _expected_header(d.schema), chunks)


def _parse_chunk(path, header: list[str], rows: list[list[str]], first_row_no: int):
    """(int64 timestamps, float64 ``(rows, len(header) - 1)`` values) of a
    chunk of csv rows whose first is data row ``first_row_no``; a malformed
    row raises the IngestError of the first one."""
    try:
        if all(len(row) == len(header) for row in rows):
            stamps = np.array(list(map(int, [row[0] for row in rows])), dtype=np.int64)
            cells = itertools.chain.from_iterable([row[1:] for row in rows])
            values = np.array(list(map(float, cells))).reshape(len(rows), -1)
            if np.isfinite(values).all():
                return stamps, values
    except (ValueError, OverflowError):
        pass
    _raise_first_error(path, header, rows, first_row_no)


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


def load_csv(path, schema: FeatureSchema) -> Dataset:
    """Read a dataset CSV, sort rows by timestamp, and validate the grid.

    The header must be exactly ``timestamp,<schema names...>,target``. Cells
    that fail to parse (bytes that are not UTF-8 among them), or parse to
    non-finite values, timestamps outside int64 and rows the csv reader
    rejects (a field over its size limit) raise IngestError with the 1-based
    data row number, or naming the header. The spot column is the feature
    named ``spot`` if present, else column 0.
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
        expected = _expected_header(schema)
        for col in expected:
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")
        if header != expected:
            raise SchemaError(
                f"{path}: header {header!r} does not match expected {expected!r}"
            )
        p = len(schema)
        chunks = [(np.empty(0, dtype=np.int64), np.empty((0, p + 1)))]
        row_no = 1
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, _CSV_CHUNK_ROWS))
            except csv.Error as exc:
                # A malformed row read before the unreadable one is reported first.
                _raise_first_error(path, expected, rows, row_no)
                raise IngestError(f"{path}: row {row_no + len(rows)}: {exc}") from None
            if not rows:
                break
            chunks.append(_parse_chunk(path, expected, rows, row_no))
            row_no += len(rows)

    timestamps = np.concatenate([stamps for stamps, _ in chunks])
    order = np.argsort(timestamps, kind="stable")
    timestamps = timestamps[order]
    if len(timestamps) > 1:
        step = np.diff(timestamps)
        if (step == 0).any():
            dup = int(timestamps[int(np.argmax(step == 0))])
            raise GridError(f"{path}: duplicate timestamp {dup}")
        if (step != 1).any():
            after = int(timestamps[int(np.argmax(step != 1))])
            raise GridError(f"{path}: timestamp gap after quarter {after}")
    values = np.concatenate([values for _, values in chunks])[order]
    return Dataset(
        timestamps=timestamps,
        features=values[:, :p],
        target=values[:, p],
        schema=schema,
        spot_column=schema.names.index("spot") if "spot" in schema.names else 0,
    )


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
class SyntheticConfig:
    """Knobs for the synthetic generator; fully deterministic given seed."""

    n_rows: int = 2000
    seed: int = 42
    noise_sd: float = 2.0
    spike_prob: float = 0.02
    spike_scale: float = 60.0

    def __post_init__(self):
        if self.n_rows < 1:
            raise InvalidArgumentError(f"n_rows must be >= 1, got {self.n_rows}")
        if self.noise_sd < 0:
            raise InvalidArgumentError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise InvalidArgumentError(
                f"spike_prob must be in [0, 1], got {self.spike_prob}"
            )
        if self.spike_scale <= 0:
            raise InvalidArgumentError(
                f"spike_scale must be > 0, got {self.spike_scale}"
            )


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
    kinds = tuple(
        CYCLICAL if name.endswith(("_sin", "_cos")) else CONTINUOUS
        for name in SYNTHETIC_FEATURES
    )
    return FeatureSchema(names=SYNTHETIC_FEATURES, kinds=kinds)


def _ar1(rng: np.random.Generator, n: int, rho: float, sd: float) -> np.ndarray:
    """Stationary AR(1) path with innovation scale sd."""
    stationary_sd = sd / np.sqrt(1.0 - rho * rho)
    innovations = rng.normal(0.0, sd, size=n).tolist()
    # Python floats: the same IEEE operations as on numpy scalars, far faster.
    x = [rng.normal(0.0, stationary_sd)]
    for e in innovations[1:]:
        x.append(rho * x[-1] + e)
    return np.array(x)


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
    # Forecast copies of each driver, in the fixed order above.
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
    schema = synthetic_schema()
    dataset = Dataset(
        timestamps=ts,
        features=features,
        target=target,
        schema=schema,
        spot_column=SYNTHETIC_FEATURES.index("spot"),
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
