"""Cyclic-boosting additive model with per-feature shape functions.

The model is an intercept plus one piecewise-constant shape function per
feature, learned by round-robin boosting: every round visits the features in
schema order, fits a small tree over that feature's bin indices to the
current residuals, and adds a learning-rate fraction of the leaf means into
the shape. Shapes are mean-centered over the training set afterwards, with
the removed means folded into the intercept, so contributions are comparable
across features and the intercept is the training-mean prediction.

Explanations come straight from the structure: a local explanation is the
per-feature bin lookups themselves, and global importance is the mean
absolute contribution (MAC) of each shape over a dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, FeatureSchema, write_csv_lines
from .errors import InvalidArgumentError, SchemaError


@dataclass(frozen=True)
class EbmConfig:
    outer_rounds: int = 500
    learning_rate: float = 0.05
    max_bins: int = 256
    max_leaves_per_round: int = 3

    def __post_init__(self):
        if self.outer_rounds < 0:
            raise InvalidArgumentError(
                f"outer_rounds must be >= 0, got {self.outer_rounds}"
            )
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidArgumentError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.max_bins < 2:
            raise InvalidArgumentError(f"max_bins must be >= 2, got {self.max_bins}")
        if self.max_leaves_per_round < 1:
            raise InvalidArgumentError(
                f"max_leaves_per_round must be >= 1, got {self.max_leaves_per_round}"
            )


@dataclass(frozen=True, eq=False)
class BinMap:
    """Per-feature cut points plus the observed training range.

    Feature j has ``len(cuts[j]) + 1`` bins: (-inf, c0], (c0, c1], ...,
    (c_last, +inf). Values left of the first cut map to bin 0; values beyond
    the last cut map to the final bin, which is how out-of-range inputs clamp
    to the nearest edge.
    """

    cuts: tuple[np.ndarray, ...]
    vmin: tuple[float, ...]
    vmax: tuple[float, ...]

    def n_bins(self, j: int) -> int:
        return len(self.cuts[j]) + 1

    def bin_index(self, j: int, values) -> np.ndarray:
        return np.searchsorted(self.cuts[j], np.asarray(values, dtype=np.float64), side="left")


def build_bins(d: Dataset, max_bins: int) -> BinMap:
    """Quantile discretization of every feature column.

    A feature with fewer than ``max_bins`` distinct values gets one bin per
    distinct value (cuts at midpoints); otherwise cut points sit at the
    1/max_bins ... (max_bins-1)/max_bins quantiles, deduplicated.
    """
    if max_bins < 2:
        raise InvalidArgumentError(f"max_bins must be >= 2, got {max_bins}")
    if d.n_rows < 1:
        raise InvalidArgumentError("cannot bin an empty dataset")
    cuts: list[np.ndarray] = []
    vmin: list[float] = []
    vmax: list[float] = []
    for j in range(d.n_features):
        col = d.features[:, j]
        distinct = np.unique(col)
        if len(distinct) < max_bins:
            c = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            qs = np.arange(1, max_bins) / max_bins
            c = np.unique(np.quantile(col, qs))
            # A cut at the maximum would leave the top bin empty.
            c = c[c < distinct[-1]]
        cuts.append(np.asarray(c, dtype=np.float64))
        vmin.append(float(distinct[0]))
        vmax.append(float(distinct[-1]))
    return BinMap(cuts=tuple(cuts), vmin=tuple(vmin), vmax=tuple(vmax))


def bin_centers(bins: BinMap, j: int) -> np.ndarray:
    """Representative value per bin, using the training range for the edges."""
    edges = np.concatenate(([bins.vmin[j]], bins.cuts[j], [bins.vmax[j]]))
    return (edges[:-1] + edges[1:]) / 2.0


@dataclass(frozen=True, eq=False)
class ShapeFunction:
    """Additive contribution of one feature, one value per bin."""

    feature_index: int
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if not np.isfinite(v).all():
            raise InvalidArgumentError("shape values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class EbmModel:
    intercept: float
    shapes: tuple[ShapeFunction, ...]
    bins: BinMap
    schema: FeatureSchema
    config: EbmConfig
    train_mse: tuple[float, ...] = field(repr=False, default=())


def _fit_leaf_steps(count_cum: np.ndarray, sums: np.ndarray, max_leaves: int) -> np.ndarray:
    """Piecewise-constant residual step over bin indices.

    Greedy best-first segmentation of the bin axis into at most
    ``max_leaves`` contiguous leaves, each valued at its mean residual.
    Split candidates that would isolate an empty side are skipped, so edge
    bins without training rows always share a leaf with their nearest
    populated neighbor. Only a positive reduction splits; ties go to the
    first segment and split point, and a NaN candidate blocks its segment.

    Exactness: ``count_cum`` is ``[0, cumsum(counts)]`` of integer-valued
    counts, so its differences are exact. A segment's residual total is its
    pairwise ``sums[lo:hi].sum()`` and its left sums are its own ``cumsum``
    (``cumsum(sums)`` only from bin 0), never prefix differences.
    """
    sums_cum = np.cumsum(sums)

    def best_split(lo: int, hi: int) -> tuple[float, int] | None:
        # Splitting before bin ``at`` leaves rows on both sides exactly for
        # ``a <= at < b``, since ``count_cum`` never decreases.
        a = int(np.searchsorted(count_cum, count_cum[lo], side="right"))
        b = int(np.searchsorted(count_cum, count_cum[hi], side="left"))
        if a >= b:
            return None
        c_left = count_cum[a:b] - count_cum[lo]
        c_tot = count_cum[hi] - count_cum[lo]
        s_tot = sums[lo:hi].sum()
        s_left = sums_cum[a - 1:b - 1] if lo == 0 else np.cumsum(sums[lo:b - 1])[a - lo - 1:]
        red = s_left**2 / c_left + (s_tot - s_left) ** 2 / (c_tot - c_left) - s_tot**2 / c_tot
        k = int(np.argmax(red))
        return (float(red[k]), a + k) if red[k] > 0.0 else None

    segments = [(0, len(sums))]
    while len(segments) < max_leaves:
        best = None
        for i, (lo, hi) in enumerate(segments):
            split = best_split(lo, hi)
            if split is not None and (best is None or split[0] > best[0]):
                best = (*split, i)
        if best is None:
            break
        _, at, i = best
        segments[i:i + 1] = [(segments[i][0], at), (at, segments[i][1])]

    delta = np.zeros(len(sums))
    for lo, hi in segments:
        c_tot = count_cum[hi] - count_cum[lo]
        if c_tot > 0:
            delta[lo:hi] = sums[lo:hi].sum() / c_tot
    return delta


def ebm_train(d: Dataset, cfg: EbmConfig = EbmConfig()) -> EbmModel:
    """Round-robin cyclic boosting of per-feature shape functions.

    Residuals are recomputed before every feature step, so the training MSE
    is non-increasing across rounds; ``train_mse`` records it after the
    intercept and after each full round.
    """
    n = d.n_rows
    if n < 2:
        raise InvalidArgumentError(f"training needs n >= 2 rows, got {n}")
    p = d.n_features
    bins = build_bins(d, cfg.max_bins)
    bin_idx = [bins.bin_index(j, d.features[:, j]) for j in range(p)]
    counts = [
        np.bincount(bin_idx[j], minlength=bins.n_bins(j)).astype(np.float64)
        for j in range(p)
    ]
    count_cum = [np.concatenate(([0.0], np.cumsum(c))) for c in counts]
    y = d.target
    intercept = float(y.mean())
    pred = np.full(n, intercept)
    residual = np.empty(n)
    shape_values = [np.zeros(bins.n_bins(j)) for j in range(p)]
    mse = [float(np.mean((y - pred) ** 2))]
    for _ in range(cfg.outer_rounds):
        for j in range(p):
            np.subtract(y, pred, out=residual)
            sums = np.bincount(bin_idx[j], weights=residual, minlength=bins.n_bins(j))
            delta = _fit_leaf_steps(count_cum[j], sums, cfg.max_leaves_per_round)
            step = cfg.learning_rate * delta
            shape_values[j] += step
            pred += step[bin_idx[j]]
        mse.append(float(np.mean((y - pred) ** 2)))
    # Center each shape over the training rows; fold the means into the
    # intercept so training predictions are unchanged.
    for j in range(p):
        mean_j = float((counts[j] * shape_values[j]).sum() / n)
        shape_values[j] -= mean_j
        intercept += mean_j
    shapes = tuple(
        ShapeFunction(feature_index=j, values=shape_values[j]) for j in range(p)
    )
    return EbmModel(
        intercept=intercept,
        shapes=shapes,
        bins=bins,
        schema=d.schema,
        config=cfg,
        train_mse=tuple(mse),
    )


def ebm_predict(m: EbmModel, x) -> float:
    """Intercept plus the :func:`explain_local` contributions, added in
    schema order, so folding the explanation back onto the intercept
    reproduces this value bit for bit."""
    acc = m.intercept
    for _, contribution in explain_local(m, x):
        acc += contribution
    return float(acc)


def ebm_predict_batch(m: EbmModel, x: np.ndarray) -> np.ndarray:
    x = m.schema.check_features(x, 2)
    acc = np.full(x.shape[0], m.intercept)
    for j in range(len(m.schema)):
        acc += m.shapes[j].values[m.bins.bin_index(j, x[:, j])]
    return acc


def explain_local(m: EbmModel, x) -> list[tuple[str, float]]:
    """Per-feature additive contributions for one input row."""
    row = m.schema.check_features(x, 1)
    return [
        (name, float(m.shapes[j].values[int(m.bins.bin_index(j, row[j]))]))
        for j, name in enumerate(m.schema.names)
    ]


def global_importance(m: EbmModel, d: Dataset) -> list[tuple[str, float]]:
    """Mean absolute contribution per feature, ranked descending.

    Ties are broken by feature index so the ranking is deterministic.
    """
    if d.n_rows == 0:
        raise InvalidArgumentError("cannot rank importance on an empty dataset")
    if d.schema != m.schema:
        raise SchemaError("dataset schema does not match the model schema")
    macs = []
    for j in range(len(m.schema)):
        contrib = m.shapes[j].values[m.bins.bin_index(j, d.features[:, j])]
        macs.append((m.schema.names[j], float(np.mean(np.abs(contrib)))))
    order = sorted(range(len(macs)), key=lambda j: (-macs[j][1], j))
    return [macs[j] for j in order]


ShapeTable = list[tuple[float, float, float]]


def export_shapes(m: EbmModel) -> dict[str, ShapeTable]:
    """Per-feature (bin_lower, bin_upper, contribution) rows covering the
    whole real line; bin k is (lower, upper]."""
    tables: dict[str, ShapeTable] = {}
    for j, name in enumerate(m.schema.names):
        edges = np.concatenate(([-np.inf], m.bins.cuts[j], [np.inf]))
        tables[name] = [
            (float(edges[k]), float(edges[k + 1]), float(v))
            for k, v in enumerate(m.shapes[j].values)
        ]
    return tables


def save_global_explanation(m: EbmModel, d: Dataset, out) -> list[tuple[str, float]]:
    """Write ``importance.csv`` (the :func:`global_importance` ranking over
    ``d``) and ``shapes.csv`` (the :func:`export_shapes` tables) into the
    directory ``out``; returns the ranking."""
    out = Path(out)
    ranking = global_importance(m, d)
    write_csv_lines(
        out / "importance.csv",
        ["rank", "feature", "mac"],
        (f"{rank},{name},{mac!r}\n" for rank, (name, mac) in enumerate(ranking, start=1)),
    )
    write_csv_lines(
        out / "shapes.csv",
        ["feature", "bin_lower", "bin_upper", "contribution"],
        (
            f"{name},{lower!r},{upper!r},{contribution!r}\n"
            for name, table in export_shapes(m).items()
            for lower, upper, contribution in table
        ),
    )
    return ranking


def apply_shape_table(table: ShapeTable, value: float) -> float:
    """Look one value up in an exported shape table."""
    for lower, upper, contribution in table:
        if lower < value <= upper:
            return contribution
    return table[-1][2]
