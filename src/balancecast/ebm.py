"""Cyclic-boosting additive model with per-feature shape functions.

The model is an intercept plus one piecewise-constant shape function per
feature, learned by round-robin boosting: every round visits the features in
schema order, fits a small tree over that feature's bin indices to the
current residuals, and adds a learning-rate fraction of the leaf means into
the shape. The tree's split search reads the feature's :class:`SplitPlan`,
built once per fit from its bin counts. Shapes are mean-centered over the
training set afterwards, with the removed means folded into the intercept,
so contributions are comparable across features and the intercept is the
training-mean prediction.

Explanations come straight from the structure: a local explanation is the
per-feature bin lookups themselves, and global importance is the mean
absolute contribution (MAC) of each shape over a dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import Dataset, FeatureSchema, write_csv
from .errors import InvalidArgumentError, SchemaError, Settings, check_bound, setting


@dataclass(frozen=True)
class EbmConfig(Settings):
    outer_rounds: int = setting(500, low=0)
    learning_rate: float = setting(0.05, low=0, high=1, above=True)
    max_bins: int = setting(256, low=2)
    max_leaves_per_round: int = setting(3, low=1)


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
    check_bound("max_bins", max_bins, 2, integer=True)
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
            c = np.where(np.isfinite(c), c, distinct[:-1])  # the lower value if a sum overflows
        else:
            qs = np.arange(1, max_bins) / max_bins
            c = np.unique(np.quantile(col, qs))
            # A cut at the maximum would leave the top bin empty, and one
            # below the minimum (an interpolation that overflows) the bottom.
            c = c[(distinct[0] <= c) & (c < distinct[-1])]
        cuts.append(np.asarray(c, dtype=np.float64))
        vmin.append(float(distinct[0]))
        vmax.append(float(distinct[-1]))
    return BinMap(cuts=tuple(cuts), vmin=tuple(vmin), vmax=tuple(vmax))


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


class SplitPlan(NamedTuple):
    """What a feature's bin counts fix for every boosting step of a fit.

    ``count_cum`` is ``[0, cumsum(counts)]``. Splitting before bin ``at``
    leaves rows on both sides of segment ``[lo, hi)`` exactly for
    ``first[lo] <= at < stop[hi]``, since ``count_cum`` never decreases.
    ``rest`` is ``count_cum[-1] - count_cum``: the right-hand counts of the
    splits of a segment that ends at the last bin, as ``count_cum`` holds
    the left-hand counts of one that starts at bin 0.
    """

    count_cum: np.ndarray
    rest: np.ndarray
    first: list
    stop: list


def split_plan(counts: np.ndarray) -> SplitPlan:
    count_cum = np.concatenate(([0.0], np.cumsum(counts)))
    return SplitPlan(
        count_cum=count_cum,
        rest=count_cum[-1] - count_cum,
        first=np.searchsorted(count_cum, count_cum, side="right").tolist(),
        stop=np.searchsorted(count_cum, count_cum, side="left").tolist(),
    )


def _fit_leaf_steps(plan: SplitPlan, sums: np.ndarray, max_leaves: int) -> np.ndarray:
    """Piecewise-constant residual step over bin indices.

    Greedy best-first segmentation of the bin axis into at most
    ``max_leaves`` contiguous leaves, each valued at its mean residual.
    Split candidates that would isolate an empty side are skipped, so edge
    bins without training rows always share a leaf with their nearest
    populated neighbor. Only a positive reduction splits; ties go to the
    first segment and split point, and a NaN candidate blocks its segment.
    A segment's best split is searched once, when it first competes.

    Exactness: counts are integer-valued, so every count difference is
    exact whichever ``plan`` array it is read from. A segment's residual
    total is its pairwise ``sums[lo:hi].sum()`` and its left sums are its
    own ``cumsum`` (``cumsum(sums)`` only from bin 0), never prefix
    differences.
    """
    count_cum, rest, first, stop = plan
    n_bins = len(sums)
    sums_cum = np.add.accumulate(sums)

    def best_split(lo: int, hi: int, s_tot) -> tuple[float, int] | None:
        a, b = first[lo], stop[hi]
        if a >= b:
            return None
        if lo == 0:
            s_left = sums_cum[a - 1:b - 1]
            c_left = count_cum[a:b]
        else:
            s_left = np.add.accumulate(sums[lo:b - 1])[a - lo - 1:]
            c_left = count_cum[a:b] - count_cum[lo]
        # s_left**2 / c_left + (s_tot - s_left)**2 / c_right - s_tot**2 / c_tot
        red = np.square(s_left)
        red /= c_left
        right = s_tot - s_left
        np.square(right, out=right)
        right /= rest[a:b] if hi == n_bins else count_cum[hi] - count_cum[a:b]
        red += right
        red -= s_tot**2 / (count_cum[hi] - count_cum[lo])
        k = red.argmax()
        return (red[k], a + k) if red[k] > 0.0 else None

    segments = [(0, n_bins, np.add.reduce(sums))]  # (lo, hi, residual total)
    splits = [False]  # each segment's best split; False until searched
    while len(segments) < max_leaves:
        best = None
        for i, split in enumerate(splits):
            if split is False:
                split = splits[i] = best_split(*segments[i])
            if split is not None and (best is None or split[0] > best[0]):
                best, at_i = split, i
        if best is None:
            break
        lo, hi, _ = segments[at_i]
        at = best[1]
        segments[at_i:at_i + 1] = [
            (lo, at, np.add.reduce(sums[lo:at])), (at, hi, np.add.reduce(sums[at:hi]))
        ]
        splits[at_i:at_i + 1] = [False, False]

    delta = np.zeros(n_bins)
    for lo, hi, s_tot in segments:
        c_tot = count_cum[hi] - count_cum[lo]
        if c_tot > 0:
            delta[lo:hi] = s_tot / c_tot
    return delta


def ebm_train(d: Dataset, cfg: EbmConfig = EbmConfig()) -> EbmModel:
    """Round-robin cyclic boosting of per-feature shape functions.

    Residuals are recomputed before every feature step, so the training MSE
    is non-increasing across rounds; ``train_mse`` records it after the
    intercept and after each full round. Each feature's :class:`SplitPlan`
    is built once, from its bin counts, and serves all of its steps.
    """
    n = d.n_rows
    if n < 2:
        raise InvalidArgumentError(f"training needs n >= 2 rows, got {n}")
    p = d.n_features
    bins = build_bins(d, cfg.max_bins)
    n_bins = [bins.n_bins(j) for j in range(p)]
    bin_idx = [bins.bin_index(j, d.features[:, j]) for j in range(p)]
    counts = [np.bincount(bin_idx[j], minlength=n_bins[j]).astype(np.float64) for j in range(p)]
    plans = [split_plan(c) for c in counts]
    y = d.target
    intercept = float(y.mean())
    pred = np.full(n, intercept)
    residual = np.empty(n)

    def round_mse() -> float:
        np.subtract(y, pred, out=residual)
        return float(np.mean(np.square(residual, out=residual)))

    shape_values = [np.zeros(n_bins[j]) for j in range(p)]
    mse = [round_mse()]
    for _ in range(cfg.outer_rounds):
        for j in range(p):
            np.subtract(y, pred, out=residual)
            sums = np.bincount(bin_idx[j], weights=residual, minlength=n_bins[j])
            step = _fit_leaf_steps(plans[j], sums, cfg.max_leaves_per_round)
            step *= cfg.learning_rate
            shape_values[j] += step
            pred += step[bin_idx[j]]
        mse.append(round_mse())
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
    names, macs = zip(*ranking)
    ranks = range(1, len(names) + 1)
    write_csv(out / "importance.csv", ["rank", "feature", "mac"], [ranks, names, macs])
    shapes = [(name, *row) for name, table in export_shapes(m).items() for row in table]
    header = ["feature", "bin_lower", "bin_upper", "contribution"]
    write_csv(out / "shapes.csv", header, list(zip(*shapes)))
    return ranking

