"""Gradient-boosted regression trees with second-order split gain.

Squared-error loss only, in the 1/2 (y - yhat)^2 convention, so every
per-sample Hessian is exactly 1 and a node's Hessian sum H is its row count.
Split search is exact greedy: candidate thresholds are the midpoints between
consecutive distinct sorted feature values, scored by the regularized gain

    1/2 [ G_L^2/(H_L + lambda) + G_R^2/(H_R + lambda)
          - (G_L + G_R)^2/(H_L + H_R + lambda) ] - gamma

and leaf weights are the closed-form optimum -G/(H + lambda). Ties are
broken by lowest feature index, then lowest threshold, which makes training
deterministic and invariant to row order.

Every feature is sorted once per training run, the column-block layout of
XGBoost (Chen & Guestrin, KDD 2016). A node keeps its rows in that sorted
order, one row of a (features x rows) block per feature, and a split
partitions the block stably instead of sorting again. A feature constant
among a node's rows has no candidate there or below, so its block row is
dropped. Each node scores the rest at once with gradient prefix sums along
the rows; the Hessian sums on either side of a candidate are row counts, so
``min_child_weight`` is a range of candidate positions, and a child that
must be a leaf (at max_depth, or one row) gets no blocks. Splits and batch
predictions read each feature as one contiguous row of x.T."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, FeatureSchema
from .errors import DegenerateLeafError, InvalidArgumentError


@dataclass(frozen=True)
class GbtConfig:
    """Boosting hyperparameters; all bounds validated at construction."""

    n_trees: int = 300
    learning_rate: float = 0.1
    gamma: float = 0.0
    reg_lambda: float = 1.0
    max_depth: int = 6
    min_child_weight: float = 1.0

    def __post_init__(self):
        if self.n_trees < 0:
            raise InvalidArgumentError(f"n_trees must be >= 0, got {self.n_trees}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidArgumentError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.max_depth < 1:
            raise InvalidArgumentError(f"max_depth must be >= 1, got {self.max_depth}")
        for name in ("gamma", "reg_lambda", "min_child_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {value}")


def _score(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    # A side with zero regularized Hessian mass, or so little that the score
    # overflows, contributes nothing.
    denom = h_sum + reg_lambda
    score = 0.0 if denom == 0.0 else g_sum * g_sum / denom
    return score if math.isfinite(score) else 0.0


def split_gain(
    g_left: float,
    h_left: float,
    g_right: float,
    h_right: float,
    reg_lambda: float,
    gamma: float,
) -> float:
    """Improvement in the regularized objective from one binary split."""
    return 0.5 * (
        _score(g_left, h_left, reg_lambda)
        + _score(g_right, h_right, reg_lambda)
        - _score(g_left + g_right, h_left + h_right, reg_lambda)
    ) - gamma


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Closed-form optimal leaf output -G/(H + lambda)."""
    denom = h_sum + reg_lambda
    if denom <= 0.0:
        raise DegenerateLeafError(
            f"leaf weight undefined: H + lambda = {denom}"
        )
    return -g_sum / denom


@dataclass(frozen=True)
class TreeNode:
    """One node of a regression tree; a node is a leaf iff weight is set."""

    weight: float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def predict_row(self, x) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.weight


def _tree_predict_batch(node: TreeNode, cols: np.ndarray, out: np.ndarray, idx: np.ndarray) -> None:
    # cols[f] is feature f of every row: row f of x.T, contiguous.
    if node.is_leaf:
        out[idx] = node.weight
        return
    mask = cols[node.feature][idx] <= node.threshold
    _tree_predict_batch(node.left, cols, out, idx[mask])
    _tree_predict_batch(node.right, cols, out, idx[~mask])


def tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Leaf outputs for every row of a feature matrix."""
    out = np.empty(x.shape[0])
    _tree_predict_batch(node, np.ascontiguousarray(x.T), out, np.arange(x.shape[0]))
    return out


def _fit_constants(x: np.ndarray, reg_lambda: float) -> tuple:
    """What every tree fitted on ``x`` shares: ``x.T`` made contiguous; the
    root's block, that is the schema indices of the features that are not
    constant and per such feature its row order (ties by row index) and
    sorted values, one row each; and the denominators for _best_split, the
    counts 1 .. n-1 plus lambda ascending and descending."""
    cols = np.ascontiguousarray(x.T)
    order = np.argsort(cols, axis=1, kind="stable")
    values = np.take_along_axis(cols, order, axis=1)
    live = values[:, 0] != values[:, -1]
    counts = np.arange(1.0, x.shape[0])
    denoms = (counts + reg_lambda, counts[::-1] + reg_lambda)
    return cols, (np.flatnonzero(live), order[live], values[live]), denoms


def _best_split(g, block, g_total: float, cfg: GbtConfig, denoms) -> tuple[float, int, float] | None:
    """Highest-gain (gain, feature, midpoint) candidate for one node, or None.

    ``block`` holds the schema indices of the features that are not constant
    among the node's m rows, and per feature the rows in sorted order and
    their values. Every feature is scored in one pass: the gradient prefix
    sums run along each row, so each candidate's gain is the one a
    per-feature scan would compute. The candidate after k rows has Hessian
    sums k and m - k, whose denominators are entries of ``denoms``; it is
    kept iff both reach ``min_child_weight``, that is iff
    ``least <= k <= m - least`` with ``least`` its ceiling (at least 1). A
    feature with no candidate in that range is skipped.
    """
    features, order, values = block
    m = order.shape[1]
    least = max(1, math.ceil(cfg.min_child_weight))
    # Columns lo .. hi-1 are the candidates after least .. m-least rows.
    lo, hi = least - 1, m - least
    if lo >= hi:
        return None
    g_left = g[order[:, :hi]].cumsum(axis=1)[:, lo:]
    g_right = g_total - g_left
    invalid = values[:, lo:hi] == values[:, lo + 1 : hi + 1]
    # In place, but in the order of 0.5 * (score_l + score_r - parent) - gamma.
    left_den, right_den = denoms
    gains = g_left
    gains *= g_left
    gains /= left_den[lo:hi]
    g_right *= g_right
    g_right /= right_den[right_den.size - hi : right_den.size - lo]
    gains += g_right
    gains -= _score(g_total, float(m), cfg.reg_lambda)
    gains *= 0.5
    if cfg.gamma:  # x - 0.0 == x for every x
        gains -= cfg.gamma
    np.putmask(gains, invalid, -np.inf)
    # A row's max is the gain at its argmax, NaN if it holds one.
    top = gains.max(axis=1).tolist()
    # A feature that is not constant has a candidate in the full range, so
    # only a narrower one can leave it none. Such a feature is skipped, not
    # scored -inf: a NaN gain met first must still block every later feature.
    scored = range(len(top)) if least == 1 else np.flatnonzero(~invalid.all(axis=1)).tolist()
    best = None
    for j in scored:
        if best is None or top[j] > top[best]:
            best = j
    if best is None:
        return None
    # Midpoint thresholds ascend along a row, so argmax lands on the lowest
    # threshold among equal gains within a feature.
    k = lo + int(gains[best].argmax())
    a, b = values[best, k : k + 2].tolist()
    return top[best], int(features[best]), 0.5 * (a + b)


def _child_block(block, keep: np.ndarray):
    """The block of the rows where ``keep`` (raveled like the block) holds,
    without the features that are constant among them."""
    features, order, values = block
    pos = keep.nonzero()[0]  # one nonzero serves both gathers
    order = order.ravel()[pos].reshape(features.size, -1)
    values = values.ravel()[pos].reshape(features.size, -1)
    live = values[:, 0] != values[:, -1]
    return (features, order, values) if live.all() else (features[live], order[live], values[live])


def _grow_tree(cols, block, denoms, g, cfg: GbtConfig, out: np.ndarray) -> TreeNode:
    """Grow one tree depth-first and write each row's leaf weight into ``out``.

    The first three arguments come from _fit_constants. A node holds its rows
    in ascending order (``idx``, which fixes the summation order of its
    gradient total) and as a block. A split partitions the block stably, so
    no node sorts again, and drops the features constant in a child.
    """
    # side[i] tells whether row i goes left at the split being made; a node
    # reads only the entries of its own rows.
    side = np.empty(cols.shape[1], dtype=bool)

    def grow(idx: np.ndarray, block, depth: int) -> TreeNode:
        g_total = float(g[idx].sum())
        best = None
        if depth < cfg.max_depth and idx.size >= 2 and block[0].size:
            best = _best_split(g, block, g_total, cfg, denoms)
        if best is None or best[0] <= 0.0:
            weight = leaf_weight(g_total, float(idx.size), cfg.reg_lambda)
            out[idx] = weight
            return TreeNode(weight=weight)
        _, feature, threshold = best
        mask = cols[feature][idx] <= threshold
        children = (idx[mask], idx[~mask])
        # A child at max_depth or with one row is a leaf and gets no block.
        splits = [depth + 1 < cfg.max_depth and rows.size >= 2 for rows in children]
        blocks = [None, None]
        if any(splits):
            side[idx] = mask
            sel = side[block[1]].ravel()
            blocks = [_child_block(block, keep) if s else None for s, keep in zip(splits, (sel, ~sel))]
        left, right = [grow(rows, b, depth + 1) for rows, b in zip(children, blocks)]
        return TreeNode(feature=feature, threshold=threshold, left=left, right=right)

    return grow(np.arange(cols.shape[1]), block, 0)


def fit_tree(d: Dataset, g, cfg: GbtConfig) -> TreeNode:
    """Grow one regression tree on per-sample squared-loss gradients ``g``
    (every Hessian is 1)."""
    g = np.asarray(g, dtype=np.float64)
    if d.n_rows == 0 or len(g) == 0:
        raise InvalidArgumentError("cannot fit a tree on an empty dataset")
    if len(g) != d.n_rows:
        raise InvalidArgumentError(f"{len(g)} gradients for {d.n_rows} rows")
    return _grow_tree(*_fit_constants(d.features, cfg.reg_lambda), g, cfg, np.empty(d.n_rows))


@dataclass(frozen=True, eq=False)
class GbtModel:
    """Trained ensemble: base score plus shrunken tree outputs.

    ``train_mse`` records the training mean squared error after the base
    score and after each added tree (length n_trees + 1).
    """

    trees: tuple[TreeNode, ...]
    base_score: float
    config: GbtConfig
    schema: FeatureSchema
    train_mse: tuple[float, ...] = field(repr=False, default=())


def gbt_train(d: Dataset, cfg: GbtConfig = GbtConfig()) -> GbtModel:
    """Boost ``cfg.n_trees`` trees against the running squared-loss gradient."""
    n = d.n_rows
    if n < 2:
        raise InvalidArgumentError(f"training needs n >= 2 rows, got {n}")
    y = d.target
    base = float(y.mean())
    pred = np.full(n, base)
    mse = [float(np.mean((y - pred) ** 2))]
    trees: list[TreeNode] = []
    g = np.empty(n)
    # Features never change across trees: build what they share once.
    fit = _fit_constants(d.features, cfg.reg_lambda)
    leaf_out = np.empty(n)
    for _ in range(cfg.n_trees):
        np.subtract(pred, y, out=g)
        trees.append(_grow_tree(*fit, g, cfg, leaf_out))
        pred = pred + cfg.learning_rate * leaf_out
        mse.append(float(np.mean((y - pred) ** 2)))
    return GbtModel(
        trees=tuple(trees),
        base_score=base,
        config=cfg,
        schema=d.schema,
        train_mse=tuple(mse),
    )


def gbt_predict(m: GbtModel, x) -> float:
    """base_score plus the learning-rate-scaled sum of tree outputs."""
    # Python floats compare and add as numpy scalars do, only faster.
    row = m.schema.check_features(x, 1).tolist()
    acc = m.base_score
    for tree in m.trees:
        acc += m.config.learning_rate * tree.predict_row(row)
    return float(acc)


def gbt_predict_batch(m: GbtModel, x: np.ndarray) -> np.ndarray:
    x = m.schema.check_features(x, 2)
    cols, rows, out = np.ascontiguousarray(x.T), np.arange(x.shape[0]), np.empty(x.shape[0])
    acc = np.full(x.shape[0], m.base_score)
    for tree in m.trees:
        _tree_predict_batch(tree, cols, out, rows)
        acc += m.config.learning_rate * out
    return acc
