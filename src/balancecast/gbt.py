"""Gradient-boosted regression trees with second-order split gain.

Squared-error loss in the 1/2 (y - yhat)^2 convention, so every per-sample
Hessian is exactly 1. Split search is exact greedy: candidate thresholds are
the midpoints between consecutive distinct sorted feature values, scored by
the regularized gain

    1/2 [ G_L^2/(H_L + lambda) + G_R^2/(H_R + lambda)
          - (G_L + G_R)^2/(H_L + H_R + lambda) ] - gamma

and leaf weights are the closed-form optimum -G/(H + lambda). Ties are
broken by lowest feature index, then lowest threshold, which makes training
deterministic and invariant to row order.

Every feature is sorted once per training run, the column-block layout of
XGBoost (Chen & Guestrin, KDD 2016). A node keeps its rows in that sorted
order, one row of a (features x rows) block per feature, and a split
partitions the block stably instead of sorting again. Each node then scores
all features at once with prefix sums along the block's rows. With unit
Hessians, as squared loss gives, the Hessian prefix sums are just row counts,
and a child that must be a leaf (at max_depth, or one row) gets no blocks."""

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
        if self.gamma < 0:
            raise InvalidArgumentError(f"gamma must be >= 0, got {self.gamma}")
        if self.reg_lambda < 0:
            raise InvalidArgumentError(
                f"reg_lambda must be >= 0, got {self.reg_lambda}"
            )
        if self.max_depth < 1:
            raise InvalidArgumentError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_child_weight < 0:
            raise InvalidArgumentError(
                f"min_child_weight must be >= 0, got {self.min_child_weight}"
            )


def _score(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    # A side with zero regularized Hessian mass, or so little that the score
    # overflows, contributes nothing.
    denom = h_sum + reg_lambda
    score = 0.0 if denom == 0.0 else g_sum * g_sum / denom
    return score if math.isfinite(score) else 0.0


def _scores(g_sum: np.ndarray, h_sum: np.ndarray, reg_lambda: float) -> np.ndarray:
    # Elementwise _score for candidate children, without its overflow guard.
    denom = h_sum + reg_lambda
    return np.divide(g_sum * g_sum, denom, out=np.zeros_like(denom), where=denom != 0)


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

    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.n_leaves() + self.right.n_leaves()

    def predict_row(self, x: np.ndarray) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.weight


def _tree_predict_batch(node: TreeNode, x: np.ndarray, out: np.ndarray, idx: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.weight
        return
    mask = x[idx, node.feature] <= node.threshold
    _tree_predict_batch(node.left, x, out, idx[mask])
    _tree_predict_batch(node.right, x, out, idx[~mask])


def tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Leaf outputs for every row of a feature matrix."""
    out = np.empty(x.shape[0])
    _tree_predict_batch(node, x, out, np.arange(x.shape[0]))
    return out


def _presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature row order (ties by row index) and the sorted values, (p, n) each."""
    order = np.argsort(x.T, axis=1, kind="stable")
    return order, np.take_along_axis(x.T, order, axis=1)


def _best_split(
    g: np.ndarray,
    h: np.ndarray | None,
    order: np.ndarray,
    values: np.ndarray,
    g_total: float,
    h_total: float,
    cfg: GbtConfig,
) -> tuple[float, int, float] | None:
    """Highest-gain (feature, midpoint) candidate for one node.

    ``order`` holds the node's rows sorted by each feature and ``values`` the
    matching feature values, one row per feature. Every feature is scored in
    one pass: the prefix sums run along each row, so each candidate's gain is
    the one a per-feature scan would compute. Candidates where either child's
    Hessian sum falls below ``min_child_weight`` are skipped, and so is a
    feature with no candidate left. Returns None when no candidate exists.
    ``h`` is None when every Hessian is 1: its prefix sums are then the row
    counts 1 .. m-1, exact and shared by all features, and no denominator is 0.
    """
    g_left = np.cumsum(g[order], axis=1)[:, :-1]
    g_right = g_total - g_left
    if h is None:
        h_left = np.arange(1.0, order.shape[1])
    else:
        h_left = np.cumsum(h[order], axis=1)[:, :-1]
    h_right = h_total - h_left
    valid = values[:, :-1] != values[:, 1:]
    valid &= (h_left >= cfg.min_child_weight) & (h_right >= cfg.min_child_weight)
    # In place, but in the order of 0.5 * (score_l + score_r - parent) - gamma.
    if h is None:
        gains = g_left * g_left / (h_left + cfg.reg_lambda)
        gains += g_right * g_right / (h_right + cfg.reg_lambda)
    else:
        gains = _scores(g_left, h_left, cfg.reg_lambda)
        gains += _scores(g_right, h_right, cfg.reg_lambda)
    gains -= _score(g_total, h_total, cfg.reg_lambda)
    gains *= 0.5
    gains -= cfg.gamma
    gains[~valid] = -np.inf
    # Midpoint thresholds ascend along a row, so argmax lands on the lowest
    # threshold among equal gains within a feature.
    features = np.arange(order.shape[0])
    k = gains.argmax(axis=1)
    thresholds = 0.5 * (values[features, k] + values[features, k + 1])
    best: tuple[float, int, float] | None = None
    # A feature without a valid candidate is skipped, not scored -inf: a
    # NaN gain met first must still block every later feature.
    for j, (ok, gain, threshold) in enumerate(
        zip(valid.any(axis=1).tolist(), gains[features, k].tolist(), thresholds.tolist())
    ):
        if ok and (best is None or gain > best[0]):
            best = (gain, j, threshold)
    return best


def _grow_tree(
    x: np.ndarray,
    presorted: tuple[np.ndarray, np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    cfg: GbtConfig,
    out: np.ndarray,
) -> TreeNode:
    """Grow one tree depth-first and write each row's leaf weight into ``out``.

    A node holds its rows in ascending order (``idx``, which fixes the
    summation order of its totals) and, per feature, in sorted order. A
    split partitions the sorted blocks stably, so no node sorts again.
    """
    p = x.shape[1]
    # Partial sums of ones are exact integers, so with unit Hessians a
    # node's Hessian sum is its row count, and _best_split gets None.
    hess = None if (h == 1.0).all() else h
    # side[i] tells whether row i goes left at the split being made; a node
    # reads only the entries of its own rows.
    side = np.empty(x.shape[0], dtype=bool)

    def grow(idx: np.ndarray, order, values, depth: int) -> TreeNode:
        g_total = float(g[idx].sum())
        h_total = float(idx.size) if hess is None else float(h[idx].sum())
        best = None
        if depth < cfg.max_depth and idx.size >= 2:
            best = _best_split(g, hess, order, values, g_total, h_total, cfg)
        if best is None or best[0] <= 0.0:
            weight = leaf_weight(g_total, h_total, cfg.reg_lambda)
            out[idx] = weight
            return TreeNode(weight=weight)
        _, feature, threshold = best
        mask = x[idx, feature] <= threshold
        children = (idx[mask], idx[~mask])
        # A child at max_depth or with one row is a leaf and gets no blocks.
        splits = [depth + 1 < cfg.max_depth and rows.size >= 2 for rows in children]
        blocks = [(None, None), (None, None)]
        if any(splits):
            side[idx] = mask
            sel = side[order]
            for i, keep in enumerate((sel, ~sel)):
                if splits[i]:
                    blocks[i] = (order[keep].reshape(p, -1), values[keep].reshape(p, -1))
        left, right = [grow(rows, *b, depth + 1) for rows, b in zip(children, blocks)]
        return TreeNode(feature=feature, threshold=threshold, left=left, right=right)

    return grow(np.arange(x.shape[0]), *presorted, 0)


def fit_tree(d: Dataset, g, h, cfg: GbtConfig) -> TreeNode:
    """Grow one regression tree on per-sample gradients ``g`` and Hessians ``h``."""
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if d.n_rows == 0 or len(g) == 0:
        raise InvalidArgumentError("cannot fit a tree on an empty dataset")
    if len(g) != d.n_rows or len(h) != d.n_rows:
        raise InvalidArgumentError(
            f"{len(g)} gradients and {len(h)} Hessians for {d.n_rows} rows"
        )
    x = d.features
    return _grow_tree(x, _presort(x), g, h, cfg, np.empty(d.n_rows))


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
    h = np.ones(n)
    # Features never change across trees: sort them once.
    presorted = _presort(d.features)
    leaf_out = np.empty(n)
    for _ in range(cfg.n_trees):
        np.subtract(pred, y, out=g)
        trees.append(_grow_tree(d.features, presorted, g, h, cfg, leaf_out))
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
    row = m.schema.check_features(x, 1)
    acc = m.base_score
    for tree in m.trees:
        acc += m.config.learning_rate * tree.predict_row(row)
    return float(acc)


def gbt_predict_batch(m: GbtModel, x: np.ndarray) -> np.ndarray:
    x = m.schema.check_features(x, 2)
    acc = np.full(x.shape[0], m.base_score)
    for tree in m.trees:
        acc += m.config.learning_rate * tree_predict(tree, x)
    return acc
