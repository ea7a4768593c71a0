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
"""

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


def _best_split(
    x: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray, cfg: GbtConfig
) -> tuple[float, int, float] | None:
    """Highest-gain (feature, midpoint) candidate for the rows in ``idx``.

    Candidates where either child's Hessian sum falls below
    ``min_child_weight`` are skipped. Returns None when no candidate exists.
    """
    g_total = float(g[idx].sum())
    h_total = float(h[idx].sum())
    parent = _score(g_total, h_total, cfg.reg_lambda)
    best: tuple[float, int, float] | None = None
    for j in range(x.shape[1]):
        values = x[idx, j]
        order = np.argsort(values, kind="stable")
        vs = values[order]
        boundary = np.nonzero(vs[:-1] != vs[1:])[0]
        if boundary.size == 0:
            continue
        gs = np.cumsum(g[idx][order])
        hs = np.cumsum(h[idx][order])
        g_left = gs[boundary]
        h_left = hs[boundary]
        g_right = g_total - g_left
        h_right = h_total - h_left
        valid = (h_left >= cfg.min_child_weight) & (h_right >= cfg.min_child_weight)
        if not valid.any():
            continue
        denom_l = h_left + cfg.reg_lambda
        denom_r = h_right + cfg.reg_lambda
        score_l = np.divide(g_left * g_left, denom_l, out=np.zeros_like(denom_l), where=denom_l != 0)
        score_r = np.divide(g_right * g_right, denom_r, out=np.zeros_like(denom_r), where=denom_r != 0)
        gains = 0.5 * (score_l + score_r - parent) - cfg.gamma
        gains[~valid] = -np.inf
        k = int(np.argmax(gains))
        gain = float(gains[k])
        # Midpoint thresholds ascend with k, so argmax already lands on the
        # lowest threshold among equal gains within a feature.
        if best is None or gain > best[0]:
            b = boundary[k]
            best = (gain, j, float(0.5 * (vs[b] + vs[b + 1])))
    return best


def _grow(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    depth: int,
    cfg: GbtConfig,
) -> TreeNode:
    def leaf() -> TreeNode:
        return TreeNode(
            weight=leaf_weight(float(g[idx].sum()), float(h[idx].sum()), cfg.reg_lambda)
        )

    if depth >= cfg.max_depth or idx.size < 2:
        return leaf()
    best = _best_split(x, g, h, idx, cfg)
    if best is None or best[0] <= 0.0:
        return leaf()
    _, feature, threshold = best
    mask = x[idx, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow(x, g, h, idx[mask], depth + 1, cfg),
        right=_grow(x, g, h, idx[~mask], depth + 1, cfg),
    )


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
    return _grow(d.features, g, h, np.arange(d.n_rows), 0, cfg)


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
    idx = np.arange(n)
    for _ in range(cfg.n_trees):
        np.subtract(pred, y, out=g)
        root = _grow(d.features, g, h, idx, 0, cfg)
        trees.append(root)
        pred = pred + cfg.learning_rate * tree_predict(root, d.features)
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
