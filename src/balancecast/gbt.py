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
the rows, over every column of its contiguous block; the Hessian sums on
either side of a candidate are row counts, so ``min_child_weight`` is a
range of candidate positions, and one mask drops ties and the columns
outside it. A child that must be a leaf (at max_depth, or one row) gets no
blocks. Splits read each feature as one contiguous row of x.T. Batch
prediction reads the columns of x in place, holds one tree's layout at a
time and scores each tree of at most 64 leaves by bitvectors over
per-feature threshold codes (QuickScorer), in row-sized scratch arrays
allocated once per call; a larger tree partitions its rows first."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import and_
from typing import NamedTuple

import numpy as np

from .data import Dataset, FeatureSchema
from .errors import DegenerateLeafError, InvalidArgumentError, Settings, setting


@dataclass(frozen=True)
class GbtConfig(Settings):
    """Boosting hyperparameters; all bounds validated at construction."""

    n_trees: int = setting(300, low=0)
    learning_rate: float = setting(0.1, low=0, high=1, above=True)
    gamma: float = setting(0.0, low=0)
    reg_lambda: float = setting(1.0, low=0)
    max_depth: int = setting(6, low=1)
    min_child_weight: float = setting(1.0, low=0)


def _score(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    # A side with zero regularized Hessian mass, or so little that the score
    # overflows, contributes nothing.
    denom = h_sum + reg_lambda
    score = 0.0 if denom == 0.0 else g_sum * g_sum / denom
    return score if math.isfinite(score) else 0.0


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Closed-form optimal leaf output -G/(H + lambda)."""
    denom = h_sum + reg_lambda
    if denom <= 0.0:
        raise DegenerateLeafError(
            f"leaf weight undefined: H + lambda = {denom}"
        )
    return -g_sum / denom


class TreeNode(NamedTuple):
    """One node of a regression tree; a node is a leaf iff weight is set."""

    weight: float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None


# Leaves per uint64 bitvector, all its bits, and the float 2.0**k's exponent field less k.
_WORD, _ALL, _BIAS = 64, 2**64 - 1, 1023
# The most splits on any root-to-leaf path that _layout and _score_tree, one
# call per level, walk within Python's default recursion limit of 1,000.
MAX_DEPTH = 980


def _layout(node: TreeNode, lr: float, outputs: list, nodes: list) -> None:
    """Append lr times each leaf weight under ``node`` to ``outputs``, left to
    right, and its splits to ``nodes`` in pre-order as (feature, threshold, bits
    of its left leaves, its first right leaf)."""
    if node.weight is not None:
        outputs.append(lr * node.weight)
        return
    if node.threshold != node.threshold:  # NaN: every row goes right
        return _layout(node.right, lr, outputs, nodes)
    at, first = len(nodes), len(outputs)
    nodes.append(None)
    _layout(node.left, lr, outputs, nodes)
    mid = len(outputs)
    nodes[at] = (node.feature, node.threshold, (1 << mid) - (1 << first), mid)
    _layout(node.right, lr, outputs, nodes)


def _score_tree(leaves, nodes, i, lo, hi, codes, x, acc, rows, scratch) -> None:
    """Add to ``acc[rows]`` (``rows`` is ... for every row) the outputs of the
    leaves lo .. hi-1 that the rows reach below ``nodes[i]``; leaf k's is
    ``leaves[_BIAS + k]``. Up to _WORD leaves this is QuickScorer (Lucchese et
    al., SIGIR 2015): each test a row fails clears its node's left leaves from
    the row's bits, the lowest bit left is the exit leaf, and the tests failed
    on a feature, a prefix in threshold order, are one table entry. More
    leaves partition rows first. ``scratch`` holds two uint64 arrays and a
    float64 one, each at least as long as ``acc``."""
    if hi - lo == 1:
        acc[rows] += leaves[_BIAS + lo]
    elif hi - lo > _WORD:
        feature, threshold, _, mid = nodes[i]
        mask = x[rows, feature] <= threshold
        pick = np.flatnonzero if rows is ... else rows.__getitem__
        # A subtree of k leaves has k - 1 internal nodes, in pre-order.
        _score_tree(leaves, nodes, i + 1, lo, mid, codes, x, acc, pick(mask), scratch)
        _score_tree(leaves, nodes, i + mid - lo, mid, hi, codes, x, acc, pick(~mask), scratch)
    else:
        n = acc.size if rows is ... else rows.size
        bits, spare, out = (a[:n] for a in scratch)
        tests = {}
        for feature, threshold, left, _ in nodes[i : i + hi - lo - 1]:
            tests.setdefault(feature, []).append((threshold, _ALL ^ (left >> lo)))
        for k, (feature, pairs) in enumerate(tests.items()):
            reps, inv = codes[feature]
            thresholds, clears = zip(*sorted(pairs))
            table = np.array([*accumulate(clears, and_, initial=_ALL)], dtype=np.uint64)
            # mode="clip" writes into ``out`` directly; "raise" would buffer it.
            table[np.array(thresholds).searchsorted(reps)].take(
                inv if rows is ... else inv[rows], out=spare if k else bits, mode="clip"
            )
            if k:
                np.bitwise_and(bits, spare, out=bits)
        np.negative(bits, out=spare)
        bits &= spare  # the lowest set bit, exact as a float
        np.copyto(out, bits)
        index = np.right_shift(out.view(np.int64), 52, out=spare.view(np.int64))
        acc[rows] += leaves[lo:].take(index, out=out, mode="clip")


def _fit_constants(x: np.ndarray, reg_lambda: float) -> tuple:
    """What every tree fitted on ``x`` shares: ``x.T`` made contiguous; the
    root's block, that is the schema indices of the features that are not
    constant and per such feature its row order (ties by row index) and
    sorted values, one row each; and the denominators for _best_split, the
    counts 1 .. n and n-1 .. 1 plus lambda, then 1.0 for the masked column
    after all rows, which keeps lambda = 0 from dividing by zero."""
    cols = np.ascontiguousarray(x.T)
    order = np.argsort(cols, axis=1, kind="stable")
    values = np.take_along_axis(cols, order, axis=1)
    live = values[:, 0] != values[:, -1]
    counts = np.arange(x.shape[0] + 1.0)
    denoms = (counts[1:] + reg_lambda, np.append(counts[-2:0:-1] + reg_lambda, 1.0))
    return cols, (np.flatnonzero(live), order[live], values[live]), denoms


def _best_split(g, block, g_total: float, cfg: GbtConfig, denoms) -> tuple[float, int, float] | None:
    """Highest-gain (gain, feature, midpoint) candidate for one node, or None.

    ``block`` holds the schema indices of the features that are not constant
    among the node's m rows, and per feature the rows in sorted order and
    their values, contiguous. Every feature is scored in one pass over all
    m columns: prefix sums run along each row, so column k has the gain a
    per-feature scan gives the candidate after k + 1 rows, whose Hessian
    sums k + 1 and m - k - 1 index ``denoms``. One mask sets to -inf a tie
    and each column outside ``least - 1 <= k < m - least``, where both sides
    reach ``min_child_weight`` (``least`` its ceiling, at least 1). A
    feature with no candidate left is skipped.
    """
    features, order, values = block
    m = order.shape[1]
    least = max(1, math.ceil(cfg.min_child_weight))
    lo, hi = least - 1, m - least
    if lo >= hi:
        return None
    gains = g.take(order)
    gains.cumsum(axis=1, out=gains)
    g_right = g_total - gains
    # In place, but in the order of 0.5 * (score_l + score_r - parent) - gamma.
    left_den, right_den = denoms
    gains *= gains
    gains /= left_den[:m]
    g_right *= g_right
    g_right /= right_den[right_den.size - m :]
    gains += g_right
    gains -= _score(g_total, float(m), cfg.reg_lambda)
    gains *= 0.5
    if cfg.gamma:  # x - 0.0 == x for every x
        gains -= cfg.gamma
    # The last column's compare spans two features; hi <= m - 1 masks it.
    masked, flat = np.empty(values.shape, dtype=bool), values.ravel()
    np.equal(flat[:-1], flat[1:], out=masked.ravel()[:-1])
    masked[:, :lo] = masked[:, hi:] = True
    np.putmask(gains, masked, -np.inf)
    # A row's max is the gain at its argmax, NaN if it holds one.
    top = gains.max(axis=1).tolist()
    # A feature that is not constant has a candidate in the full range, so
    # only a narrower one can leave it none. Such a feature is skipped, not
    # scored -inf: a NaN gain met first must still block every later feature.
    scored = range(len(top)) if least == 1 else np.flatnonzero(~masked.all(axis=1)).tolist()
    best = None
    for j in scored:
        if best is None or top[j] > top[best]:
            best = j
    if best is None:
        return None
    # Midpoint thresholds ascend along a row, so argmax lands on the lowest
    # threshold among equal gains within a feature.
    k = int(gains[best].argmax())
    a, b = values[best, k : k + 2].tolist()
    mid = 0.5 * (a + b)  # if a + b overflows, a splits the rows the same way
    return top[best], int(features[best]), mid if math.isfinite(mid) else a


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
    max_depth, reg_lambda = cfg.max_depth, cfg.reg_lambda

    def grow(idx: np.ndarray, block, depth: int) -> TreeNode:
        g_total = float(g[idx].sum())
        best = None
        if depth < max_depth and idx.size >= 2 and block[0].size:
            best = _best_split(g, block, g_total, cfg, denoms)
        if best is None or best[0] <= 0.0:
            weight = leaf_weight(g_total, float(idx.size), reg_lambda)
            out[idx] = weight
            return TreeNode(weight)
        _, feature, threshold = best
        mask = cols[feature][idx] <= threshold
        left, right = idx[mask], idx[~mask]
        # A child at max_depth or with one row is a leaf and gets no block.
        left_block = right_block = None
        if depth + 1 < max_depth and (left.size >= 2 or right.size >= 2):
            side[idx] = mask
            sel = side[block[1]].ravel()
            left_block = _child_block(block, sel) if left.size >= 2 else None
            right_block = _child_block(block, ~sel) if right.size >= 2 else None
        left = grow(left, left_block, depth + 1)
        return TreeNode(None, feature, threshold, left, grow(right, right_block, depth + 1))

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
    if not np.isfinite(pred).all():  # the base score, a leaf weight or their sum overflows
        raise InvalidArgumentError("GBT training predictions must be finite")
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
    acc, lr = m.base_score, m.config.learning_rate
    for node in m.trees:
        while node[0] is None:
            node = node[3] if row[node[1]] <= node[2] else node[4]
        acc += lr * node[0]
    return float(acc)


def gbt_predict_batch(m: GbtModel, x: np.ndarray) -> np.ndarray:
    """gbt_predict of every row, bit for bit. A row's code for a feature counts
    the thresholds of all trees below its value (all of them for NaN); a table
    has an entry per code present, found by the least threshold not below it.
    Each tree is laid out just before it is scored."""
    x = m.schema.check_features(x, 2)
    thresholds, stack = {}, list(m.trees)
    while stack:
        node = stack.pop()
        if node.weight is None:
            if node.threshold == node.threshold:  # NaN: every row goes right
                thresholds.setdefault(node.feature, []).append(node.threshold)
                stack.append(node.left)
            stack.append(node.right)
    codes = {}
    for feature, values in thresholds.items():
        grid = np.unique(values)
        code = grid.searchsorted(x[:, feature])
        seen = np.bincount(code, minlength=grid.size + 1) > 0
        codes[feature] = (np.append(grid, np.nan)[seen], (np.cumsum(seen, dtype=np.intp) - 1)[code])
    n, lr = x.shape[0], m.config.learning_rate
    acc = np.full(n, m.base_score)
    scratch = (np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64), np.empty(n))
    for tree in m.trees:
        outputs, nodes = [], []
        _layout(tree, lr, outputs, nodes)
        leaves = np.concatenate((np.zeros(_BIAS), outputs))
        _score_tree(leaves, nodes, 0, 0, len(outputs), codes, x, acc, ..., scratch)
    return acc
