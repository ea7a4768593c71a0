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
blocks. Splits read each feature as one contiguous row of x.T.

A model holds its trees as flat pre-order arrays, as XGBoost does: per node
its feature, its value and its right child's index, the nodes of every tree
one after another. Training packs each tree into them as it is grown; a
nested TreeNode tree is built only when asked for. A single row walks every tree at once,
one level per step. Batch prediction reads the columns of x in place, lays
out one tree at a time from its slice of the arrays and scores each tree of
at most 64 leaves by bitvectors over per-feature threshold codes
(QuickScorer), in row-sized scratch arrays allocated once per call; a larger
tree partitions its rows first."""

from __future__ import annotations

import math
from array import array
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


def _tree_node(feature: list, value: list) -> TreeNode:
    """The nested tree of one tree's pre-order lists, built in one pass from
    its last node back: a leaf is pushed, and a split takes the top two
    subtrees as its left and right."""
    built = []
    for f, v in zip(reversed(feature), reversed(value)):
        if f < 0:
            built.append(TreeNode(v))
        else:
            left = built.pop()
            built.append(TreeNode(None, f, v, left, built.pop()))
    return built[0]


# Leaves per uint64 bitvector, all its bits, and the float 2.0**k's exponent field less k.
_WORD, _ALL, _BIAS = 64, 2**64 - 1, 1023
# The most splits on any root-to-leaf path that _layout and _score_tree, one
# call per level, walk within Python's default recursion limit of 1,000.
MAX_DEPTH = 980


def _layout(tree, i: int, lr: float, outputs: list, nodes: list) -> None:
    """Append lr times each leaf weight under node ``i`` of ``tree``, a
    (feature, value, right) triple of lists, to ``outputs``, left to right,
    and its splits to ``nodes`` in pre-order as (feature, threshold, bits of
    its left leaves, its first right leaf)."""
    feature, value, right = tree
    if feature[i] < 0:
        outputs.append(lr * value[i])
        return
    if value[i] != value[i]:  # NaN: every row goes right
        return _layout(tree, right[i], lr, outputs, nodes)
    at, first = len(nodes), len(outputs)
    nodes.append(None)
    _layout(tree, i + 1, lr, outputs, nodes)
    mid = len(outputs)
    nodes[at] = (feature[i], value[i], (1 << mid) - (1 << first), mid)
    _layout(tree, right[i], lr, outputs, nodes)


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


def _grow_tree(cols, block, denoms, g, cfg: GbtConfig, out: np.ndarray) -> tuple[list, list]:
    """Grow one tree depth-first, write each row's leaf weight into ``out``
    and return the tree's pre-order (feature, value) lists, as GbtModel
    holds them.

    The first three arguments come from _fit_constants. A node holds its rows
    in ascending order (``idx``, which fixes the summation order of its
    gradient total) and as a block. A split partitions the block stably, so
    no node sorts again, and drops the features constant in a child.
    """
    # side[i] tells whether row i goes left at the split being made; a node
    # reads only the entries of its own rows.
    side = np.empty(cols.shape[1], dtype=bool)
    max_depth, reg_lambda = cfg.max_depth, cfg.reg_lambda
    features, values = [], []

    def grow(idx: np.ndarray, block, depth: int) -> None:
        g_total = float(g[idx].sum())
        best = None
        if depth < max_depth and idx.size >= 2 and block[0].size:
            best = _best_split(g, block, g_total, cfg, denoms)
        if best is None or best[0] <= 0.0:
            weight = leaf_weight(g_total, float(idx.size), reg_lambda)
            out[idx] = weight
            features.append(-1)
            values.append(weight)
            return
        _, feature, threshold = best
        features.append(feature)
        values.append(threshold)
        mask = cols[feature][idx] <= threshold
        left, right = idx[mask], idx[~mask]
        # A child at max_depth or with one row is a leaf and gets no block.
        left_block = right_block = None
        if depth + 1 < max_depth and (left.size >= 2 or right.size >= 2):
            side[idx] = mask
            sel = side[block[1]].ravel()
            left_block = _child_block(block, sel) if left.size >= 2 else None
            right_block = _child_block(block, ~sel) if right.size >= 2 else None
        grow(left, left_block, depth + 1)
        grow(right, right_block, depth + 1)

    grow(np.arange(cols.shape[1]), block, 0)
    return features, values


def fit_tree(d: Dataset, g, cfg: GbtConfig) -> TreeNode:
    """Grow one regression tree on per-sample squared-loss gradients ``g``
    (every Hessian is 1)."""
    g = np.asarray(g, dtype=np.float64)
    if d.n_rows == 0 or len(g) == 0:
        raise InvalidArgumentError("cannot fit a tree on an empty dataset")
    if len(g) != d.n_rows:
        raise InvalidArgumentError(f"{len(g)} gradients for {d.n_rows} rows")
    return _tree_node(*_grow_tree(*_fit_constants(d.features, cfg.reg_lambda), g, cfg, np.empty(d.n_rows)))


@dataclass(frozen=True, eq=False)
class GbtModel:
    """Trained ensemble: base score plus shrunken tree outputs.

    The trees are held as flat pre-order arrays (a node, its left subtree,
    its right subtree), the model file's layout: per node, ``feature`` is
    its split's schema index or -1 at a leaf and ``value`` the split's
    threshold or the leaf's weight; tree k holds nodes ``starts[k]`` to
    ``starts[k + 1] - 1``. The three are copied into read-only arrays, and
    ``right`` is derived from them: each split's right child's index within
    its tree, -1 at a leaf. ``train_mse`` records the training mean squared
    error after the base score and after each added tree (length n_trees + 1).
    """

    feature: np.ndarray
    value: np.ndarray
    starts: np.ndarray
    base_score: float
    config: GbtConfig
    schema: FeatureSchema
    train_mse: tuple[float, ...] = field(repr=False, default=())
    right: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        feature = np.array(self.feature, dtype=np.intp)
        value = np.array(self.value, dtype=np.float64)
        first = np.array(self.starts, dtype=np.intp)
        # Counting +1 per split and -1 per leaf, a tree sums to -1 and every
        # prefix of it to 0 or more. Tree k then starts at a sum of -k.
        step = np.where(feature < 0, -1, 1)
        total = np.cumsum(step)
        sizes = np.diff(first)
        if not (
            first.size and first[0] == 0 and first[-1] == feature.size == value.size
            and (sizes > 0).all()
            and -1 <= feature.min(initial=-1) and feature.max(initial=-1) < len(self.schema)
            and (total[first[1:] - 1] == -np.arange(1, first.size)).all()
            and (total - step + np.repeat(np.arange(sizes.size), sizes) >= 0).all()
        ):
            raise InvalidArgumentError("feature, value and starts must hold the pre-order of whole trees")
        # So a split's right child is the next node whose preceding nodes sum
        # as the split's do: the one after it when the nodes are sorted
        # stably by that sum.
        order = np.argsort(total - step, kind="stable")
        after = np.zeros_like(order)
        after[order[:-1]] = order[1:]
        right = np.where(feature < 0, -1, after - np.repeat(first[:-1], sizes))
        for name, packed in (("feature", feature), ("value", value), ("starts", first), ("right", right)):
            packed.flags.writeable = False
            object.__setattr__(self, name, packed)

    @classmethod
    def from_trees(cls, trees, base_score: float, config: GbtConfig, schema: FeatureSchema,
                   train_mse: tuple[float, ...] = ()) -> GbtModel:
        """The model of nested ``trees``, laid out without recursion."""
        features, values, starts = [], [], [0]
        for root in trees:
            stack = [root]
            while stack:
                node = stack.pop()
                if node.weight is None:
                    stack += node.right, node.left
                    features.append(node.feature)
                    values.append(node.threshold)
                else:
                    features.append(-1)
                    values.append(node.weight)
            starts.append(len(features))
        return cls(features, values, starts, base_score, config, schema, train_mse)

    @property
    def trees(self) -> tuple[TreeNode, ...]:
        """The trees as nested TreeNodes, built anew on each read."""
        bounds = self.starts.tolist()
        return tuple(
            _tree_node(self.feature[a:b].tolist(), self.value[a:b].tolist())
            for a, b in zip(bounds, bounds[1:])
        )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused at the end
def gbt_train(d: Dataset, cfg: GbtConfig = GbtConfig()) -> GbtModel:
    """Boost ``cfg.n_trees`` trees against the running squared-loss gradient."""
    n = d.n_rows
    if n < 2:
        raise InvalidArgumentError(f"training needs n >= 2 rows, got {n}")
    y = d.target
    base = float(y.mean())
    pred = np.full(n, base)
    mse = [float(np.mean((y - pred) ** 2))]
    # Packed as each tree is grown, so that its Python objects are freed
    # before the next one is grown.
    feature, value, starts = array("q"), array("d"), [0]
    g = np.empty(n)
    # Features never change across trees: build what they share once.
    fit = _fit_constants(d.features, cfg.reg_lambda)
    leaf_out = np.empty(n)
    for _ in range(cfg.n_trees):
        np.subtract(pred, y, out=g)
        tree_feature, tree_value = _grow_tree(*fit, g, cfg, leaf_out)
        feature.extend(tree_feature)
        value.extend(tree_value)
        starts.append(len(feature))
        pred = pred + cfg.learning_rate * leaf_out
        mse.append(float(np.mean((y - pred) ** 2)))
    if not np.isfinite(pred).all():  # the base score, a leaf weight or their sum overflows
        raise InvalidArgumentError("GBT training predictions must be finite")
    return GbtModel(feature, value, starts, base, cfg, d.schema, tuple(mse))


def gbt_predict(m: GbtModel, x) -> float:
    """base_score plus the learning-rate-scaled sum of tree outputs, added in
    tree order. Every tree is walked at once, one level per step: a split
    sends the row to the node after it if its value is at most the
    threshold, else to its right child."""
    row = m.schema.check_features(x, 1)
    first = at = m.starts[:-1]
    feature = m.feature.take(at)
    leaf = feature < 0
    while not leaf.all():
        go_left = row.take(feature, mode="clip") <= m.value.take(at)
        at = np.where(leaf, at, np.where(go_left, at + 1, first + m.right.take(at)))
        feature = m.feature.take(at)
        leaf = feature < 0
    acc, lr = m.base_score, m.config.learning_rate
    for weight in m.value.take(at).tolist():
        acc += lr * weight
    return float(acc)


def gbt_predict_batch(m: GbtModel, x: np.ndarray) -> np.ndarray:
    """gbt_predict of every row, bit for bit. A row's code for a feature counts
    the split thresholds below its value (all of them for NaN); a table has
    an entry per code present, found by the least threshold not below it.
    The thresholds are those of every split but a NaN one, so also any in a
    subtree that a NaN split makes unreachable: a finer grid of codes gives
    the same table entries. Each tree is laid out from its slice of the
    arrays just before it is scored."""
    x = m.schema.check_features(x, 2)
    split = (m.feature >= 0) & (m.value == m.value)  # NaN: every row goes right
    split_features, thresholds = m.feature[split], m.value[split]
    codes = {}
    for feature in np.unique(split_features).tolist():
        grid = np.unique(thresholds[split_features == feature])
        code = grid.searchsorted(x[:, feature])
        seen = np.bincount(code, minlength=grid.size + 1) > 0
        codes[feature] = (np.append(grid, np.nan)[seen], (np.cumsum(seen, dtype=np.intp) - 1)[code])
    n, lr = x.shape[0], m.config.learning_rate
    acc = np.full(n, m.base_score)
    scratch = (np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64), np.empty(n))
    bounds = m.starts.tolist()
    for a, b in zip(bounds, bounds[1:]):
        outputs, nodes = [], []
        _layout((m.feature[a:b].tolist(), m.value[a:b].tolist(), m.right[a:b].tolist()), 0, lr, outputs, nodes)
        leaves = np.concatenate((np.zeros(_BIAS), outputs))
        _score_tree(leaves, nodes, 0, 0, len(outputs), codes, x, acc, ..., scratch)
    return acc
