import tracemalloc

import numpy as np
import pytest

from balancecast import KINDS, SyntheticConfig, align_horizon, generate_synthetic
from balancecast.gbt import _score

# Noise-free single-nonlinear-driver series: shape recovery and attribution.
CLEAN_CFG = SyntheticConfig(
    n_rows=1200, seed=5, noise_sd=0.0, spike_prob=0.0, spike_scale=60.0
)
# Realistic series with forecast noise and occasional spikes.
SPIKY_CFG = SyntheticConfig(
    n_rows=2000, seed=11, noise_sd=2.0, spike_prob=0.015, spike_scale=40.0
)


@pytest.fixture(scope="session")
def clean_data():
    return generate_synthetic(CLEAN_CFG)


@pytest.fixture(scope="session")
def spiky_data():
    return generate_synthetic(SPIKY_CFG)


@pytest.fixture(scope="session")
def aligned_spiky(spiky_data):
    dataset, _ = spiky_data
    return align_horizon(dataset, 32)


# ---------------------------------------------------------------------------
# Oracles shared by the test modules: plain reference versions of what the
# models compute, kept apart from the code they check.
# ---------------------------------------------------------------------------


def split_gain(g_left, h_left, g_right, h_right, reg_lambda, gamma):
    """Improvement in the regularized objective from one binary split, from
    the GBT's per-side score."""
    return 0.5 * (
        _score(g_left, h_left, reg_lambda)
        + _score(g_right, h_right, reg_lambda)
        - _score(g_left + g_right, h_left + h_right, reg_lambda)
    ) - gamma


def tree_predict(node, x):
    """Leaf outputs of a tree for every row of ``x``, walked one row at a time."""
    out = []
    for row in np.asarray(x).tolist():
        at = node
        while not at.is_leaf:
            at = at.left if row[at.feature] <= at.threshold else at.right
        out.append(at.weight)
    return np.array(out, dtype=np.float64)


def tree_to_lists(root):
    """A tree as a model file holds it: two parallel pre-order lists (a node,
    then its left subtree, then its right one), ``feature`` with each split's
    schema index and -1 at a leaf, ``value`` with the split's threshold or
    the leaf's weight. Walked without recursion."""
    features, values, stack = [], [], [root]
    while stack:
        node = stack.pop()
        if node.weight is None:
            features.append(node.feature)
            values.append(node.threshold)
            stack += node.right, node.left
        else:
            features.append(-1)
            values.append(node.weight)
    return {"feature": features, "value": values}


def tree_depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def apply_shape_table(table, value):
    """Look one value up in an exported shape table: bin k is (lower, upper]."""
    for lower, upper, contribution in table:
        if lower < value <= upper:
            return contribution
    return table[-1][2]


def bin_centers(bins, j):
    """Representative value per bin of feature ``j``, using the training range
    for the edges."""
    edges = np.concatenate(([bins.vmin[j]], bins.cuts[j], [bins.vmax[j]]))
    return (edges[:-1] + edges[1:]) / 2.0


def traced_peak(fn, *args):
    """The most memory tracemalloc saw allocated at once during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_held(fn, *args):
    """The memory tracemalloc sees still allocated when ``fn(*args)`` has
    returned, its result alive: what the result holds."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841 - held until the count is read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# The writer of model files as earlier versions laid them out, one nested
# JSON object per tree node; load_model must keep reading them.
# ---------------------------------------------------------------------------


def legacy_tree_to_dict(node):
    """A tree nested as earlier model files held it: a leaf ``{"weight"}``, a
    split ``{"feature", "threshold", "left", "right"}``."""
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": legacy_tree_to_dict(node.left),
        "right": legacy_tree_to_dict(node.right),
    }


def flat_chain(depth):
    """The pre-order lists of a tree whose left spine holds ``depth`` splits
    on feature 0."""
    return {"feature": [0] * depth + [-1] * (depth + 1), "value": [0.5] * depth + [1.0] * (depth + 1)}


def legacy_model_doc(kind, model):
    """``KINDS[kind].to_dict(model)`` with every tree nested as earlier
    versions wrote it."""
    doc = KINDS[kind].to_dict(model)
    if kind in ("gbt", "stacked"):
        gbt_doc, gbt_model = (doc, model) if kind == "gbt" else (doc["meta"], model.meta)
        gbt_doc["trees"] = [legacy_tree_to_dict(t) for t in gbt_model.trees]
    return doc
