"""The model registry and the model-file codec.

``KINDS`` maps each model kind to how it trains, predicts and serializes;
the CLI, the evaluation harness and the model files all go through it. A
model file is a JSON envelope tagging the kind and forecast horizon around
the model's ``*_to_dict`` document; this module is the only one that knows
that format. Floats survive the round trip exactly because ``write_json``
writes them via their shortest repr.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import ebm, gbt, stacking
from .baseline import NaiveModel, naive_forecast
from .data import FeatureSchema, read_json_object, write_json
from .errors import SchemaError, UnsupportedModelError, check_bound


def _blocks(m) -> dict:
    """The config and schema blocks that every learned model's document holds."""
    return {
        "config": asdict(m.config),
        "schema": {"names": list(m.schema.names)},
    }


def _blocks_from_dict(doc: dict, config_type: type) -> dict:
    """``config`` and ``schema`` keyword arguments for a model constructor;
    the config checks its own fields. The unused ``seed`` config field and
    ``kinds`` schema list of older model files are ignored."""
    if not isinstance(doc["config"], dict):
        raise SchemaError(f"a model's config must be a JSON object, got {doc['config']!r}")
    config = dict(doc["config"])
    config.pop("seed", None)
    return {
        "config": config_type(**config),
        "schema": FeatureSchema(names=tuple(doc["schema"]["names"])),
    }


def _finite(value) -> float:
    """A finite JSON number as a float; a string, a bool, NaN or an
    infinity raises SchemaError."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise SchemaError(f"expected a finite JSON number, got {value!r}")
    return float(value)


def _finite_list(values) -> list[float]:
    """A JSON list of finite numbers as floats, by the rules of _finite; any
    other value or entry raises SchemaError."""
    if type(values) is not list:
        raise SchemaError(f"expected a JSON list of numbers, got {values!r}")
    if {float, int}.issuperset(map(type, values)):
        floats = list(map(float, values))
        if all(map(math.isfinite, floats)):
            return floats
    return [_finite(v) for v in values]  # raises at the first bad entry


def tree_from_lists(doc: dict, n_features: int) -> tuple[list, list]:
    """The (feature, value) lists of a tree written as two parallel pre-order
    lists (a node, then its left subtree, then its right one): ``feature``
    holds each split's schema index and -1 at a leaf, ``value`` the split's
    threshold or the leaf's weight. One pass from the last node back checks
    them, keeping the height of each subtree seen so far on a stack. Unequal
    or empty lists, lists that are not the pre-order of one tree, a feature
    that is not -1 or a schema index, a value that is not a finite JSON
    number, or a path of more than ``gbt.MAX_DEPTH`` splits raise
    SchemaError."""
    features, values = doc["feature"], _finite_list(doc["value"])
    n = len(features)
    if n != len(values) or not n:
        raise SchemaError(f"a tree has {n} features and {len(values)} values")
    types_ok = {int}.issuperset(map(type, features))
    if not types_ok or not -1 <= min(features) <= max(features) < n_features:
        bad = next(f for f in features if type(f) is not int or not -1 <= f < n_features)
        raise SchemaError(f"bad tree feature {bad!r} of {n_features}")
    heights = []
    for feature in reversed(features):
        if feature < 0:
            heights.append(0)
            continue
        if len(heights) < 2:
            raise SchemaError(f"a tree's {n} nodes are not one pre-order: a split lacks a child")
        height = max(heights.pop(), heights.pop()) + 1
        if height > gbt.MAX_DEPTH:
            raise SchemaError(f"a tree is deeper than {gbt.MAX_DEPTH} splits")
        heights.append(height)
    if len(heights) > 1:
        raise SchemaError(f"a tree's {n} nodes are not one pre-order: {len(heights)} subtrees")
    return features, values


def _nested_lists(doc, n_features: int) -> dict:
    """The pre-order lists of a tree nested as earlier versions wrote it (a
    leaf ``{"weight"}``, a split ``{"feature", "threshold", "left",
    "right"}``), read without recursion. A split's feature must be one of
    ``0 .. n_features - 1`` and a threshold or weight a finite JSON number,
    else SchemaError is raised."""
    features, values, stack = [], [], [doc]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # a split whose left subtree is done
            node = node[0]["right"]
        if "weight" in node:
            features.append(-1)
            values.append(_finite(node["weight"]))
            continue
        feature, threshold = node["feature"], _finite(node["threshold"])
        if type(feature) is not int or not 0 <= feature < n_features:
            raise SchemaError(f"bad split on feature {feature!r} of {n_features} at {threshold!r}")
        features.append(feature)
        values.append(threshold)
        stack += (node,), node["left"]
    return {"feature": features, "value": values}


def gbt_to_dict(m: gbt.GbtModel) -> dict:
    features, values, bounds = m.feature.tolist(), m.value.tolist(), m.starts.tolist()
    return {
        "base_score": m.base_score,
        **_blocks(m),
        "trees": [{"feature": features[a:b], "value": values[a:b]} for a, b in zip(bounds, bounds[1:])],
    }


def gbt_from_dict(doc: dict) -> gbt.GbtModel:
    """A ``trees`` entry holds flat lists if its ``feature`` is a list; any
    other entry is read as a nested tree."""
    blocks = _blocks_from_dict(doc, gbt.GbtConfig)
    n_features = len(blocks["schema"])
    features, values, starts = [], [], [0]
    for tree in doc["trees"]:
        if not (type(tree) is dict and type(tree.get("feature")) is list):
            tree = _nested_lists(tree, n_features)
        feature, value = tree_from_lists(tree, n_features)
        features += feature
        values += value
        starts.append(len(features))
    return gbt.GbtModel(features, values, starts, base_score=_finite(doc["base_score"]), **blocks)


def ebm_to_dict(m: ebm.EbmModel) -> dict:
    return {
        "intercept": m.intercept,
        "bins": {
            "cuts": [list(map(float, c)) for c in m.bins.cuts],
            "vmin": list(m.bins.vmin),
            "vmax": list(m.bins.vmax),
        },
        "shapes": [list(map(float, s.values)) for s in m.shapes],
        **_blocks(m),
    }


def ebm_from_dict(doc: dict) -> ebm.EbmModel:
    """Requires one shape per feature, one value per bin, strictly ascending
    cuts, and finite JSON numbers throughout; anything else raises
    SchemaError."""
    blocks = _blocks_from_dict(doc, ebm.EbmConfig)
    bins = ebm.BinMap(
        cuts=tuple(np.array(_finite_list(c)) for c in doc["bins"]["cuts"]),
        vmin=tuple(_finite_list(doc["bins"]["vmin"])),
        vmax=tuple(_finite_list(doc["bins"]["vmax"])),
    )
    values = [np.array(_finite_list(v)) for v in doc["shapes"]]
    n_features = len(blocks["schema"])
    if not len(values) == len(bins.cuts) == len(bins.vmin) == len(bins.vmax) == n_features:
        raise SchemaError(
            f"{len(values)} shapes and {len(bins.cuts)} cut lists for {n_features} features"
        )
    for j, (cuts, v) in enumerate(zip(bins.cuts, values)):
        if (cuts[1:] <= cuts[:-1]).any():
            raise SchemaError(f"the cuts of feature {j} are not strictly ascending")
        if v.shape != (len(cuts) + 1,):
            raise SchemaError(f"feature {j} has {len(cuts) + 1} bins but {v.size} shape values")
    return ebm.EbmModel(
        intercept=_finite(doc["intercept"]),
        shapes=tuple(ebm.ShapeFunction(feature_index=j, values=v) for j, v in enumerate(values)),
        bins=bins,
        **blocks,
    )


def stacked_to_dict(m: stacking.StackedModel) -> dict:
    return {"base": ebm_to_dict(m.base), "meta": gbt_to_dict(m.meta)}


def stacked_from_dict(doc: dict) -> stacking.StackedModel:
    base = ebm_from_dict(doc["base"])
    meta = gbt_from_dict(doc["meta"])
    return stacking.StackedModel(base=base, meta=meta, schema=base.schema)


@dataclass(frozen=True)
class ModelKind:
    """One model kind.

    ``train(d, cfg, fitted=None)`` fits a model, where ``cfg`` is None (and
    ignored) for naive, a ``GbtConfig`` for gbt, an ``EbmConfig`` for ebm and
    an ``(EbmConfig, GbtConfig)`` pair for stacked. Both of the last two take
    the EBM from ``fitted[ebm_cfg]`` or fit it on ``d`` and store it there.
    ``predict(model, d, rows)`` forecasts the rows of ``d`` that ``rows`` (an
    index array or a slice) selects; naive lags them by ``d.horizon_steps``.
    """

    name: str
    model_type: type
    train: Callable
    predict: Callable
    to_dict: Callable
    from_dict: Callable


def _ebm(d, cfg: ebm.EbmConfig, fitted: dict | None) -> ebm.EbmModel:
    """``fitted[cfg]``, fitting it on ``d`` first if it is not there."""
    fitted = {} if fitted is None else fitted
    if cfg not in fitted:
        fitted[cfg] = ebm.ebm_train(d, cfg)
    return fitted[cfg]


# train and predict look the model functions up on their modules at call
# time, so wrappers installed on those modules (tracing, test doubles) apply.
KINDS = {
    kind.name: kind
    for kind in (
        ModelKind(
            name="naive",
            model_type=NaiveModel,
            train=lambda d, cfg, fitted=None: NaiveModel(),
            predict=lambda m, d, rows: naive_forecast(d.target, d.horizon_steps, rows),
            to_dict=lambda m: {},
            from_dict=lambda doc: NaiveModel(),
        ),
        ModelKind(
            name="gbt",
            model_type=gbt.GbtModel,
            train=lambda d, cfg, fitted=None: gbt.gbt_train(d, cfg),
            predict=lambda m, d, rows: gbt.gbt_predict_batch(m, d.features[rows]),
            to_dict=gbt_to_dict,
            from_dict=gbt_from_dict,
        ),
        ModelKind(
            name="ebm",
            model_type=ebm.EbmModel,
            train=lambda d, cfg, fitted=None: _ebm(d, cfg, fitted),
            predict=lambda m, d, rows: ebm.ebm_predict_batch(m, d.features[rows]),
            to_dict=ebm_to_dict,
            from_dict=ebm_from_dict,
        ),
        ModelKind(
            name="stacked",
            model_type=stacking.StackedModel,
            train=lambda d, cfg, fitted=None: stacking.stacked_train(
                d, *cfg, base=_ebm(d, cfg[0], fitted)
            ),
            predict=lambda m, d, rows: stacking.stacked_predict_batch(m, d.features[rows]),
            to_dict=stacked_to_dict,
            from_dict=stacked_from_dict,
        ),
    )
}


def save_model(model, horizon_steps: int, path) -> None:
    kind = next((k for k in KINDS.values() if isinstance(model, k.model_type)), None)
    if kind is None:
        raise UnsupportedModelError(f"cannot persist {type(model).__name__}")
    check_bound("horizon_steps", horizon_steps, 1, integer=True)
    doc = {"kind": kind.name, "horizon_steps": int(horizon_steps), "model": kind.to_dict(model)}
    write_json(path, doc)


def load_model(path):
    """Returns (kind, horizon_steps, model); a malformed file raises SchemaError."""
    doc = read_json_object(path, SchemaError, "model file")
    kind = next((k for k in KINDS.values() if k.name == doc.get("kind")), None)
    if kind is None:
        raise SchemaError(f"unknown model kind {doc.get('kind')!r} in {path}")
    try:
        horizon = doc["horizon_steps"]
        check_bound("horizon_steps", horizon, 1, integer=True)
        model = kind.from_dict(doc["model"])
        # Earlier naive files repeat the horizon in the model; {**} refuses a non-object.
        inner = {**doc["model"]}.get("horizon_steps", horizon) if kind.name == "naive" else horizon
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaError(f"malformed {kind.name} model file {path}: {exc!r}") from None
    if inner != horizon:
        raise SchemaError(f"model file {path}: naive horizon_steps {inner!r} is not {horizon}")
    return kind.name, horizon, model
