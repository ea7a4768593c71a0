"""The model registry and the model-file codec.

``KINDS`` maps each model kind to how it trains, predicts and serializes;
the CLI, the evaluation harness and the model files all go through it. A
model file is a JSON envelope tagging the kind and forecast horizon around
the model's ``*_to_dict`` document; this module is the only one that knows
that format. Floats survive the round trip exactly because json serializes
Python floats via their shortest repr.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import ebm, gbt, stacking
from .baseline import NaiveModel, naive_forecast
from .data import FeatureSchema, write_json
from .errors import SchemaError, UnsupportedModelError


def _blocks(m) -> dict:
    """The config and schema blocks that every learned model's document holds."""
    return {
        "config": asdict(m.config),
        "schema": {"names": list(m.schema.names), "kinds": list(m.schema.kinds)},
    }


def _blocks_from_dict(doc: dict, config_type: type) -> dict:
    """``config`` and ``schema`` keyword arguments for a model constructor."""
    config = dict(doc["config"])
    config.pop("seed", None)  # an unused field that older model files still carry
    schema = doc["schema"]
    return {
        "config": config_type(**config),
        "schema": FeatureSchema(names=tuple(schema["names"]), kinds=tuple(schema["kinds"])),
    }


def tree_to_dict(node: gbt.TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def _finite(value) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise SchemaError(f"non-finite number {v!r} in a model file")
    return v


def tree_from_dict(doc: dict, n_features: int) -> gbt.TreeNode:
    """A tree whose splits use features ``0 .. n_features - 1``; a bad index or
    a non-finite threshold or weight raises SchemaError."""
    if "weight" in doc:
        weight = float(doc["weight"])
        if not math.isfinite(weight):
            raise SchemaError(f"leaf weight {weight!r} is not finite")
        return gbt.TreeNode(weight=weight)
    feature, threshold = doc["feature"], float(doc["threshold"])
    if type(feature) is not int or not 0 <= feature < n_features or not math.isfinite(threshold):
        raise SchemaError(f"bad split on feature {feature!r} of {n_features} at {threshold!r}")
    return gbt.TreeNode(
        feature=feature,
        threshold=threshold,
        left=tree_from_dict(doc["left"], n_features),
        right=tree_from_dict(doc["right"], n_features),
    )


def gbt_to_dict(m: gbt.GbtModel) -> dict:
    return {
        "base_score": m.base_score,
        **_blocks(m),
        "trees": [tree_to_dict(t) for t in m.trees],
    }


def gbt_from_dict(doc: dict) -> gbt.GbtModel:
    blocks = _blocks_from_dict(doc, gbt.GbtConfig)
    n_features = len(blocks["schema"])
    return gbt.GbtModel(
        trees=tuple(tree_from_dict(t, n_features) for t in doc["trees"]),
        base_score=_finite(doc["base_score"]),
        **blocks,
    )


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
    """Requires one shape per feature, one value per bin, and finite, strictly
    ascending cuts; anything else raises SchemaError."""
    blocks = _blocks_from_dict(doc, ebm.EbmConfig)
    bins = ebm.BinMap(
        cuts=tuple(np.asarray(c, dtype=np.float64) for c in doc["bins"]["cuts"]),
        vmin=tuple(float(v) for v in doc["bins"]["vmin"]),
        vmax=tuple(float(v) for v in doc["bins"]["vmax"]),
    )
    values = [np.asarray(v, dtype=np.float64) for v in doc["shapes"]]
    n_features = len(blocks["schema"])
    if not len(values) == len(bins.cuts) == len(bins.vmin) == len(bins.vmax) == n_features:
        raise SchemaError(
            f"{len(values)} shapes and {len(bins.cuts)} cut lists for {n_features} features"
        )
    for j, (cuts, v) in enumerate(zip(bins.cuts, values)):
        if cuts.ndim != 1 or not np.isfinite(cuts).all() or (np.diff(cuts) <= 0).any():
            raise SchemaError(f"the cuts of feature {j} are not finite and strictly ascending")
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

    ``train(d, cfg, fitted=None)`` fits a model, where ``cfg`` is the
    forecast horizon for naive, a ``GbtConfig`` for gbt, an ``EbmConfig`` for
    ebm and an ``(EbmConfig, GbtConfig)`` pair for stacked. Both of the last
    two take the EBM from ``fitted[ebm_cfg]`` (EBMs already fitted on ``d``)
    or fit it and store it there. ``predict(model, d, rows)`` forecasts the
    rows of ``d`` that ``rows`` (an index array or a slice) selects.
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
            train=lambda d, horizon, fitted=None: NaiveModel(horizon_steps=horizon),
            predict=lambda m, d, rows: naive_forecast(d.target, m.horizon_steps, rows),
            to_dict=lambda m: {"horizon_steps": m.horizon_steps},
            from_dict=lambda doc: NaiveModel(horizon_steps=int(doc["horizon_steps"])),
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
    doc = {"kind": kind.name, "horizon_steps": int(horizon_steps), "model": kind.to_dict(model)}
    write_json(path, doc)


def load_model(path):
    """Returns (kind, horizon_steps, model); a malformed file raises SchemaError."""
    with Path(path).open("r") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SchemaError(f"model file {path} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"model file {path} must hold a JSON object")
    kind = next((k for k in KINDS.values() if k.name == doc.get("kind")), None)
    if kind is None:
        raise UnsupportedModelError(f"unknown model kind {doc.get('kind')!r} in {path}")
    try:
        return kind.name, int(doc["horizon_steps"]), kind.from_dict(doc["model"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaError(f"malformed {kind.name} model file {path}: {exc!r}") from None
