"""The model registry and model files.

``KINDS`` maps each model kind to how it trains, predicts and serializes;
the CLI, the evaluation harness and the model files all go through it. A
model file is a JSON envelope tagging the kind and forecast horizon. Floats
survive the round trip exactly because json serializes Python floats via
their shortest repr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import ebm, gbt, stacking
from .baseline import NaiveModel, naive_forecast
from .errors import SchemaError, UnsupportedModelError


@dataclass(frozen=True)
class ModelKind:
    """One model kind.

    ``train(d, cfg)`` fits a model, where ``cfg`` is the forecast horizon for
    naive, a ``GbtConfig`` for gbt, an ``EbmConfig`` for ebm and an
    ``(EbmConfig, GbtConfig)`` pair for stacked. ``predict(model, d, rows)``
    forecasts the rows of ``d`` that ``rows`` (an index array or a slice)
    selects.
    """

    name: str
    model_type: type
    train: Callable
    predict: Callable
    to_dict: Callable
    from_dict: Callable


# train and predict look the model functions up on their modules at call
# time, so wrappers installed on those modules (tracing, test doubles) apply.
KINDS = {
    kind.name: kind
    for kind in (
        ModelKind(
            name="naive",
            model_type=NaiveModel,
            train=lambda d, horizon: NaiveModel(horizon_steps=horizon),
            predict=lambda m, d, rows: naive_forecast(d.target, m.horizon_steps, rows),
            to_dict=lambda m: {"horizon_steps": m.horizon_steps},
            from_dict=lambda doc: NaiveModel(horizon_steps=int(doc["horizon_steps"])),
        ),
        ModelKind(
            name="gbt",
            model_type=gbt.GbtModel,
            train=lambda d, cfg: gbt.gbt_train(d, cfg),
            predict=lambda m, d, rows: gbt.gbt_predict_batch(m, d.features[rows]),
            to_dict=gbt.gbt_to_dict,
            from_dict=gbt.gbt_from_dict,
        ),
        ModelKind(
            name="ebm",
            model_type=ebm.EbmModel,
            train=lambda d, cfg: ebm.ebm_train(d, cfg),
            predict=lambda m, d, rows: ebm.ebm_predict_batch(m, d.features[rows]),
            to_dict=ebm.ebm_to_dict,
            from_dict=ebm.ebm_from_dict,
        ),
        ModelKind(
            name="stacked",
            model_type=stacking.StackedModel,
            train=lambda d, cfg: stacking.stacked_train(d, *cfg),
            predict=lambda m, d, rows: stacking.stacked_predict_batch(m, d.features[rows]),
            to_dict=stacking.stacked_to_dict,
            from_dict=stacking.stacked_from_dict,
        ),
    )
}


def save_model(model, horizon_steps: int, path) -> None:
    kind = next((k for k in KINDS.values() if isinstance(model, k.model_type)), None)
    if kind is None:
        raise UnsupportedModelError(f"cannot persist {type(model).__name__}")
    doc = {"kind": kind.name, "horizon_steps": int(horizon_steps), "model": kind.to_dict(model)}
    with Path(path).open("w", newline="") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


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
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SchemaError(f"malformed {kind.name} model file {path}: {exc!r}") from None
