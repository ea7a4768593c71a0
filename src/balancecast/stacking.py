"""Two-level stack: additive base model plus a tree-ensemble residual learner.

The base model is trained on the data as-is; its training residuals become
the target for a boosted-tree meta-learner over the same input features. The
stacked prediction is the sum of the two outputs, so the additive base keeps
its exact per-feature explanation for its share of the forecast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSchema
from .ebm import EbmConfig, EbmModel, ebm_predict, ebm_predict_batch, ebm_train
from .errors import SchemaError
from .gbt import GbtConfig, GbtModel, gbt_predict, gbt_predict_batch, gbt_train

# Residual signal is small, so the meta-learner defaults shallower and
# shorter than a standalone tree ensemble.
META_GBT_DEFAULTS = GbtConfig(n_trees=100, max_depth=4)


@dataclass(frozen=True, eq=False)
class StackedModel:
    base: EbmModel
    meta: GbtModel
    schema: FeatureSchema

    def __post_init__(self):
        if self.base.schema != self.schema or self.meta.schema != self.schema:
            raise SchemaError("base and meta models must share the stack's schema")


def stacked_train(
    d: Dataset,
    ebm_cfg: EbmConfig = EbmConfig(),
    gbt_cfg: GbtConfig = META_GBT_DEFAULTS,
    base: EbmModel | None = None,
) -> StackedModel:
    """Fit the base model (or take ``base``, an EBM already fitted on ``d``
    with ``ebm_cfg``), then boost trees on its training residuals."""
    if base is None:
        base = ebm_train(d, ebm_cfg)
    residuals = d.target - ebm_predict_batch(base, d.features)
    meta = gbt_train(d.with_target(residuals), gbt_cfg)
    return StackedModel(base=base, meta=meta, schema=d.schema)


def stacked_predict(m: StackedModel, x) -> float:
    """Base output plus predicted residual."""
    return ebm_predict(m.base, x) + gbt_predict(m.meta, x)


def stacked_predict_batch(m: StackedModel, x: np.ndarray) -> np.ndarray:
    return ebm_predict_batch(m.base, x) + gbt_predict_batch(m.meta, x)
