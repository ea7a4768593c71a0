"""Interpretable forecasting toolkit for balancing-market activation prices.

Four model families over a shared gap-free quarter-hour dataset: a naive
persistence baseline, gradient-boosted trees, a cyclic-boosting additive
model with exportable shape functions, and a stacked combination of the
latter two. An expanding-window harness evaluates them with MAE/RMSE/R2,
both overall and restricted to deviation events.
"""

from .baseline import NaiveModel, naive_forecast
from .data import (
    CONTINUOUS,
    CYCLICAL,
    DEFAULT_HORIZON_STEPS,
    Dataset,
    FeatureSchema,
    SyntheticConfig,
    SyntheticTruth,
    align_horizon,
    encode_cyclical,
    generate_synthetic,
    hour_of_day,
    load_csv,
    month_index,
    save_csv,
    save_truth_json,
    synthetic_schema,
    truth_table,
)
from .ebm import (
    BinMap,
    EbmConfig,
    EbmModel,
    ShapeFunction,
    apply_shape_table,
    bin_centers,
    build_bins,
    ebm_predict,
    ebm_predict_batch,
    ebm_train,
    explain_local,
    export_shapes,
    global_importance,
    save_global_explanation,
)
from .errors import (
    BalancecastError,
    DegenerateLeafError,
    GridError,
    IngestError,
    InsufficientHistoryError,
    InvalidArgumentError,
    SchemaError,
    UnsupportedModelError,
)
from .evaluation import (
    EvalReport,
    EvalRow,
    FoldSpec,
    Metrics,
    ModelSpec,
    compute_metrics,
    evaluate,
    expanding_window_folds,
    filter_deviation_events,
    model_spec,
)
from .gbt import (
    GbtConfig,
    GbtModel,
    TreeNode,
    fit_tree,
    gbt_predict,
    gbt_predict_batch,
    gbt_train,
    leaf_weight,
    split_gain,
    tree_predict,
)
from .persistence import (
    KINDS,
    ModelKind,
    ebm_from_dict,
    ebm_to_dict,
    gbt_from_dict,
    gbt_to_dict,
    load_model,
    save_model,
    stacked_from_dict,
    stacked_to_dict,
)
from .stacking import (
    StackedModel,
    stacked_predict,
    stacked_predict_batch,
    stacked_train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
