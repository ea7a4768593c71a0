"""Naive persistence forecaster.

An h-step-ahead forecast issued at time t can observe the series only up to
t, so the persistence forecast for the value at t is the target observed h
steps earlier. Any smaller lag would leak future information. The model
stores nothing: it lags by the ``horizon_steps`` of the data it predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistoryError, check_bound


@dataclass(frozen=True)
class NaiveModel:
    """The persistence model, which has no fields."""


def naive_forecast(series, horizon_steps: int, idx):
    """Persistence forecast for index ``idx``: the value ``horizon_steps`` earlier.

    ``idx`` is an int (returns a float), an index array or a slice (returns
    an array). Every index needs ``horizon_steps`` steps of history, and an
    empty selection has no forecast to give.
    """
    check_bound("horizon_steps", horizon_steps, 1, integer=True)
    s = np.asarray(series, dtype=np.float64)
    t = np.arange(len(s))[idx] if isinstance(idx, slice) else np.asarray(idx)
    if t.size == 0 or t.min() < horizon_steps:
        raise InsufficientHistoryError(
            f"persistence forecasts need {horizon_steps} steps of history, i.e. an "
            f"index >= {horizon_steps}; got {t.min() if t.size else 'no index'}"
        )
    return float(s[t - horizon_steps]) if t.ndim == 0 else s[t - horizon_steps]
