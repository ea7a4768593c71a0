import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balancecast import (
    InsufficientHistoryError,
    InvalidArgumentError,
    NaiveModel,
    naive_forecast,
)


def test_index_shift():
    assert naive_forecast([5, 7, 9], 1, 2) == 7


def test_constant_series():
    series = [4.2] * 10
    for t in range(3, 10):
        assert naive_forecast(series, 3, t) == 4.2


def test_long_horizon_by_hand():
    # series = 1..40, h = 32, t = 35 -> element at index 3, value 4.
    series = list(range(1, 41))
    assert naive_forecast(series, 32, 35) == 4


def test_insufficient_history():
    with pytest.raises(InsufficientHistoryError):
        naive_forecast([1, 2, 3], 2, 1)


def test_horizon_validation():
    with pytest.raises(InvalidArgumentError):
        naive_forecast([1, 2, 3], 0, 2)
    with pytest.raises(InvalidArgumentError):
        NaiveModel(horizon_steps=0)


@given(
    series=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
    h=st.integers(1, 10),
)
def test_vectorized_equivalence(series, h):
    if h >= len(series):
        with pytest.raises(InsufficientHistoryError):
            naive_forecast(series, h, slice(h, None))
        return
    vec = naive_forecast(series, h, slice(h, None))
    per_index = [naive_forecast(series, h, t) for t in range(h, len(series))]
    assert np.array_equal(vec, np.asarray(per_index))


def test_constant_series_zero_mae():
    series = np.full(50, 7.0)
    for h in (1, 8, 32):
        forecasts = naive_forecast(series, h, slice(h, None))
        assert np.mean(np.abs(forecasts - series[h:])) == 0.0
