import dataclasses
import math

import pytest

from balancecast import EbmConfig, GbtConfig, InvalidArgumentError, SyntheticConfig, UsageError
from balancecast.errors import check_bound
from balancecast.stacking import META_GBT_DEFAULTS

# One valid instance of every class whose fields are bounded settings.
SETTINGS = {
    "GbtConfig": GbtConfig(),
    "EbmConfig": EbmConfig(),
    "META_GBT_DEFAULTS": META_GBT_DEFAULTS,
    "SyntheticConfig": SyntheticConfig(),
}
FIELDS = [
    (name, f.name, type(getattr(base, f.name)))
    for name, base in SETTINGS.items()
    for f in dataclasses.fields(base)
]


@pytest.mark.parametrize("settings, field, kind", FIELDS)
def test_every_setting_rejects_what_is_not_a_number_of_its_type(settings, field, kind):
    bad = [True, False, "1", None]
    bad += [2.5] if kind is int else [math.nan, math.inf, -math.inf, 10**400]
    for value in bad:
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be "):
            dataclasses.replace(SETTINGS[settings], **{field: value})


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("n_trees", -1, 0), {"integer": True}, "n_trees must be an integer >= 0, got -1"),
        (("seed", 1.0, 0), {"integer": True}, "seed must be an integer >= 0, got 1.0"),
        (("epsilon", -0.5, 0), {}, "epsilon must be finite and >= 0, got -0.5"),
        (("spike_scale", 0.0, 0), {"above": True}, "spike_scale must be finite and > 0, got 0.0"),
        (("spike_prob", 1.5, 0, 1), {}, "spike_prob must be in [0, 1], got 1.5"),
        (("learning_rate", 0, 0, 1), {"above": True}, "learning_rate must be in (0, 1], got 0"),
        (("noise_sd", "2", 0), {}, "noise_sd must be finite and >= 0, got '2'"),
    ],
)
def test_check_bound_message(args, kwargs, message):
    with pytest.raises(InvalidArgumentError) as info:
        check_bound(*args, **kwargs)
    assert str(info.value) == message


def test_check_bound_raises_a_usage_error_with_exit_code_2():
    with pytest.raises(UsageError) as info:
        check_bound("row", -1, 0, integer=True)
    assert info.value.exit_code == 2 and isinstance(info.value, InvalidArgumentError)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("n", 0, 0), {"integer": True}),
        (("n", 10**400, 0), {"integer": True}),
        (("x", 0.0, 0), {}),
        (("x", 1, 0, 1), {"above": True}),
        (("x", -0.0, 0), {}),
    ],
)
def test_check_bound_accepts_values_on_the_bound(args, kwargs):
    check_bound(*args, **kwargs)
