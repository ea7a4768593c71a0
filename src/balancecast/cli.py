"""Command-line entry point.

Subcommands: synth, train, predict, evaluate, explain, grid. Every command
is deterministic given its flags and input files, and all emitted artifacts
are plain CSV/JSON so any plotting tool can consume them. A dataset's CSV
header names its features, and a saved model runs only on data with the
features it was trained on. Flags may also be supplied through a JSON
config file (--config); explicit flags win.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric/training
error. Each error class carries its code as ``exit_code`` (errors.py); an
OS error on any file is a data error (3). Each flag's bound is checked once,
by ``check_bound`` where its value is used.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

from .data import (
    DEFAULT_HORIZON_STEPS,
    Dataset,
    SyntheticConfig,
    align_horizon,
    generate_synthetic,
    load_csv,
    read_json_object,
    save_csv,
    save_truth_json,
    write_csv,
)
from .ebm import EbmConfig, ebm_predict, explain_local, save_global_explanation
from .errors import (
    BalancecastError, InvalidArgumentError, SchemaError, UnsupportedModelError, UsageError,
    check_bound,
)
from .evaluation import evaluate, expanding_window_folds, model_spec
from .gbt import GbtConfig
from .persistence import KINDS, load_model, save_model
from .stacking import META_GBT_DEFAULTS

# The configs the CLI builds from flags, at their defaults.
CONFIG_DEFAULTS = {
    "gbt": GbtConfig(),
    "ebm": EbmConfig(),
    "meta": META_GBT_DEFAULTS,
    "synth": SyntheticConfig(),
}
# (flag dest, config, field): the flag sets that field of that config; a flag
# left unset keeps the default.
CONFIG_FLAGS = (
    ("n_trees", "gbt", "n_trees"),
    ("learning_rate", "gbt", "learning_rate"),
    ("gamma", "gbt", "gamma"),
    ("reg_lambda", "gbt", "reg_lambda"),
    ("max_depth", "gbt", "max_depth"),
    ("min_child_weight", "gbt", "min_child_weight"),
    ("outer_rounds", "ebm", "outer_rounds"),
    ("learning_rate", "ebm", "learning_rate"),
    ("max_bins", "ebm", "max_bins"),
    ("max_leaves", "ebm", "max_leaves_per_round"),
    ("meta_n_trees", "meta", "n_trees"),
    ("meta_max_depth", "meta", "max_depth"),
    ("meta_learning_rate", "meta", "learning_rate"),
    ("n_rows", "synth", "n_rows"),
    ("seed", "synth", "seed"),
    ("noise_sd", "synth", "noise_sd"),
    ("spike_prob", "synth", "spike_prob"),
    ("spike_scale", "synth", "spike_scale"),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, help="JSON file of default flag values")
    parser.add_argument("--out", type=str, default=None, help="output directory")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", type=str, default=None, help="dataset CSV path")


def _add_config_flags(parser: argparse.ArgumentParser, *configs: str) -> None:
    added = set()
    for flag, config, field in CONFIG_FLAGS:
        if config in configs and flag not in added:
            added.add(flag)
            kind = type(getattr(CONFIG_DEFAULTS[config], field))
            parser.add_argument("--" + flag.replace("_", "-"), type=kind, default=None)


def _add_eval(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--horizon-steps", type=int, default=None)
    parser.add_argument("--initial-train", type=int, default=None)
    parser.add_argument("--test-len", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--label", type=str, default=None)
    parser.add_argument("--direction", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancecast",
        description="Forecast balancing-market activation prices with "
        "interpretable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    _add_common(p)
    _add_config_flags(p, "synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model and write model.json")
    _add_common(p)
    _add_data(p)
    _add_config_flags(p, "gbt", "ebm", "meta")
    # predict and explain take the horizon from the model file.
    p.add_argument("--horizon-steps", type=int, default=None)
    p.add_argument("--model", type=str, default=None, help="|".join(KINDS))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict with a saved model")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", type=str, default=None, help="model JSON file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="expanding-window evaluation report")
    _add_common(p)
    _add_data(p)
    _add_config_flags(p, "gbt", "ebm", "meta")
    _add_eval(p)
    p.add_argument(
        "--models", type=str, default=None, help="comma-separated subset of " + ",".join(KINDS)
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="export shape functions and importance")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", type=str, default=None, help="model JSON file (ebm only)")
    p.add_argument("--row", type=int, default=None, help="local explanation row")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("grid", help="evaluate a hyperparameter grid")
    _add_common(p)
    _add_data(p)
    _add_eval(p)
    p.add_argument("--model", type=str, default=None, help="gbt|ebm")
    p.add_argument(
        "--param",
        action="append",
        type=str,
        default=None,
        help="name=v1,v2,... (repeatable)",
    )
    p.set_defaults(func=cmd_grid)
    for p in sub.choices.values():
        # Every flag has a type, with which a config-file value is cast.
        p.set_defaults(flag_actions={a.dest: a for a in p._actions if a.type})
    return parser


def _config_value(action: argparse.Action, value):
    """A config-file ``value`` cast with the type of ``action``'s flag. It
    must be a JSON string or number (not a bool, and whole for an int flag),
    or a list of strings for a repeatable flag; anything else raises
    TypeError or ValueError."""
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise TypeError(value)
        return [action.type(v) for v in value]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(value)
    if action.type is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return action.type(value)


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill flags that were not given from the --config JSON file, whose
    keys must be flags of the command."""
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    try:
        doc = read_json_object(path, UsageError, "config file")
    except OSError as exc:  # missing, a directory, unreadable
        raise UsageError(f"config file {path}: {exc.strerror or exc}") from None
    for key, value in doc.items():
        action = args.flag_actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"config file {path}: unknown key {key!r}")
        if getattr(args, action.dest) is None and value is not None:
            try:
                setattr(args, action.dest, _config_value(action, value))
            except (TypeError, ValueError, OverflowError):
                raise UsageError(
                    f"config file {path}: bad value {value!r} for {key!r}"
                ) from None
    return args


def _get(args, name: str, fallback):
    value = getattr(args, name, None)
    return fallback if value is None else value


def _out_path(args) -> Path:
    """--out (default "."), not yet made. A regular file at it or above it is
    refused here, so that a command that fits models can fail before it fits."""
    out = Path(_get(args, "out", "."))
    for there in (out, *out.parents):
        if there.exists() and not there.is_dir():
            raise NotADirectoryError(f"--out {out}: {there} is not a directory")
    return out


def _out_dir(args) -> Path:
    """Make --out. Each command calls this only after its work has succeeded,
    so a command that fails leaves no --out behind."""
    out = _out_path(args)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args) -> Dataset:
    data = getattr(args, "data", None)
    if not data:
        raise UsageError("--data is required")
    return load_csv(data)


def _aligned(args) -> Dataset:
    return align_horizon(_load_dataset(args), _get(args, "horizon_steps", DEFAULT_HORIZON_STEPS))


def _config(args, name: str, **given):
    """CONFIG_DEFAULTS[name] with the ``given`` fields and those whose flags
    were given replaced; a value the config rejects is a usage error."""
    base = CONFIG_DEFAULTS[name]
    for flag, config, field in CONFIG_FLAGS:
        if config == name and getattr(args, flag, None) is not None:
            given[field] = getattr(args, flag)
    try:
        return dataclasses.replace(base, **given)
    except ValueError as exc:  # InvalidArgumentError is a ValueError
        raise UsageError(f"bad {name} config: {exc}") from None


def _kind_config(args, kind: str):
    """The cfg that KINDS[kind].train takes, from the flags; None for naive."""
    if kind == "stacked":
        return _config(args, "ebm"), _config(args, "meta")
    return _config(args, kind) if kind in CONFIG_DEFAULTS else None


def cmd_synth(args) -> None:
    dataset, truth = generate_synthetic(_config(args, "synth"))
    out = _out_dir(args)
    save_csv(dataset, out / "dataset.csv")
    save_truth_json(truth, dataset, out / "truth.json")
    print(f"wrote {out / 'dataset.csv'} ({dataset.n_rows} rows)")
    print(f"wrote {out / 'truth.json'}")


def cmd_train(args) -> None:
    kind = getattr(args, "model", None)
    if kind not in KINDS:
        raise UsageError(f"--model must be one of {', '.join(KINDS)}, got {kind!r}")
    aligned = _aligned(args)
    cfg = _kind_config(args, kind)
    _out_path(args)
    model = KINDS[kind].train(aligned, cfg)
    out = _out_dir(args)
    save_model(model, aligned.horizon_steps, out / "model.json")
    print(f"wrote {out / 'model.json'} (kind={kind}, horizon={aligned.horizon_steps})")


def _model_and_data(args):
    """(kind, horizon, model, dataset) from --model and --data, for a model
    trained on the data's features."""
    model_path = getattr(args, "model", None)
    if not model_path:
        raise UsageError("--model is required")
    kind, horizon, model = load_model(model_path)
    d = _load_dataset(args)
    schema = getattr(model, "schema", d.schema)  # naive reads only the target
    if schema != d.schema:
        raise SchemaError(
            f"model {model_path} has features {list(schema.names)}, "
            f"the data {list(d.schema.names)}"
        )
    return kind, horizon, model, d


def cmd_predict(args) -> None:
    kind, horizon, model, raw = _model_and_data(args)
    aligned = align_horizon(raw, horizon)
    # The persistence forecast needs horizon rows of history.
    rows = slice(horizon if kind == "naive" else 0, aligned.n_rows)
    preds = KINDS[kind].predict(model, aligned, rows)
    out = _out_dir(args)
    issued = aligned.timestamps[rows]
    header = ["issue_timestamp", "target_timestamp", "prediction"]
    write_csv(out / "predictions.csv", header, [issued, issued + horizon, preds])
    print(f"wrote {out / 'predictions.csv'}")


def _backtest(args):
    """(aligned data, folds, evaluate() keywords) for evaluate and grid; the
    fold flags have no default, and evaluate() keeps its own for the rest."""
    aligned = _aligned(args)
    folds = expanding_window_folds(aligned.n_rows, args.initial_train, args.test_len)
    given = {name: getattr(args, name, None) for name in ("epsilon", "label", "direction")}
    options = {name: v for name, v in given.items() if v is not None}
    return aligned, folds, options


def cmd_evaluate(args) -> None:
    names = [s.strip() for s in _get(args, "models", ",".join(KINDS)).split(",") if s.strip()]
    if not names:
        raise UsageError("--models lists no model kinds")
    for i, name in enumerate(names):
        if name not in KINDS:
            raise UsageError(f"unknown model kind {name!r}")
        if name in names[:i]:
            raise UsageError(f"--models lists {name!r} more than once")
    aligned, folds, options = _backtest(args)
    specs = [model_spec(name, _kind_config(args, name)) for name in names]
    _out_path(args)
    report = evaluate(specs, aligned, folds, **options)
    out = _out_dir(args)
    report.save(out)
    print(report.format_table())
    print(f"wrote {out / 'report.csv'}, {out / 'report.txt'}, {out / 'predictions.csv'}")


def cmd_explain(args) -> None:
    kind, _horizon, model, d = _model_and_data(args)
    if kind != "ebm":
        raise UnsupportedModelError(
            f"explain requires an ebm model file, got kind={kind!r}"
        )
    row = getattr(args, "row", None)
    if row is None:
        out = _out_dir(args)
        save_global_explanation(model, d, out)
        print(f"wrote {out / 'importance.csv'}, {out / 'shapes.csv'}")
    else:
        check_bound("row", row, 0, integer=True)
        if row >= d.n_rows:
            raise InvalidArgumentError(f"--row {row} out of range for {d.n_rows} rows")
        x = d.features[row]
        rows = [*explain_local(model, x), ("__intercept__", model.intercept)]
        rows.append(("__prediction__", ebm_predict(model, x)))
        out = _out_dir(args)
        write_csv(out / "local_explanation.csv", ["feature", "contribution"], list(zip(*rows)))
        print(f"wrote {out / 'local_explanation.csv'}")


def _parse_grid_params(param_args, base):
    grid: list[tuple[str, list]] = []
    for raw in param_args:
        if "=" not in raw:
            raise UsageError(f"--param expects name=v1,v2,..., got {raw!r}")
        name, _, values = raw.partition("=")
        name = name.strip().replace("-", "_")
        if name not in {f.name for f in dataclasses.fields(base)}:
            raise UsageError(
                f"unknown {type(base).__name__} parameter {name!r}"
            )
        caster = type(getattr(base, name))
        try:
            parsed = [caster(v) for v in values.split(",") if v != ""]
        except ValueError:
            raise UsageError(f"cannot parse values for --param {raw!r}") from None
        if not parsed:
            raise UsageError(f"--param {raw!r} lists no values")
        grid.append((name, parsed))
    return grid


def cmd_grid(args) -> None:
    kind = getattr(args, "model", None)
    if kind not in ("gbt", "ebm"):
        raise UsageError(f"grid search supports gbt or ebm, got {kind!r}")
    grid = _parse_grid_params(getattr(args, "param", None) or [], CONFIG_DEFAULTS[kind])
    if not grid:
        raise UsageError("grid search needs at least one --param")
    aligned, folds, options = _backtest(args)
    names = [name for name, _ in grid]
    combos = list(itertools.product(*(values for _, values in grid)))
    cfgs = [_config(args, kind, **dict(zip(names, c))) for c in combos]
    # A combination's index labels its spec, since --param may repeat a value.
    specs = [dataclasses.replace(model_spec(kind, c), label=str(i)) for i, c in enumerate(cfgs)]
    _out_path(args)
    report = evaluate(specs, aligned, folds, **options)
    out = _out_dir(args)
    results = sorted(zip(combos, report.rows[::2]), key=lambda r: (r[1].metrics.mae, r[0]))
    rows = [(*combo, row.metrics.mae, row.metrics.rmse, row.metrics.r2) for combo, row in results]
    write_csv(out / "grid.csv", [*names, "mae", "rmse", "r2"], list(zip(*rows)))
    print(f"wrote {out / 'grid.csv'} ({len(rows)} combinations)")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _merge_config(args)
        args.func(args)
        return 0
    except BalancecastError as exc:
        error, code = exc, exc.exit_code
    except OSError as exc:  # a missing, unreadable or unwritable file
        error, code = exc, 3
    except ArithmeticError as exc:
        error, code = exc, 4
    print(f"error: {error}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
