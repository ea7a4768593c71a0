"""Metrics, expanding-window cross-validation, and deviation-event reports.

One fold runner, run_folds, does all fitting: each fold trains fresh models
on all rows before its test window and predicts the window that follows, so
every training issue time precedes the test segment; the stack reuses the
fold's EBM when the ebm model has the same config. In a dataset aligned at
h (``d.horizon_steps``) the targets are prices realized h steps after the
issue times, so those of the last h - 1 training rows are realized after
the test window opens: no embargo drops them yet. evaluate pools the test
predictions across folds into one segment and reports it twice: once as-is
and once keeping only deviation events, the rows where the realized price
moved away from the spot anchor by more than epsilon. The spot anchor is
the dataset's ``spot`` feature; a dataset without one cannot be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, write_csv
from .errors import InvalidArgumentError, check_bound
from .persistence import KINDS


@dataclass(frozen=True)
class Metrics:
    """MAE, RMSE, and coefficient of determination.

    ``r2`` is None when the evaluated targets are constant, in which case
    the usual definition divides by zero, or vary so little that the ratio
    overflows; MAE and RMSE are still valid. RMSE is finite wherever it is
    representable: squared errors that overflow are rescaled by the largest.
    """

    mae: float
    rmse: float
    r2: float | None


@np.errstate(over="ignore", invalid="ignore")  # an overflow is handled where it happens
def compute_metrics(y, y_hat) -> Metrics:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise InvalidArgumentError(
            f"length mismatch: y has shape {y.shape}, y_hat has shape {y_hat.shape}"
        )
    if len(y) < 2:
        raise InvalidArgumentError(f"metrics need at least 2 points, got {len(y)}")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise InvalidArgumentError("metrics inputs must be finite")
    err = y - y_hat
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err**2)))
    # A mean that overflows, of errors that do not, is taken over the errors
    # scaled by their largest.
    if np.inf in (mae, rmse) and np.isfinite(err).all():
        scale = float(np.abs(err).max())
        if mae == np.inf:
            mae = scale * float(np.mean(np.abs(err / scale)))
        if rmse == np.inf:
            rmse = scale * float(np.sqrt(np.mean((err / scale) ** 2)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return Metrics(mae=mae, rmse=rmse, r2=None)
    r2 = 1.0 - float(np.sum(err**2)) / ss_tot
    return Metrics(mae=mae, rmse=rmse, r2=r2 if np.isfinite(r2) else None)


@dataclass(frozen=True)
class FoldSpec:
    """Train on rows [0, train_end); test on [test_start, test_end)."""

    train_end: int
    test_start: int
    test_end: int

    def __post_init__(self):
        if not (1 <= self.train_end <= self.test_start < self.test_end):
            raise InvalidArgumentError(
                f"invalid fold: train_end={self.train_end}, "
                f"test=[{self.test_start}, {self.test_end})"
            )


def expanding_window_folds(n: int, initial_train: int, test_len: int) -> list[FoldSpec]:
    """Time-ordered folds whose training windows grow by one test window each.

    Fold k trains on [0, initial_train + k*test_len) and tests on the next
    ``test_len`` rows; the final fold may be shorter when the tail does not
    divide evenly, so the folds tile everything after the initial window.
    """
    check_bound("initial_train", initial_train, 1, integer=True)
    check_bound("test_len", test_len, 1, integer=True)
    if initial_train + test_len > n:
        raise InvalidArgumentError(
            f"initial_train + test_len = {initial_train + test_len} exceeds n = {n}"
        )
    folds = []
    start = initial_train
    while start < n:
        end = min(start + test_len, n)
        folds.append(FoldSpec(train_end=start, test_start=start, test_end=end))
        start = end
    return folds


def filter_deviation_events(y, y_hat, spot, epsilon: float):
    """Keep only the rows where the price deviates from spot by more than
    ``epsilon``; returns (y_kept, y_hat_kept, n_orig, n_filter)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    spot = np.asarray(spot, dtype=np.float64)
    if not (y.shape == y_hat.shape == spot.shape):
        raise InvalidArgumentError("y, y_hat, and spot must have equal lengths")
    check_bound("epsilon", epsilon, 0)
    keep = np.abs(spot - y) > epsilon
    return y[keep], y_hat[keep], int(len(y)), int(keep.sum())


# A fitted predictor maps (full dataset, row indices) to predictions; the
# naive baseline needs the full target history, learned models only the rows.
Predictor = Callable[[Dataset, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """A label plus a trainer called as ``fit(train, fitted)`` on each
    fold's training slice, where the fold's ``fitted`` dict is shared as
    :class:`ModelKind` describes; a trainer may ignore it."""

    label: str
    fit: Callable[[Dataset, dict], Predictor]


def model_spec(kind: str, cfg) -> ModelSpec:
    """Spec labelled ``kind`` that trains ``KINDS[kind]`` with ``cfg`` on each
    fold; :class:`ModelKind` says which cfg each kind takes."""
    entry = KINDS[kind]

    def fit(train: Dataset, fitted: dict) -> Predictor:
        model = entry.train(train, cfg, fitted)
        return lambda d, idx: entry.predict(model, d, idx)

    return ModelSpec(label=kind, fit=fit)


@dataclass(frozen=True)
class EvalRow:
    label: str
    direction: str
    model: str
    filtered: bool
    n_orig: int
    n_filter: int
    metrics: Metrics | None

    @property
    def removal_fraction(self) -> float:
        return 1.0 - self.n_filter / self.n_orig


def _report_cells(row: EvalRow) -> list:
    """The ``report.csv`` cells of ``row``; metrics that do not exist are None."""
    m = row.metrics
    return [
        row.label, row.direction, row.model, "true" if row.filtered else "false",
        row.n_orig, row.n_filter, *((m.mae, m.rmse, m.r2) if m else (None,) * 3),
    ]


def _column(value: float, width: int) -> str:
    """``value`` in ``width`` characters with 4 decimals, or in e-notation if wider."""
    text = f"{value:{width}.4f}"
    return text if len(text) <= width else f"{value:{width}.{width - 8}e}"


@dataclass
class EvalReport:
    """Metric rows plus the pooled test segment they were computed on: its
    issue timestamps, the actual targets and each model's predictions, keyed
    by model label."""

    issue_timestamps: np.ndarray
    actual: np.ndarray
    rows: list[EvalRow] = field(default_factory=list)
    predictions: dict[str, np.ndarray] = field(default_factory=dict)

    def save(self, out) -> None:
        """Write ``report.csv``, ``report.txt`` and ``predictions.csv`` into
        the directory ``out``."""
        out = Path(out)
        write_csv(
            out / "report.csv",
            ["label", "direction", "model", "filtered", "n_orig", "n_filter", "mae", "rmse", "r2"],
            list(zip(*map(_report_cells, self.rows))),
        )
        (out / "report.txt").write_text(self.format_table() + "\n")
        preds = list(self.predictions.values())
        write_csv(
            out / "predictions.csv",
            ["model", "issue_timestamp", "actual", "predicted"],
            [
                [m for m in self.predictions for _ in range(len(self.actual))],
                np.tile(self.issue_timestamps, len(preds)),
                np.tile(self.actual, len(preds)),
                np.concatenate(preds) if preds else self.actual[:0],
            ],
        )

    def format_table(self) -> str:
        """Aligned plain-text table, one row per (model, filter state)."""
        header = (
            f"{'label':<12} {'dir':<5} {'model':<10} {'filtered':<8} "
            f"{'n_orig':>8} {'n_filter':>8} {'removed':>8} "
            f"{'MAE':>10} {'RMSE':>10} {'R2':>9}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            m = row.metrics
            mae = _column(m.mae, 10) if m else " " * 10
            rmse = _column(m.rmse, 10) if m else " " * 10
            r2 = _column(m.r2, 9) if m and m.r2 is not None else " " * 9
            removed = f"{100.0 * row.removal_fraction:7.2f}%"
            lines.append(
                f"{row.label:<12} {row.direction:<5} {row.model:<10} "
                f"{'yes' if row.filtered else 'no':<8} "
                f"{row.n_orig:>8} {row.n_filter:>8} {removed:>8} {mae} {rmse} {r2}"
            )
        return "\n".join(lines)


def run_folds(models: Sequence[ModelSpec], d: Dataset, folds: Sequence[FoldSpec]):
    """Yield, fold by fold, each spec's predictions of the fold's test rows
    in spec order. The only code that fits: each spec once per fold, on the
    rows before ``train_end``, all sharing one ``fitted`` dict per fold."""
    for fold in folds:
        train = d.slice_rows(0, fold.train_end)
        idx = np.arange(fold.test_start, fold.test_end)
        # Leakage guard: every training issue timestamp strictly precedes
        # the test window. Training targets are realized h steps later, so
        # the last h - 1 of them can postdate its start (no embargo yet).
        assert d.timestamps[fold.train_end - 1] < d.timestamps[fold.test_start]
        fitted: dict = {}
        yield [np.asarray(spec.fit(train, fitted)(d, idx), dtype=np.float64) for spec in models]


def evaluate(
    models: Sequence[ModelSpec],
    d: Dataset,
    folds: Sequence[FoldSpec],
    epsilon: float = 1e-6,
    label: str = "synthetic",
    direction: str = "up",
) -> EvalReport:
    """Pool the test predictions of :func:`run_folds` and score them.

    Emits two rows per model: unfiltered metrics over the pooled test
    predictions, and metrics restricted to deviation events. The report
    also carries the pooled segment and each model's pooled predictions.
    A dataset without a ``spot`` feature, a fold past its end, two specs
    with one label or an ``epsilon`` that is not finite and >= 0 raises
    before any fit.
    """
    check_bound("epsilon", epsilon, 0)
    for fold in folds:
        if fold.test_end > d.n_rows:
            raise InvalidArgumentError(f"fold {fold} exceeds dataset with {d.n_rows} rows")
    if len({spec.label for spec in models}) < len(models):
        raise InvalidArgumentError(f"model labels repeat: {[spec.label for spec in models]}")
    test_idx = np.concatenate([np.arange(f.test_start, f.test_end) for f in folds])
    y_pool = d.target[test_idx]
    spot_pool = d.spot[test_idx]
    report = EvalReport(issue_timestamps=d.timestamps[test_idx], actual=y_pool)
    for spec, fold_preds in zip(models, zip(*run_folds(models, d, folds))):
        pred_pool = np.concatenate(fold_preds)
        report.predictions[spec.label] = pred_pool
        pooled = compute_metrics(y_pool, pred_pool)
        y_kept, pred_kept, n_orig, n_filter = filter_deviation_events(
            y_pool, pred_pool, spot_pool, epsilon
        )
        kept = compute_metrics(y_kept, pred_kept) if n_filter >= 2 else None
        for filtered, n, metrics in ((False, n_orig, pooled), (True, n_filter, kept)):
            report.rows.append(EvalRow(label, direction, spec.label, filtered, n_orig, n, metrics))
    return report
