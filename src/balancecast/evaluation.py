"""Metrics, expanding-window cross-validation, and deviation-event reports.

Every fold trains fresh models on all rows before its test window and
predicts the window that follows, so training data never overlaps or
postdates the test segment; the stack reuses the fold's EBM when the ebm
model has the same config. Test predictions are pooled across folds into a
single evaluated segment, then reported twice: once as-is and once keeping
only deviation events, the rows where the realized price moved away from the
spot anchor by more than epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, csv_line, write_csv_lines
from .errors import InvalidArgumentError
from .persistence import KINDS


@dataclass(frozen=True)
class Metrics:
    """MAE, RMSE, and coefficient of determination.

    ``r2`` is None when the evaluated targets are constant, in which case
    the usual definition divides by zero, or vary so little that the ratio
    overflows; MAE and RMSE are still valid.
    """

    mae: float
    rmse: float
    r2: float | None


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
    if initial_train < 1 or test_len < 1:
        raise InvalidArgumentError(
            f"initial_train and test_len must be >= 1, got {initial_train}, {test_len}"
        )
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
    if epsilon < 0:
        raise InvalidArgumentError(f"epsilon must be >= 0, got {epsilon}")
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
    """The ``report.csv`` cells of ``row``; metrics that do not exist are empty."""
    m = row.metrics
    return [
        row.label, row.direction, row.model, "true" if row.filtered else "false",
        row.n_orig, row.n_filter,
        "" if m is None else repr(m.mae),
        "" if m is None else repr(m.rmse),
        "" if m is None or m.r2 is None else repr(m.r2),
    ]


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
        write_csv_lines(
            out / "report.csv",
            ["label", "direction", "model", "filtered", "n_orig", "n_filter", "mae", "rmse", "r2"],
            (csv_line(_report_cells(row)) for row in self.rows),
        )
        (out / "report.txt").write_text(self.format_table() + "\n")
        issued = self.issue_timestamps.tolist()
        actual = self.actual.tolist()
        write_csv_lines(
            out / "predictions.csv",
            ["model", "issue_timestamp", "actual", "predicted"],
            (
                csv_line([model, issue, repr(y), repr(pred)])
                for model, pred_pool in self.predictions.items()
                for issue, y, pred in zip(issued, actual, pred_pool.tolist())
            ),
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
            mae = f"{m.mae:10.4f}" if m else " " * 10
            rmse = f"{m.rmse:10.4f}" if m else " " * 10
            r2 = f"{m.r2:9.4f}" if m and m.r2 is not None else " " * 9
            removed = f"{100.0 * row.removal_fraction:7.2f}%"
            lines.append(
                f"{row.label:<12} {row.direction:<5} {row.model:<10} "
                f"{'yes' if row.filtered else 'no':<8} "
                f"{row.n_orig:>8} {row.n_filter:>8} {removed:>8} {mae} {rmse} {r2}"
            )
        return "\n".join(lines)


def evaluate(
    models: Sequence[ModelSpec],
    d: Dataset,
    folds: Sequence[FoldSpec],
    epsilon: float = 1e-6,
    label: str = "synthetic",
    direction: str = "up",
) -> EvalReport:
    """Train-and-test every model over the folds and pool the test segments.

    Emits two rows per model: unfiltered metrics over the pooled test
    predictions, and metrics restricted to deviation events. The report
    also carries the pooled segment and each model's pooled predictions.
    """
    for fold in folds:
        if fold.test_end > d.n_rows:
            raise InvalidArgumentError(
                f"fold {fold} exceeds dataset with {d.n_rows} rows"
            )
    test_idx = np.concatenate(
        [np.arange(f.test_start, f.test_end) for f in folds]
    )
    y_pool = d.target[test_idx]
    spot_pool = d.spot[test_idx]
    report = EvalReport(issue_timestamps=d.timestamps[test_idx], actual=y_pool)
    preds: list[list[np.ndarray]] = [[] for _ in models]
    for fold in folds:
        train = d.slice_rows(0, fold.train_end)
        idx = np.arange(fold.test_start, fold.test_end)
        # Leakage guard: all training timestamps strictly precede the test
        # window.
        assert d.timestamps[fold.train_end - 1] < d.timestamps[fold.test_start]
        fitted: dict = {}
        for spec, spec_preds in zip(models, preds):
            predictor = spec.fit(train, fitted)
            spec_preds.append(np.asarray(predictor(d, idx), dtype=np.float64))
    for spec, spec_preds in zip(models, preds):
        pred_pool = np.concatenate(spec_preds)
        report.predictions[spec.label] = pred_pool
        pooled = compute_metrics(y_pool, pred_pool)
        y_kept, pred_kept, n_orig, n_filter = filter_deviation_events(
            y_pool, pred_pool, spot_pool, epsilon
        )
        kept = compute_metrics(y_kept, pred_kept) if n_filter >= 2 else None
        for filtered, n, metrics in ((False, n_orig, pooled), (True, n_filter, kept)):
            report.rows.append(EvalRow(label, direction, spec.label, filtered, n_orig, n, metrics))
    return report
