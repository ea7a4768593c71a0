"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with the thread-pool variables pinned to 1 and
``src/`` on ``PYTHONPATH``. It sets the workload up several times and, after
each of the first set-ups, runs operations in a closed loop with one client
until that window's share of ``--seconds`` has passed. Each set-up and
operation is timed in seconds at reference speed (see ``speed.py``). It
checks every output against its definition and writes a JSON result to
``--out``. With
``--trace 1`` it also records spans (see ``tracing.py``) and reports
per-layer metrics instead of end-to-end ones.

Workloads (each is one operation repeated; the seed picks the synthetic
series, and the program sees only the files and rows made from it):

* ``backtest``: ``evaluate`` of all four models on a 2000-row series,
  2 folds of 384 rows, through ``cli.main``. The paper's experiment; GBT
  split search dominates it.
* ``batch_forecast``: ``synth`` of one year (35,040 quarter-hours), then
  ``predict`` with a saved default ``gbt`` and a saved ``stacked`` model,
  through ``cli.main``; then one day of 96 single-row requests, each calling
  ``stacked_predict``, ``explain_local`` on the stack's additive base and
  ``gbt_predict``, walking the year's issue times in order. CSV I/O and
  batch tree predict; no training.
* ``interpret``: ``load_csv``, ``align_horizon``, ``ebm_train``,
  ``global_importance``, ``export_shapes``, ``explain_local`` for the last
  96 rows and ``save_model`` on the year file, for next-quarter-hour
  forecasts. EBM rounds dominate it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import balancecast as bc
from balancecast import cli

from speed import SpeedProbe
from tracing import Tracer

# Set-up runs at least SETUP_REPEATS times, and again until it has taken
# SETUP_MIN_S in all (up to SETUP_MAX_REPEATS), so that a set-up of a few
# milliseconds still yields a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
# The measured loop is cut into one window after each of the first WINDOWS
# set-ups, so that its operations spread over the whole run rather than one
# phase of the machine's speed.
WINDOWS = SETUP_REPEATS
HORIZON = 32
YEAR_ROWS = 365 * 96
# Forecast models are trained on the year's first two weeks; their cost is
# dominated by per-node work, which barely depends on the row count.
TRAIN_ROWS = 14 * 96
DAY = 96
# The interpretability model explains the next quarter-hour's price. At the
# 8-hour forecast horizon the hour of day, not the issue-time spot price,
# carries most of the signal, so "spot ranks first" holds only at short
# horizons (the experiment script fits its explainer on same-time rows too).
INTERPRET_HORIZON = 1
BACKTEST_ARGS = ["--models", "naive,gbt,ebm,stacked", "--initial-train", "1200",
                 "--test-len", "384", "--epsilon", "25"]
BACKTEST_EPSILON = 25.0
MODELS = ("naive", "gbt", "ebm", "stacked")


class CheckFailed(Exception):
    """An output does not meet its definition."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    require(rc == 0, f"balancecast {argv[0]} exited {rc}")


def sha256_files(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# -- workloads ---------------------------------------------------------------


class Workload:
    """``setup(work, seed) -> state`` is timed as set-up and
    ``op(state, work, i) -> result`` as one operation. ``digest(state,
    result) -> str`` runs untimed after every operation, checks what can be
    checked cheaply and hashes the outputs; ``final_check(state, work)`` runs
    once after the measured loop on the last operation's outputs. Both raise
    ``CheckFailed`` when an output does not meet its definition."""

    def final_check(self, state, work: Path) -> None:
        pass


class Backtest(Workload):

    def setup(self, work: Path, seed: int):
        run_cli(["synth", "--n-rows", "2000", "--seed", str(seed), "--out", str(work)])
        return work / "dataset.csv"

    def op(self, data: Path, work: Path, i: int):
        out = work / f"op{i}"
        run_cli(["evaluate", "--data", str(data), *BACKTEST_ARGS, "--out", str(out)])
        return out

    def digest(self, data: Path, out: Path) -> str:
        """Report rows recomputed from the predictions, by definition."""
        _, raw = read_csv(data)
        spot = {int(r[0]): float(r[1]) for r in raw}
        header, report = read_csv(out / "report.csv")
        require(len(report) == 2 * len(MODELS), f"{len(report)} report rows, expected 8")
        _, preds = read_csv(out / "predictions.csv")
        require(len(preds) == len(MODELS) * 768, f"{len(preds)} prediction rows, expected 3072")
        col = {name: k for k, name in enumerate(header)}
        reported = {(r[col["model"]], r[col["filtered"]] == "true"): r for r in report}
        pooled = {}
        for model in MODELS:
            rows = [r for r in preds if r[0] == model]
            require(len(rows) == 768, f"{model}: {len(rows)} prediction rows")
            actual = np.array([float(r[2]) for r in rows])
            pred = np.array([float(r[3]) for r in rows])
            dev = np.abs(np.array([spot[int(r[1])] for r in rows]) - actual) > BACKTEST_EPSILON
            for filtered, keep in ((False, np.ones(len(rows), bool)), (True, dev)):
                row = reported.get((model, filtered))
                require(row is not None, f"no report row for {model} filtered={filtered}")
                err = actual[keep] - pred[keep]
                mae = float(np.mean(np.abs(err)))
                rmse = float(np.sqrt(np.mean(err**2)))
                require(int(row[col["n_filter"]]) == int(keep.sum()),
                        f"{model} filtered={filtered}: n_filter {row[col['n_filter']]} != {keep.sum()}")
                require(close(float(row[col["mae"]]), mae),
                        f"{model} filtered={filtered}: MAE {row[col['mae']]} != {mae!r}")
                require(close(float(row[col["rmse"]]), rmse),
                        f"{model} filtered={filtered}: RMSE {row[col['rmse']]} != {rmse!r}")
                pooled[model, filtered] = mae
        for model in MODELS:
            if model != "naive":
                require(pooled[model, False] < pooled["naive", False],
                        f"{model} pooled MAE {pooled[model, False]} not below naive")
            require(pooled[model, True] > pooled[model, False],
                    f"{model} deviation-event MAE not above pooled MAE")
        return sha256_files(out / "report.csv", out / "predictions.csv")


def train_forecast_models(work: Path, seed: int):
    """Generate the year, train default gbt and stacked models on its first
    two weeks, and save both; returns the model paths and the aligned year."""
    year, _ = bc.generate_synthetic(bc.SyntheticConfig(n_rows=YEAR_ROWS, seed=seed))
    aligned = bc.align_horizon(year, HORIZON)
    train = aligned.slice_rows(0, TRAIN_ROWS)
    gbt_path, stacked_path = work / "gbt.json", work / "stacked.json"
    bc.save_model(bc.gbt_train(train, bc.GbtConfig()), HORIZON, gbt_path)
    bc.save_model(bc.stacked_train(train), HORIZON, stacked_path)
    return gbt_path, stacked_path, aligned


class BatchForecast(Workload):
    def __init__(self):
        self.expected = None

    def setup(self, work: Path, seed: int):
        gbt_path, stacked_path, aligned = train_forecast_models(work, seed)
        _, _, gbt_model = bc.load_model(gbt_path)
        _, _, stacked = bc.load_model(stacked_path)
        return seed, gbt_path, stacked_path, gbt_model, stacked, aligned.features

    def op(self, state, work: Path, i: int):
        seed, gbt_path, stacked_path, gbt_model, stacked, x = state
        out = work / "op"
        run_cli(["synth", "--n-rows", str(YEAR_ROWS), "--seed", str(seed), "--out", str(out)])
        for name, path in (("gbt", gbt_path), ("stacked", stacked_path)):
            run_cli(["predict", "--data", str(out / "dataset.csv"), "--model", str(path),
                     "--out", str(out / name)])
        requests = []
        for r in range(i * DAY, (i + 1) * DAY):
            row = r % len(x)
            requests.append((row, bc.stacked_predict(stacked, x[row]),
                             bc.explain_local(stacked.base, x[row]), bc.gbt_predict(gbt_model, x[row])))
        return out, requests

    def digest(self, state, result) -> str:
        """Each single-row result equals the matching batch row bit for bit,
        and the intercept plus ``explain_local`` reproduces ``ebm_predict``."""
        _, _, _, gbt_model, stacked, x = state
        if self.expected is None:
            self.expected = (bc.stacked_predict_batch(stacked, x), bc.gbt_predict_batch(gbt_model, x))
        stacked_batch, gbt_batch = self.expected
        out, requests = result
        for row, s, contributions, g in requests:
            acc = stacked.base.intercept
            for _, c in contributions:
                acc += c
            require(s == stacked_batch[row] and math.isfinite(s),
                    f"row {row}: stacked_predict {s!r} != batch {stacked_batch[row]!r}")
            require(g == gbt_batch[row] and math.isfinite(g),
                    f"row {row}: gbt_predict {g!r} != batch {gbt_batch[row]!r}")
            require(acc == bc.ebm_predict(stacked.base, x[row]),
                    f"row {row}: intercept plus explain_local != ebm_predict")
        return sha256_files(out / "dataset.csv", out / "gbt" / "predictions.csv",
                            out / "stacked" / "predictions.csv")

    def final_check(self, state, work: Path) -> None:
        """The last op's CLI predictions equal in-process batch predictions
        on the loaded year file, bit for bit (earlier ops must match its
        digest)."""
        _, gbt_path, stacked_path, _, _, _ = state
        out = work / "op"
        loaded = bc.load_csv(out / "dataset.csv", bc.synthetic_schema())
        require(loaded.n_rows == YEAR_ROWS, f"year file has {loaded.n_rows} rows")
        for name, path, predict in (("gbt", gbt_path, bc.gbt_predict_batch),
                                    ("stacked", stacked_path, bc.stacked_predict_batch)):
            _, horizon, model = bc.load_model(path)
            aligned = bc.align_horizon(loaded, horizon)
            expected = predict(model, aligned.features)
            _, rows = read_csv(out / name / "predictions.csv")
            require(len(rows) == aligned.n_rows, f"{name}: {len(rows)} rows, expected {aligned.n_rows}")
            got = np.array([float(r[2]) for r in rows])
            issue = np.array([int(r[0]) for r in rows])
            require(np.array_equal(issue, aligned.timestamps), f"{name}: issue timestamps differ")
            require(bool(np.isfinite(got).all()), f"{name}: non-finite prediction")
            bad = int((got != expected).sum())
            require(bad == 0, f"{name}: {bad} predictions differ from in-process batch")


class Interpret(Workload):
    def setup(self, work: Path, seed: int):
        year, _ = bc.generate_synthetic(bc.SyntheticConfig(n_rows=YEAR_ROWS, seed=seed))
        path = work / "dataset.csv"
        bc.save_csv(year, path)
        return path

    def op(self, path: Path, work: Path, i: int):
        out = work / "op"
        out.mkdir(exist_ok=True)
        aligned = bc.align_horizon(bc.load_csv(path, bc.synthetic_schema()), INTERPRET_HORIZON)
        model = bc.ebm_train(aligned)
        ranking = bc.global_importance(model, aligned)
        shapes = bc.export_shapes(model)
        local = [bc.explain_local(model, aligned.features[r])
                 for r in range(aligned.n_rows - DAY, aligned.n_rows)]
        bc.save_model(model, INTERPRET_HORIZON, out / "model.json")
        return aligned, model, ranking, shapes, local, out / "model.json"

    def digest(self, state, result) -> str:
        """Shapes centered over the training rows, spot ranked first, and a
        training loss that never rises."""
        aligned, model, ranking, shapes, local, model_path = result
        for j, name in enumerate(model.schema.names):
            table = shapes[name]
            cuts = np.array([upper for _, upper, _ in table[:-1]])
            values = np.array([c for _, _, c in table])
            contrib = values[np.searchsorted(cuts, aligned.features[:, j], side="left")]
            scale = max(1.0, float(np.abs(values).max()))
            require(abs(float(contrib.mean())) <= 1e-9 * scale, f"shape {name} is not centered")
        require(ranking[0][0] == "spot", f"{ranking[0][0]} ranks first, expected spot")
        mse = np.array(model.train_mse)
        require(bool((np.diff(mse) <= 1e-12 * mse[0]).all()), "train_mse increases")
        h = hashlib.sha256(model_path.read_bytes())
        h.update(repr((ranking, shapes, local)).encode())
        return h.hexdigest()


WORKLOADS = {
    "backtest": Backtest,
    "batch_forecast": BatchForecast,
    "interpret": Interpret,
}


def run(name: str, seed: int, seconds: float, tracer: Tracer | None, work: Path,
        probe: SpeedProbe) -> dict:
    workload = WORKLOADS[name]()

    def set_op(op):
        if tracer is not None:
            tracer.op = op

    # Per set-up and per operation: wall seconds and the speed factor over
    # that interval; their product is its time at reference speed.
    setup_wall, setup_speed, setups = [], [], []
    op_wall, op_speed, ops, ok, digests, errors = [], [], [], [], [], []
    while len(setup_wall) < SETUP_REPEATS or (
        sum(setup_wall) < SETUP_MIN_S and len(setup_wall) < SETUP_MAX_REPEATS
    ):
        k = len(setup_wall)
        setup_dir = work / f"setup{k}"
        setup_dir.mkdir(parents=True)
        set_op(f"setup-{k}")
        mark = probe.begin()
        state = workload.setup(setup_dir, seed)
        wall, speed = probe.end(mark)
        setup_wall.append(wall)
        setup_speed.append(speed)
        set_op(None)
        setups.append(f"setup-{k}")
        # Window k ends once the measured wall time reaches its share of
        # ``seconds``; an operation longer than a window leaves the next
        # windows empty.
        while k < WINDOWS and (not op_wall or sum(op_wall) < seconds * (k + 1) / WINDOWS):
            i = len(op_wall)
            set_op(f"op-{i}")
            mark = probe.begin()
            try:
                result = workload.op(state, setup_dir, i)
            except Exception as exc:  # a crashing op is a failed op; keep measuring
                result, error = None, f"op {i}: {type(exc).__name__}: {exc}"
            wall, speed = probe.end(mark)
            op_wall.append(wall)
            op_speed.append(speed)
            set_op(None)
            ops.append(f"op-{i}")
            last = state, setup_dir
            digest = None
            if result is not None:
                try:
                    digest, error = workload.digest(state, result), None
                except CheckFailed as exc:
                    error = f"op {i}: {exc}"
            digests.append(digest)
            ok.append(error is None)
            if error is not None:
                errors.append(error)
            del result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        workload.final_check(*last)
    except CheckFailed as exc:
        ok[-1] = False
        errors.append(f"final check: {exc}")
    # Every op runs on the same inputs, so every op must write the same bytes.
    reference = next((d for d in reversed(digests) if d is not None), None)
    for i, d in enumerate(digests):
        if d not in (None, reference):
            ok[i] = False
            errors.append(f"op {i} wrote other outputs than the last checked op")
    setup_s = [w * f for w, f in zip(setup_wall, setup_speed)]
    op_s = [w * f for w, f in zip(op_wall, op_speed)]
    out = {
        "workload": name,
        "seed": seed,
        "attempted": len(ok),
        "failed": ok.count(False),
        "errors": errors[:5],
        "digest": reference,
        "ops": len(op_s),
        "setup_s_all": setup_s,
        "setup_wall_s_all": setup_wall,
        "op_s_all": op_s,
        "op_wall_s_all": op_wall,
        "op_speed_all": op_speed,
        "probe_samples": len(probe.samples),
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "op_s": statistics.median(op_s),
            "peak_rss_mb": peak_rss_mb,
        },
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "op_s": statistics.median(op_wall),
        },
    }
    if tracer is not None:
        tracer.finish()
        speeds = dict(zip(setups + ops, setup_speed + op_speed))
        out["per_layer"] = tracer.metrics(setups, ops, op_s, speeds)
        out["shares"] = tracer.shares(ops, op_wall)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="working directory, emptied first and removed at the end")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--spans", default=None, help="span JSONL path (traced runs)")
    args = p.parse_args(argv)
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = SpeedProbe()
    tracer = None
    if args.trace:
        tracer = Tracer(probe.clock_ns)
        tracer.install()
    probe.start()
    try:
        result = run(args.workload, args.seed, args.seconds, tracer, work, probe)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    result["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
