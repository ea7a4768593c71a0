"""Span tracing around balancecast's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function with a wrapper in every
``balancecast`` module namespace that binds it, because ``cli``,
``evaluation`` and ``stacking`` each import their own references (patching
only ``balancecast.gbt.gbt_train`` would miss the stack's meta-learner and
every evaluation fold). Spans are kept in memory as tuples and written out
when the run ends.

Each span carries its operation id: ``setup-<k>`` for the k-th set-up and
``op-<i>`` for the i-th measured operation. Calls made while the operation
id is ``None`` (the output checks) are not recorded. Spans are timed on the
speed probe's clock, which leaves out the probe's own samples, and their
times are reported at reference speed, scaled by the speed factor of the
set-up or operation they belong to.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from collections import defaultdict

# Public functions traced per module; ``baseline`` is reached only through
# ``evaluation``, so it gets no spans of its own.
TRACED = {
    "data": ("generate_synthetic", "save_truth_json", "load_csv", "save_csv", "align_horizon"),
    "gbt": ("gbt_train", "gbt_predict", "gbt_predict_batch"),
    "ebm": (
        "build_bins",
        "ebm_train",
        "ebm_predict",
        "ebm_predict_batch",
        "explain_local",
        "global_importance",
        "export_shapes",
    ),
    "stacking": ("stacked_train", "stacked_predict", "stacked_predict_batch"),
    "evaluation": ("evaluate", "compute_metrics"),
    "persistence": ("save_model", "load_model"),
    "cli": ("main",),
}

# Spans reported as inclusive time ("<name>.s") or self time ("<name>.self_s").
INCLUSIVE = (
    "gbt.gbt_train",
    "gbt.gbt_predict_batch",
    "ebm.build_bins",
    "ebm.ebm_predict_batch",
    "ebm.global_importance",
    "ebm.export_shapes",
    "data.load_csv",
    "data.save_csv",
    "data.save_truth_json",
    "data.generate_synthetic",
    "data.align_horizon",
    "evaluation.compute_metrics",
    "persistence.save_model",
    "persistence.load_model",
)
SELF = (
    "ebm.ebm_train",
    "stacking.stacked_train",
    "stacking.stacked_predict_batch",
    "evaluation.evaluate",
    "cli.main",
)
# Per-call medians over calls the workload makes directly (no parent span).
CALL_P50_US = {
    "gbt.gbt_predict": "gbt.gbt_predict.us_p50",
    "ebm.explain_local": "ebm.explain_local.us_p50",
}
SELF_CALL_P50_US = {"stacking.stacked_predict": "stacking.stacked_predict.self_us_p50"}
CALLS = ("gbt.gbt_train",)
COUNTS = (
    "gbt.trees",
    "gbt.nodes",
    "gbt.split_row_features",
    "gbt.gbt_predict_batch.rows",
    "ebm.feature_steps",
    "data.load_csv.rows",
    "data.save_csv.rows",
    "evaluation.fits",
    "persistence.model_bytes",
)
MODELS = ("naive", "gbt", "ebm", "stacked")


def split_search_work(tree, features, max_depth: int) -> tuple[int, int]:
    """(nodes, row x feature pairs scanned by split search) for one tree.

    ``gbt._grow`` searches every node that holds at least 2 rows at a depth
    below ``max_depth``; replaying the training rows down the fitted tree
    recovers each node's row count exactly.
    """
    import numpy as np

    nodes = 0
    scanned = 0
    stack = [(tree, np.arange(features.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        nodes += 1
        if depth < max_depth and idx.size >= 2:
            scanned += idx.size * features.shape[1]
        if not node.is_leaf:
            mask = features[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask], depth + 1))
            stack.append((node.right, idx[~mask], depth + 1))
    return nodes, scanned


class Tracer:
    """Records (name, start_ns, end_ns, parent, op) spans and per-op counts."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: dict = defaultdict(float)
        self.maes: dict[str, float] = {}
        self._fitted: list = []

    def install(self) -> None:
        hooks = {
            "gbt.gbt_train": self._on_gbt_train,
            "gbt.gbt_predict_batch": self._on_predict_batch,
            "ebm.ebm_train": self._on_ebm_train,
            "data.load_csv": self._on_load_csv,
            "data.save_csv": self._on_save_csv,
            "evaluation.evaluate": self._on_evaluate,
            "persistence.save_model": self._on_save_model,
        }
        wrappers = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"balancecast.{mod}")
            for name in names:
                fn = getattr(module, name)
                span = f"{mod}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(span, fn, hooks.get(span)))
        for modname, module in list(sys.modules.items()):
            if modname != "balancecast" and not modname.startswith("balancecast."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, span, fn, hook):
        spans, stack = self.spans, self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (span, start, end, parent, op)
            if hook is not None:
                hook(op, args, kwargs, result)
            return result

        return traced

    # Count hooks run after the span closes and stay O(1); the tree replay
    # for split-search work is deferred to ``finish``.
    def _on_gbt_train(self, op, args, kwargs, model):
        self.counts[op, "gbt.trees"] += len(model.trees)
        self._fitted.append((op, model, args[0].features))

    def _on_predict_batch(self, op, args, kwargs, result):
        self.counts[op, "gbt.gbt_predict_batch.rows"] += len(result)

    def _on_ebm_train(self, op, args, kwargs, model):
        self.counts[op, "ebm.feature_steps"] += model.config.outer_rounds * len(model.schema)

    def _on_load_csv(self, op, args, kwargs, dataset):
        self.counts[op, "data.load_csv.rows"] += dataset.n_rows

    def _on_save_csv(self, op, args, kwargs, result):
        self.counts[op, "data.save_csv.rows"] += args[0].n_rows

    def _on_evaluate(self, op, args, kwargs, report):
        folds = args[2] if len(args) > 2 else kwargs["folds"]
        self.counts[op, "evaluation.fits"] += len(args[0]) * len(folds)
        for row in report.rows:
            if row.metrics is not None:
                key = "mae_dev" if row.filtered else "mae"
                self.maes[f"evaluation.{key}.{row.model}"] = row.metrics.mae

    def _on_save_model(self, op, args, kwargs, result):
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.counts[op, "persistence.model_bytes"] += os.path.getsize(path)

    def finish(self) -> None:
        """Replay deferred tree counts; call once the measured loop is over."""
        for op, model, features in self._fitted:
            for tree in model.trees:
                nodes, scanned = split_search_work(tree, features, model.config.max_depth)
                self.counts[op, "gbt.nodes"] += nodes
                self.counts[op, "gbt.split_row_features"] += scanned
        self._fitted.clear()

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus its child spans'."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, setups: list[str], ops: list[str], op_seconds: list[float],
                speeds: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics for one run.

        A time or count is the median over set-ups of its per-set-up total
        plus the median over measured operations of its per-operation total,
        so layers that only run in set-up (model training in the forecast
        workloads) still show. Per-call latencies are medians over calls in
        measured operations. Times are scaled by ``speeds[op]``, the speed
        factor of their set-up or operation; ``op_seconds`` are already at
        reference speed.
        """
        self_ns = self.self_times()
        totals: dict = defaultdict(float)
        calls: dict = defaultdict(list)
        self_calls: dict = defaultdict(list)
        for (name, start, end, parent, op), own in zip(self.spans, self_ns):
            scale = speeds[op]
            totals[op, f"{name}.s"] += scale * (end - start) / 1e9
            totals[op, f"{name}.self_s"] += scale * own / 1e9
            totals[op, f"{name}.calls"] += 1
            if parent < 0 and op.startswith("op-"):
                calls[name].append(scale * (end - start) / 1e3)
                self_calls[name].append(scale * own / 1e3)
        for key, value in self.counts.items():
            totals[key] += value

        def per_unit(metric: str) -> float:
            value = 0.0
            for units in (setups, ops):
                if units:
                    value += statistics.median(totals.get((u, metric), 0.0) for u in units)
            return value

        out = {"trace.op_s": statistics.median(op_seconds)}
        for name in INCLUSIVE:
            out[f"{name}.s"] = per_unit(f"{name}.s")
        for name in SELF:
            out[f"{name}.self_s"] = per_unit(f"{name}.self_s")
        for name in CALLS:
            out[f"{name}.calls"] = per_unit(f"{name}.calls")
        for name, metric in CALL_P50_US.items():
            out[metric] = statistics.median(calls[name]) if calls[name] else 0.0
        for name, metric in SELF_CALL_P50_US.items():
            out[metric] = statistics.median(self_calls[name]) if self_calls[name] else 0.0
        for name in COUNTS:
            out[name] = per_unit(name)
        for model in MODELS:
            for key in ("mae", "mae_dev"):
                metric = f"evaluation.{key}.{model}"
                out[metric] = self.maes.get(metric, 0.0)
        return out

    def shares(self, ops: list[str], op_seconds: list[float]) -> dict[str, float]:
        """Each layer's self time as a share of measured-operation wall time.

        Self times partition the traced time, so the shares plus the
        ``(untraced)`` remainder (the workload's own code) sum to one.
        """
        wanted = set(ops)
        own: dict[str, float] = defaultdict(float)
        for (name, _, _, _, op), ns in zip(self.spans, self.self_times()):
            if op in wanted:
                own[name] += ns / 1e9
        total = sum(op_seconds)
        out = {name: t / total for name, t in own.items()}
        out["(untraced)"] = 1.0 - sum(out.values())
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
