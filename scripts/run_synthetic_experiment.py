#!/usr/bin/env python3
"""End-to-end synthetic experiment.

Generates a seeded balancing-market series, trains all four model families
with an 8-hour horizon under expanding-window cross-validation, prints the
metric table (overall and deviation-events-only), writes the pooled test
predictions, and exports the additive model's importance ranking and shape
functions as plot-ready CSVs.

Usage:
    python scripts/run_synthetic_experiment.py --out results/
"""

import argparse
from pathlib import Path

from balancecast import (
    EbmConfig,
    GbtConfig,
    SyntheticConfig,
    align_horizon,
    ebm_train,
    evaluate,
    expanding_window_folds,
    generate_synthetic,
    model_spec,
    save_csv,
    save_global_explanation,
    save_truth_json,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--n-rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--noise-sd", type=float, default=2.0)
    parser.add_argument("--spike-prob", type=float, default=0.03)
    parser.add_argument("--spike-scale", type=float, default=50.0)
    parser.add_argument("--horizon-steps", type=int, default=32)
    parser.add_argument("--initial-train", type=int, default=1200)
    parser.add_argument("--test-len", type=int, default=384)
    parser.add_argument("--epsilon", type=float, default=25.0)
    return parser.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = SyntheticConfig(
        n_rows=args.n_rows,
        seed=args.seed,
        noise_sd=args.noise_sd,
        spike_prob=args.spike_prob,
        spike_scale=args.spike_scale,
    )
    dataset, truth = generate_synthetic(cfg)
    save_csv(dataset, out / "dataset.csv")
    save_truth_json(truth, dataset, out / "truth.json")
    print(f"generated {dataset.n_rows} rows -> {out / 'dataset.csv'}")

    aligned = align_horizon(dataset, args.horizon_steps)
    folds = expanding_window_folds(aligned.n_rows, args.initial_train, args.test_len)
    print(f"{len(folds)} expanding-window folds on {aligned.n_rows} aligned rows")

    models = [
        model_spec("naive", args.horizon_steps),
        model_spec("gbt", GbtConfig(n_trees=120, max_depth=3, learning_rate=0.1)),
        model_spec("ebm", EbmConfig(outer_rounds=120, learning_rate=0.25, max_bins=48)),
        model_spec(
            "stacked",
            (
                EbmConfig(outer_rounds=80, learning_rate=0.25, max_bins=48),
                GbtConfig(n_trees=40, max_depth=3),
            ),
        ),
    ]
    report = evaluate(models, aligned, folds, epsilon=args.epsilon)
    report.save(out)
    print()
    print(report.format_table())

    # Interpretability exports: fit the additive model on the same-time
    # series so shapes and importance describe price formation itself.
    explainer = ebm_train(
        dataset, EbmConfig(outer_rounds=150, learning_rate=0.25, max_bins=48)
    )
    ranking = save_global_explanation(explainer, dataset, out)
    print()
    print("global importance (mean absolute contribution):")
    for rank, (name, mac) in enumerate(ranking, start=1):
        print(f"  {rank:2d}. {name:<12s} {mac:8.3f}")
    print(f"\nwrote the report, predictions, importance and shapes CSVs to {out}")


if __name__ == "__main__":
    main()
