"""The experiment of README.md's "Experiment" section, run command by command."""

import shlex
from pathlib import Path

from balancecast.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# The commands of the experiment, each as README.md writes it.
COMMANDS = [
    "balancecast synth --out results/",
    "balancecast evaluate --data results/dataset.csv --models naive,gbt,ebm,stacked"
    " --initial-train 1200 --test-len 384 --epsilon 25 --out results/",
    "balancecast train --data results/dataset.csv --model ebm --horizon-steps 1"
    " --out results/ebm-h1/",
    "balancecast explain --data results/dataset.csv --model results/ebm-h1/model.json"
    " --out results/",
]


def test_synthetic_experiment_script_runs(tmp_path, monkeypatch):
    readme = README.read_text()
    monkeypatch.chdir(tmp_path)
    for command in COMMANDS:
        assert command + "\n" in readme
        assert main(shlex.split(command)[1:]) == 0, command
    results = tmp_path / "results"
    report = (results / "report.csv").read_text().splitlines()
    assert len(report) == 1 + 8
    assert {line.split(",")[2] for line in report[1:]} == {"naive", "gbt", "ebm", "stacked"}
    # 2000 rows aligned over 32 steps, tested after the first 1200: 768 forecasts per model.
    predictions = (results / "predictions.csv").read_text().splitlines()
    assert predictions[0] == "model,issue_timestamp,actual,predicted"
    assert len(predictions) == 1 + 4 * 768
    # The next-quarter EBM ranks each synthetic feature, spot first, and
    # exports one shape table per feature.
    importance = (results / "importance.csv").read_text().splitlines()
    assert len(importance) == 1 + 9 and importance[1].split(",")[1] == "spot"
    shapes = (results / "shapes.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in shapes[1:]} == {r.split(",")[1] for r in importance[1:]}
