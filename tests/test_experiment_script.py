import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_synthetic_experiment_script_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
            "--n-rows", "700", "--initial-train", "400", "--test-len", "134",
            "--out", str(tmp_path),
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert len(report) == 1 + 8
    assert {line.split(",")[2] for line in report[1:]} == {"naive", "gbt", "ebm", "stacked"}
    # 700 rows aligned over 32 steps, tested after the first 400: 268 forecasts per model.
    predictions = (tmp_path / "predictions.csv").read_text().splitlines()
    assert predictions[0] == "model,issue_timestamp,actual,predicted"
    assert len(predictions) == 1 + 4 * 268
