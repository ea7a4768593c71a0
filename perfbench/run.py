"""balancecast benchmark: three forecasting workloads, checked outputs,
end-to-end and per-layer metrics.

One run of one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload backtest --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from an
untraced process; ``--trace 1`` reports its per-layer metrics from a traced
one. Times are seconds at reference speed (see ``speed.py``); the plain wall
times are printed beside them and kept in the run record. Each run executes in a child process (``workloads.py``) with
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1,
and leaves a run record (machine, commit, seed, metrics, output digest) in
``.bench_out/runs/``; traced runs also leave their spans in
``.bench_out/spans/``.

Several seeds per workload plus two traced runs each, with spreads and
tracing overhead, written to one record; then two records compared metric by
metric:

    python3 perfbench/run.py --suite --seeds 1-10 --record .bench_out/a.json
    python3 perfbench/run.py --compare .bench_out/a.json .bench_out/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Traced runs per workload in a suite: two, so that the exact counts can be
# checked to repeat.
TRACED_RUNS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def commit() -> str:
    """HEAD's commit id read from ``.git``, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class RunFailed(Exception):
    pass


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process and return its result record."""
    if not (ROOT / "src" / "balancecast" / "__init__.py").is_file():
        raise RunFailed(f"no balancecast sources under {ROOT / 'src'}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    for sub in ("runs", "spans", "logs", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    result_path = OUT / "runs" / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    log_path = OUT / "logs" / f"{tag}.log"
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", str(OUT / "work" / tag),
        "--out", str(result_path), "--spans", str(OUT / "spans" / f"{workload}-seed{seed}.jsonl"),
    ]
    with log_path.open("w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{tag} timed out after {CHILD_TIMEOUT_S} s; see {log_path}") from None
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text().splitlines()[-15:]
        raise RunFailed(f"{tag} exited {proc.returncode}:\n" + "\n".join(tail))
    record = json.loads(result_path.read_text())
    record["machine"]["commit"] = commit()
    record["machine"]["threads"] = {v: env[v] for v in THREAD_VARS}
    record["trace"] = trace
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_run(record: dict, spec: dict) -> dict:
    """Print one run for a reader; returns the metrics of the JSON line."""
    key = "per_layer" if record["trace"] else "end_to_end"
    source = record["per_layer"] if record["trace"] else record["metrics"]
    print(f"workload {record['workload']}  seed {record['seed']}  ops {record['ops']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  "
          f"error_rate {record['failed'] / record['attempted']:.4f}")
    for err in record["errors"]:
        print(f"  check failed: {err}")
    print(f"  output sha256 {record['digest']}")
    print(f"  wall medians: setup {record['wall']['setup_s']:.6g} s, op {record['wall']['op_s']:.6g} s; "
          f"speed factor per op {', '.join(f'{f:.3f}' for f in record['op_speed_all'])}")
    metrics = {}
    for m in spec[key]:
        value = source[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:14.6g} {m['unit']}")
    if record["trace"]:
        print("  share of op wall time by self time:")
        for name, share in list(record["shares"].items())[:6]:
            print(f"    {name:38s} {100 * share:6.1f} %")
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def suite(args, spec: dict) -> int:
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": None, "seeds": seeds, "seconds": seconds, "workloads": {}}
    for w in [entry["name"] for entry in spec["workloads"]]:
        runs, walls = [], []
        for seed in seeds:
            start = time.perf_counter()
            r = run_once(w, seed, seconds, 0)
            walls.append(time.perf_counter() - start)
            runs.append(r)
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={v:.5g}" for k, v in r["metrics"].items()) + f"  (run {walls[-1]:.1f} s)",
                flush=True)
        # Each traced run follows an untraced run of the same seed, so the
        # overhead compares runs made close together in time.
        pairs = [(run_once(w, seeds[0], seconds, 0), run_once(w, seeds[0], seconds, 1))
                 for _ in range(TRACED_RUNS)]
        traced = [t for _, t in pairs]
        record["machine"] = runs[0]["machine"]
        e2e = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(values)
            e2e[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "bound": bound}
        per_layer = {}
        for m in spec["per_layer"]:
            values = [t["per_layer"][m["name"]] for t in traced]
            per_layer[m["name"]] = statistics.median(values)
        count_names = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
        entry = {
            "run_wall_s": statistics.median(walls),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]][:5],
            "digests": {str(r["seed"]): r["digest"] for r in runs},
            "end_to_end": e2e,
            "per_layer": per_layer,
            "shares": traced[0]["shares"],
            "trace_overhead_s": per_layer["trace.op_s"] - statistics.median(
                u["metrics"]["op_s"] for u, _ in pairs),
            "counts_repeat_identically": all(
                t["per_layer"][c] == traced[0]["per_layer"][c] for t in traced for c in count_names),
        }
        record["workloads"][w] = entry
        print_suite_entry(w, entry)
    Path(args.record).parent.mkdir(parents=True, exist_ok=True)
    Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.record}")
    walls = sum(e["run_wall_s"] for e in record["workloads"].values())
    print(f"median run wall time summed over workloads: {walls:.1f} s "
          f"(x22 runs per workload: {22 * walls:.0f} s)")
    failed = sum(e["failed"] for e in record["workloads"].values())
    return 1 if failed else 0


def print_suite_entry(w: str, entry: dict) -> None:
    print(f"== {w}: attempted {entry['attempted']} failed {entry['failed']}")
    for err in entry["errors"]:
        print(f"  check failed: {err}")
    for name, s in entry["end_to_end"].items():
        status = "steady" if s["spread"] < s["bound"] / 3 else (
            "ok" if s["spread"] <= s["bound"] else "WIDE")
        print(f"  {name:16s} median {s['median']:11.5g}  q1 {s['q1']:11.5g}  q3 {s['q3']:11.5g}  "
              f"spread {100 * s['spread']:5.1f} % of bound {100 * s['bound']:4.0f} %  {status}")
    print(f"  tracing overhead {entry['trace_overhead_s']:+.4f} s per op; "
          f"counts repeat identically: {entry['counts_repeat_identically']}")
    print("  share of op wall time: " + ", ".join(
        f"{n} {100 * v:.1f} %" for n, v in list(entry["shares"].items())[:5]))
    sys.stdout.flush()


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Both medians, their quartiles and the delta, per workload and metric."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"A {path_a} ({a['machine']['commit'][:12]})  B {path_b} ({b['machine']['commit'][:12]})")
    regressed = 0
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        print(f"== {w}")
        for name, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"].get(name)
            if sb is None:
                continue
            sign = 1 if better[name] == "lower" else -1
            delta = (sb["median"] - sa["median"]) / sa["median"]
            worse = sign * delta
            spread = max(sa["spread"], sb["spread"])
            if spread > sa["bound"]:
                wins = all(sign * (vb - va) < 0 for vb in sb["values"] for va in sa["values"])
                verdict = "better (every run)" if wins else "unresolved"
            elif worse > sa["bound"]:
                verdict, regressed = "REGRESSED", regressed + 1
            elif -worse > spread:
                verdict = "better"
            else:
                verdict = "same"
            print(f"  {name:16s} A {sa['median']:10.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}]  "
                  f"B {sb['median']:10.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}]  "
                  f"delta {100 * delta:+6.1f} %  {verdict}")
        changed = [s for s, d in wb["digests"].items() if wa["digests"].get(s) not in (None, d)]
        if changed:
            print(f"  output digest changed for seeds {', '.join(changed)}")
        for name, va in wa["per_layer"].items():
            vb = wb["per_layer"].get(name)
            if vb is None or va == vb == 0:
                continue
            rel = f"{100 * (vb - va) / va:+6.1f} %" if va else "new"
            print(f"    {name:40s} A {va:12.6g}  B {vb:12.6g}  {rel}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="balancecast benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--suite", action="store_true", help="run several seeds per workload")
    p.add_argument("--seeds", default="1-10", help="suite seeds, e.g. 1-10 or 3,7")
    p.add_argument("--record", default=str(OUT / "record.json"), help="suite record path")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two suite records")
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.suite:
            return suite(args, spec)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            p.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
        if args.seed is None or args.seed < 0 or not args.seconds or args.seconds <= 0:
            p.error("--seed >= 0 and --seconds > 0 are required")
        record = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (RunFailed, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = print_run(record, spec)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
