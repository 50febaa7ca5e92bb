"""Run bench/run.py over several seeds and summarise the spread of each metric.

Usage: python3 bench/batch.py [--workloads W ...] [--seeds 1 2 ...]
                              [--seconds 15] [--trace 0|1] [--json FILE]

Runs are made one after another. For every workload and metric it prints
the median over seeds, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, i.e. (q3 - q1) / median,
which is what the bounds in BENCHMARK.json are compared with. It also checks
that every run was correct and that the share of failed operations is the
same in every run. --json writes every run's result line and detail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    detail = next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), {})
    return {"seed": seed, "elapsed_s": time.perf_counter() - t0, "result": json.loads(lines[-1]), "detail": detail}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(run)
            r = run["result"]
            print(f"{workload} seed {seed}: {run['elapsed_s']:.1f} s, correct {r['correct']}, "
                  f"{r['failed']}/{r['attempted']} failed", flush=True)
        results = [run["result"] for run in runs[workload]]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: all correct {all(r['correct'] for r in results)}, failed shares {sorted(shares)}")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound if bound else '':>6}")
        print(flush=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
