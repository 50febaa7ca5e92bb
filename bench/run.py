"""Pipeline benchmark: time and peak RSS of each tripkin command, checked outputs.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs `tripkin synth` SETUP_RUNS times on the workload's profiles and
keeps the last corpus. The timed part then runs rounds of `extract`,
`classify` and `anomaly` as child processes, one at a time (a closed loop
with one client), for as many whole rounds as fit in --seconds. Each
command's wall time and peak RSS (from its own rusage) are reported as the
median over rounds. The outputs of every round must hash alike, and the last
round's outputs are checked by bench/checks.py.

With --trace 1 every command instead runs under bench/trace_child.py, which
records a span around each call into a tripkin layer; the per-layer self
times and work counts are reported, with the tracing overhead against one
untraced round. End-to-end figures come only from --trace 0.

The children import tripkin from the checkout's src/, not from any
installed copy. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
COMMANDS = ("extract", "classify", "anomaly")
# What the `tripkin` console script runs.
ENTRY = "import sys; from tripkin.cli import main; sys.exit(main())"


class CommandFailed(RuntimeError):
    """A tripkin command exited non-zero, or the wrong tripkin was imported."""


class Runner:
    """Starts tripkin commands one at a time and measures each on its own."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed = 0
        self.n_traces = 0

    def run(self, argv: list[str], traced: bool = False) -> dict:
        """Wall time, peak RSS and (when traced) the spans of one command."""
        spans_path = self.work / f"spans-{self.n_traces}.json"
        self.n_traces += traced
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        self.attempted += 1
        log_path = self.work / "commands.log"
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=log, stderr=subprocess.STDOUT)
            # The child's own rusage: RUSAGE_CHILDREN would report the
            # largest RSS of every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            output = log_path.read_text()[-2000:]
            raise CommandFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{output}")
        result = {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0}
        if traced:
            result["trace"] = json.loads(spans_path.read_text())
            spans_path.unlink()
        return result


def command_argv(cmd: str, corpus: Path, out: Path, seed: int) -> list[str]:
    if cmd == "extract":
        return ["extract", "--root", str(corpus), "--out", str(out)]
    return [cmd, "--features", str(out / "features.csv"), "--out", str(out), "--seed", str(seed)]


def self_times(trace: dict, command: str) -> dict[str, float]:
    """Self time per metric: each span minus the spans directly inside it.

    Also checks that the command's span is the only root, so that the
    layer spans plus cli.<command>_self_s add up to the whole command.
    """
    spans = trace["spans"]
    roots = [s for s in spans if s[3] == -1]
    if [s[0] for s in roots] != [f"cli.{command}_self_s"]:
        raise checks.CheckError(f"{command}: root spans {[s[0] for s in roots]}")
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    total = roots[0][2] - roots[0][1]
    if abs(sum(out.values()) - total) > 1e-6 * max(total, 1.0):
        raise checks.CheckError(f"{command}: self times add to {sum(out.values())}, span is {total}")
    return out


def layer_metrics(setup: list[dict], rounds: list[dict], untraced: dict) -> dict[str, float]:
    """Per-layer figures: medians over traced runs; counts must repeat exactly."""
    metrics: dict[str, float] = {}
    for group in ([[("synth", s)] for s in setup], [[(c, r[c]) for c in COMMANDS] for r in rounds]):
        per_run = []
        for commands in group:
            times: dict[str, float] = {}
            counts: dict[str, float] = {}
            for command, result in commands:
                for name, value in self_times(result["trace"], command).items():
                    times[name] = times.get(name, 0.0) + value
                for name, value in result["trace"]["counts"].items():
                    counts[name] = counts.get(name, 0) + value
            per_run.append((times, counts))
        for name in per_run[0][0]:
            metrics[name] = median(times[name] for times, _ in per_run)
        for name in per_run[0][1]:
            values = [counts[name] for _, counts in per_run]
            if name.endswith("_mib"):
                metrics[name] = median(values)
            elif len(set(values)) != 1:
                raise checks.CheckError(f"count {name} differs between runs: {values}")
            else:
                metrics[name] = values[0]
    metrics["ingest.points_in_trips_ratio"] = metrics.pop("ingest.points_in_trips") / metrics["ingest.points_parsed"]
    metrics["features.rows_kept_ratio"] = metrics.pop("features.rows_kept") / metrics["features.trips_featurized"]
    traced_children = setup + [r[c] for r in rounds for c in COMMANDS]
    metrics["cli.import_s"] = median(result["trace"]["import_s"] for result in traced_children)
    metrics["trace.overhead_ratio"] = sum(
        median(r[c]["wall_s"] for r in rounds) for c in COMMANDS
    ) / sum(untraced[c]["wall_s"] for c in COMMANDS)
    return metrics


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, Runner]:
    runner = Runner(work)
    # Also compiles the package's bytecode before anything is timed.
    where = subprocess.run(
        [sys.executable, "-c", "import tripkin.cli; print(tripkin.cli.__file__)"],
        env=runner.env, cwd=work, capture_output=True, text=True,
    )
    if Path(where.stdout.strip()) != SRC / "tripkin" / "cli.py":
        raise CommandFailed(f"children import tripkin from {where.stdout.strip()!r}, not {SRC}: {where.stderr}")

    profiles, corpus, out = work / "profiles.json", work / "corpus", work / "out"
    profiles.write_text(json.dumps(workload.profiles(), indent=1))
    setup = []
    for _ in range(SETUP_RUNS):
        shutil.rmtree(corpus, ignore_errors=True)
        synth = ["synth", "--profiles", str(profiles), "--out", str(corpus), "--seed", str(seed)]
        setup.append(runner.run(synth, traced=trace))
    if workload.prepare:
        workload.prepare(corpus)

    def one_round(traced: bool) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        result = {c: runner.run(command_argv(c, corpus, out, seed), traced=traced) for c in COMMANDS}
        result["sha256"] = checks.sha256_tree(out)
        return result

    # Whole rounds only: another starts when one more of the last round's
    # length still fits in --seconds.
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round(trace))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    report: dict = {
        "rounds": len(rounds),
        "samples_s": {"synth": [s["wall_s"] for s in setup], **{c: [r[c]["wall_s"] for r in rounds] for c in COMMANDS}},
        "sha256": rounds[0]["sha256"],
        "problems": [],
    }

    def check(name, fn, *fn_args):
        try:
            result = fn(*fn_args)
            if result is not None:
                report[name] = result
        except checks.CheckError as exc:
            report["problems"].append(f"{name}: {exc}")

    def same_outputs(others):
        for r in others:
            if r["sha256"] != rounds[0]["sha256"]:
                raise checks.CheckError("output sha256 differs between rounds")

    check("determinism", same_outputs, rounds[1:])
    rows = checks.read_features_csv(out / "features.csv")
    check("extract", checks.check_extract, corpus, out / "features.csv")
    check("classify", checks.check_classify, out, rows)
    check("anomaly", checks.check_anomaly, out, rows, seed)

    if trace:
        untraced = one_round(False)
        check("traced_outputs", same_outputs, [untraced])
        check("metrics", layer_metrics, setup, rounds, untraced)
    else:
        metrics = {"setup_s": median(s["wall_s"] for s in setup)}
        for c in COMMANDS:
            metrics[f"{c}_s"] = median(r[c]["wall_s"] for r in rounds)
        for c in COMMANDS:
            metrics[f"{c}_rss_mib"] = median(r[c]["rss_mib"] for r in rounds)
        report["metrics"] = metrics
    return report, runner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tripkin" / "cli.py").is_file():
        print(f"error: no tripkin source at {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report, runner = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except (CommandFailed, checks.CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    metrics = report.pop("metrics", {})
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value!r} {unit(name)}")
    print("detail " + json.dumps(report))
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
