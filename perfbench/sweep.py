"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/sweep.py --workload stream-L400K5M16 --seeds 1-10 --out sweep.json

For every metric of the result line it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
``--record-expected`` stores the final accuracy of every dataset the runs
used in expected.json, the committed reference later runs are checked
against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--out", help="write every run's result and the summary as JSON")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: benchmark exited with status {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        report_path = os.path.join(
            ROOT, ".perfbench_runs", f"{args.workload}-s{seed}-t{args.trace}.report.json"
        )
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        runs.append({"seed": seed, "result": result, "accuracy": report["accuracy_by_seed"],
                     "samples": report["samples"], "run_info": report["run_info"]})
        values = " ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items() if name in bounds
        )
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}",
              flush=True)

    summary = {}
    if len(runs) >= 2:
        print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["result"]["metrics"]:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name)}
            if name in bounds or args.trace:
                print(f"{name:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                      f"{bounds.get(name) or '':>6}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, fh, indent=1, sort_keys=True)
    if args.record_expected:
        path = os.path.join(HERE, "expected.json")
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
        table = expected["seeds"].setdefault(args.workload, {})
        for run in runs:
            for data_seed, accuracy in run["accuracy"].items():
                table[data_seed] = {
                    key: accuracy[key] for key in expected["tolerance"] if key in accuracy
                }
        expected["seeds"][args.workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1)
            fh.write("\n")
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
