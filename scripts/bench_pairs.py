"""Run the benchmark on two checkouts in alternating pairs and summarise them.

For every seed, ``python3 perfbench/run.py`` runs once in the parent
checkout and once in the change checkout with the same workload, seed and
``--trace`` flag.  The measurement budget (``run_seconds``) and each
metric's better direction come from the change's BENCHMARK.json.  The
parent goes first on odd seeds and the change on even ones, so drift of a
shared machine's speed does not favour one side.
Each run's final stdout line (the benchmark's JSON result), its
``run_info`` line and its ``samples`` line (sample counts and the
host-speed factors each pass was scaled by) are kept.  A run that exits
non-zero or prints no result line also keeps the last STDERR_TAIL lines of
its stderr, which are echoed as it ends.  The output file holds every pair and, per metric and side, the
median and quartiles, plus the number of pairs the change won (ties count
for neither) and whether the gain rule holds: at least nine tenths of the
pairs won and a median gap wider than the parent's interquartile distance.
Each metric that BENCHMARK.json gives a ``bound`` also gets the
no-regression verdict (``verdict``): ``worse`` when the change's median is
worse than the parent's by more than bound x the parent's median,
``unresolved`` when the parent's interquartile distance is wider than that
too and not every change run beats every parent run, and ``within bound``
otherwise.  Each side's failed and attempted operations, summed over its
result lines, and their ratio are kept under ``operations``.
The script exits 1 when any run exited non-zero, printed no result line or
read ``correct: false``.

An existing output file keeps its other groups, so one file can collect
several workloads; a group with the same workload, seeds and trace flag is
replaced.  Values of a ``--trace 1`` group are raw per-layer numbers, not
scaled to a reference host speed like the end-to-end ones.

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload experiment-L200K3-eval --seeds 1-10 --out BENCH_eval.json
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload p2-rls-baselines --seeds 1-3,1000 --out BENCH_eval.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

SIDES = ("parent", "change")
WIN_SHARE = 0.9
STDERR_TAIL = 20


def parse_seeds(text: str) -> list[int]:
    """Seeds from a comma-separated list of integers and inclusive ranges."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        try:
            first = int(lo)
            last = int(hi) if sep else first
        except ValueError:
            raise ValueError(f"bad seed spec {part!r}") from None
        if first < 0 or last < first:
            raise ValueError(f"bad seed range {part!r}")
        seeds.extend(range(first, last + 1))
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds repeat")
    return seeds


def run_order(seed: int) -> tuple[str, str]:
    """The parent runs first on odd seeds, the change on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default rule)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The no-regression verdict on one metric (module docstring); ``sign`` is
    1 where lower is better and -1 where higher is."""
    median = quantile(parent, 0.5)
    allowed = bound * abs(median)
    if sign * (quantile(change, 0.5) - median) > allowed:
        return "worse"
    spread = quantile(parent, 0.75) - quantile(parent, 0.25)
    # in signed values lower is better, so the change's worst run is its largest
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > allowed and not beats_all:
        return "unresolved"
    return "within bound"


def summarise(
    pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> dict[str, dict]:
    """Per-metric medians, quartiles and wins over the pairs where both sides ran.

    ``pairs`` holds ``{"parent": result, "change": result}`` with each
    result the benchmark's JSON line, or None for a run that printed none;
    ``better`` maps a metric name to "lower" or "higher", and ``bounds`` a
    metric name to its relative bound, which adds its verdict.
    """
    bounds = bounds or {}
    complete = [p for p in pairs if p["parent"] is not None and p["change"] is not None]
    summary: dict[str, dict] = {}
    names = sorted({m for p in complete for m in p["parent"]["metrics"]} & set(better))
    for name in names:
        values = {
            side: [p[side]["metrics"][name]["value"] for p in complete] for side in SIDES
        }
        sign = 1.0 if better[name] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        stats = {
            side: {
                "median": quantile(vals, 0.5),
                "q1": quantile(vals, 0.25),
                "q3": quantile(vals, 0.75),
            }
            for side, vals in values.items()
        }
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        summary[name] = {
            "better": better[name],
            **stats,
            "change_wins": wins,
            "pairs": len(complete),
            "gain_rule_met": wins >= WIN_SHARE * len(complete)
            and gap > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
        if name in bounds:
            summary[name]["bound"] = bounds[name]
            summary[name]["verdict"] = verdict(
                values["parent"], values["change"], sign, bounds[name]
            )
    return summary


def operations(results: list[dict | None]) -> dict[str, float | int | None]:
    """Failed and attempted operations summed over one side's result lines,
    and the failed share (None when nothing was attempted)."""
    lines = [r for r in results if r is not None]
    failed = sum(r.get("failed", 0) for r in lines)
    attempted = sum(r.get("attempted", 0) for r in lines)
    return {
        "failed": failed,
        "attempted": attempted,
        "failed_share": failed / attempted if attempted else None,
    }


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: its exit status, result and run_info lines, and why it failed."""
    cmd = [
        "python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    run = {"returncode": proc.returncode, "result": result, "run_info": None, "samples": None}
    for line in lines:
        key, _, rest = line.strip().partition(" ")
        if key in ("run_info", "samples"):
            run[key] = json.loads(rest)
    if proc.returncode != 0 or result is None:
        run["stderr_tail"] = proc.stderr.splitlines()[-STDERR_TAIL:]
        for line in run["stderr_tail"]:
            print(f"  {checkout}: {line}", file=sys.stderr)
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1-3,1000")
    parser.add_argument("--out", required=True, help="JSON file to write or extend")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}

    pairs = []
    for seed in seeds:
        runs = {}
        for side in run_order(seed):
            runs[side] = run_once(checkouts[side], args.workload, seed, seconds, args.trace)
            res = runs[side]["result"]
            value = res["metrics"].get("run_s", {}).get("value") if res else None
            print(f"seed {seed} {side}: exit {runs[side]['returncode']} run_s {value}",
                  file=sys.stderr)
        pairs.append({"seed": seed, "first": run_order(seed)[0], **runs})

    results = [{side: p[side]["result"] for side in SIDES} for p in pairs]
    group = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "correct_runs": {
            side: sum(bool(r[side] and r[side]["correct"]) for r in results) for side in SIDES
        },
        "operations": {side: operations([r[side] for r in results]) for side in SIDES},
        "summary": summarise(results, better, bounds),
        "pairs": pairs,
    }
    doc = {"groups": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    key = (group["workload"], group["seeds"], group["trace"])
    doc["groups"] = [
        g for g in doc["groups"] if (g["workload"], g["seeds"], g["trace"]) != key
    ] + [group]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, stats in group["summary"].items():
        if "verdict" in stats:
            print(
                f"{name}: {stats['verdict']}, median {stats['parent']['median']:.6g} -> "
                f"{stats['change']['median']:.6g}, change won {stats['change_wins']}"
                f"/{stats['pairs']}, gain rule {'met' if stats['gain_rule_met'] else 'not met'}",
                file=sys.stderr,
            )
    runs = [p[side] for p in pairs for side in SIDES]
    failed = sum(
        run["returncode"] != 0 or run["result"] is None or not run["result"]["correct"]
        for run in runs
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
