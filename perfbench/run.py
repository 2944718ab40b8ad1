"""Benchmark of the kfunmix streaming unmixer.

Run from the repository root:

    python3 perfbench/run.py --workload stream-L400K5M16 --seed 1 --seconds 20 --trace 0

The dataset of the workload is generated from --seed into
``.perfbench_runs/`` before any timing starts.  Measurement then runs in a
fresh process whose BLAS/OpenMP thread count is fixed to one in its launch
environment.

Every reported time is scaled to a reference host speed.  Between passes
and every 100 steps, the measuring process times two fixed kernels that use
no kfunmix code (small numpy solves with interpreter work, and a pass over
an 8 MB array); each pass's times are multiplied by 7 ms over the geometric
mean of those kernel times.  On a shared machine whose speed drifts by up
to 1.6x within minutes, this keeps a run comparable with another while any
change in the program's own cost shows in full.  The unscaled values and
the scale factors are printed under ``samples``.

The command prints every metric with its unit, then a
``run_info`` line (CPU count, thread count, numpy/scipy/BLAS versions, git
hash), and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with --trace 0, its ``per_layer`` metrics with --trace 1.
The full report, and with --trace 1 every span, are kept in
``.perfbench_runs/<workload>-s<seed>-t<trace>.{report.json,spans.csv}``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# BLAS/OpenMP threads of the measured process; must not exceed the CPU count.
THREADS = 1
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
GENERATE_TIMEOUT_S = 120
TOTAL_TIMEOUT_S = 175


def git_hash() -> str:
    """HEAD commit read from .git without running git; benchmark checkouts may have none."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be >= 1")

    started = time.monotonic()
    # On SIGTERM, leave through SystemExit so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "kfunmix", "__init__.py")):
        return fail(f"no kfunmix sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    nproc = os.cpu_count() or 1
    if THREADS > nproc:
        return fail(f"thread count {THREADS} exceeds the {nproc} CPUs")

    env = dict(os.environ)
    env.update({key: str(THREADS) for key in THREAD_ENV})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    work_dir = os.path.join(runs_dir, f"{tag}-{os.getpid()}")
    report_path = os.path.join(runs_dir, f"{tag}.report.json")
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", work_dir]
    os.makedirs(work_dir, exist_ok=True)
    try:
        # Worker output goes to stderr so the result line stays last on stdout.
        subprocess.run(
            worker + ["generate"] + common,
            env=env, cwd=ROOT, stdout=sys.stderr, check=True, timeout=GENERATE_TIMEOUT_S,
        )
        subprocess.run(
            worker
            + ["measure"]
            + common
            + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--report", report_path],
            env=env,
            cwd=ROOT,
            stdout=sys.stderr,
            check=True,
            timeout=max(10.0, TOTAL_TIMEOUT_S - (time.monotonic() - started)),
        )
        spans = os.path.join(work_dir, "spans.csv")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(runs_dir, f"{tag}.spans.csv"))
    except subprocess.TimeoutExpired as exc:
        return fail(f"{exc.cmd[2]} step timed out after {exc.timeout:.0f} s")
    except subprocess.CalledProcessError as exc:
        return fail(f"{exc.cmd[2]} step exited with status {exc.returncode}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    section, values = ("per_layer", report["per_layer"]) if args.trace else ("end_to_end", report["e2e"])
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        return fail(f"report lacks {section} metrics {missing}")

    correct = report["failed"] == 0 and not report["errors"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for m in spec[section]:
        print(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    for key, value in sorted(report["accuracy"].items()):
        if f"accuracy.{key}" not in values:
            unit = "deg" if key.endswith("_deg") else "1"
            print(f"  accuracy.{key:<35} {value:>16.6g} {unit}")
    print(f"  samples {json.dumps(report['samples'], sort_keys=True)}")
    print(f"  warnings {json.dumps(report['warnings'], sort_keys=True)}")
    for message in report["errors"]:
        print(f"  CHECK FAILED: {message}")
    info = dict(report["run_info"], threads=THREADS, git=git_hash())
    print("run_info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
