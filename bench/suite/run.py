#!/usr/bin/env python3
"""Builds and runs the benchmark suite for one workload.

    python3 bench/suite/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Configures and builds bench/suite with
CMake into .bench_build/ (a no-op once built), runs nicmcast_bench on one
workload with a T-second pass budget, and passes its report through.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1, which also writes .bench_build/trace-NAME.json).
Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_logged(cmd, timeout=None):
    """Runs cmd in its own process group with stdout sent to stderr."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd) != 0:
            return None
    if run_logged(["cmake", "--build", str(BUILD), "--target",
                   "nicmcast_bench", "-j", "4"]) != 0:
        return None
    return BUILD / "nicmcast_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload}")
        return 2

    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1

    report_path = BUILD / f"result-{args.workload}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(report_path)]
    if args.trace:
        cmd += ["--trace", str(BUILD / f"trace-{args.workload}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: nicmcast_bench exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(out)

    if not report_path.exists():
        log("run.py: nicmcast_bench wrote no report")
        return 1
    report = json.loads(report_path.read_text())["workloads"][0]
    if "error" in report:
        log(f"run.py: {args.workload} failed: {report['error']}")
        return 1

    section = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = section[m["name"]]
        if got["unit"] != m["unit"]:
            log(f"run.py: {m['name']} is in {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    checks = report["checks"]
    correct = proc.returncode == 0 and checks["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(checks["attempted"]),
                      "failed": int(checks["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
