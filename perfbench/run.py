#!/usr/bin/env python3
"""Builds and runs the hwgc benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload fig5-collect --seed 1 --seconds 12 --trace 0

Builds the benchmark program from the repository's sources into
.bench_build/ at the repository root (incrementally after the first run),
runs the named workload and passes its output through. The last line of
standard output is the result JSON. Exits nonzero, without a result line,
when the build fails or the printed metrics disagree with BENCHMARK.json;
exits nonzero after the result line when a correctness check failed or an
operation failed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig5-collect", "serve-churn", "serve-lisp")


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 124, None
    return proc.returncode, out


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    )
    for cmd in steps:
        rc, _ = run(cmd, 850, sys.stderr)
        if rc != 0:
            print(f"run.py: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    cmd = [
        os.path.join(BUILD, "hwgc_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--lisp-trace", os.path.join(ROOT, "traces", "lisp.jsonl"),
        "--out-dir", BUILD,
    ]
    rc, out = run(cmd, 170, subprocess.PIPE)
    if out is None:
        return rc
    lines = out.decode().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: no result line (exit {rc})", file=sys.stderr)
        return rc or 1
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("run.py: printed metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 3
    print(lines[-1], flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
