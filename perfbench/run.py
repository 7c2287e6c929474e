#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload frames --seed 1 --seconds 15 --trace 0

Builds the library and the perfbench binary from source into .bench_build/
(the first run configures and compiles; later runs only re-check), runs the
workload, and prints as the last line of standard output
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1. A traced run also writes its spans as Chrome trace-event JSON to
.bench_build/traces/. Exact counts are kept in .bench_build/exact_counts.json
and every later run on the same checkout is compared against them.

Exits non-zero without printing a result when the sources cannot be built,
and prints a failed result (exit 1) when the workload process dies.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("frames", "compile", "serve-mix")
ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# Relative to ROOT and short: it must fit the library's JIT scratch-dir
# template (see the mkdtemp note in src/main.cpp).
JIT_TMP = ".bench_tmp"
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return None
    return cmake_dir / "perfbench"


def check_exact_counts(workload, counts):
    """Compares this run's exact counts with those of earlier runs."""
    path = BUILD / "exact_counts.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    seen = known.setdefault(workload, {})
    mismatches = 0
    for name, value in counts.items():
        if name in seen and seen[name] != value:
            mismatches += 1
            log(f"perfbench: exact count {name} is {value}, an earlier run "
                f"of this checkout saw {seen[name]}")
        seen.setdefault(name, value)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    print(f"exact counts: {len(counts)} recorded, {mismatches} differ from "
          f"earlier runs")
    return mismatches


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    (ROOT / JIT_TMP).mkdir(exist_ok=True)
    env = dict(os.environ, PERFBENCH_TMP=JIT_TMP,
               TMPDIR=str(ROOT / JIT_TMP))
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]

    result = None
    counts = {}
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
        log(f"perfbench: workload exceeded {RUN_TIMEOUT_S} s")
    for line in output.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.startswith("COUNTS "):
            counts = json.loads(line[len("COUNTS "):])
        else:
            print(line)

    if proc.returncode != 0 or result is None:
        # The library aborts the process on any failed compile or frame;
        # such a run is reported as failed rather than as missing metrics.
        log(f"perfbench: workload process exited with {proc.returncode}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    mismatches = check_exact_counts(args.workload, counts)
    if args.trace:
        result["metrics"]["observe.exact_count_mismatches"]["value"] += \
            mismatches
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
