#!/usr/bin/env python3
"""Runs one bulkdel benchmark workload and prints its result.

    python3 perfbench/run.py --workload window_bulk|oltp_server|online_bulk \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark from
source into .bench_build/ (cmake + make), runs the workload in its own
process with its database under .bench_run/, and removes that directory
afterwards. The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: it runs the workload untraced once (the base of
trace.overhead_pct), then traced, and summarizes the traced run's Chrome
trace with bulkdel_tracecat (on standard error).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("window_bulk", "oltp_server", "online_bulk")
# A run must end within this many seconds of its start, build excluded.
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; make rebuilds only what changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no bulkdel sources (src/CMakeLists.txt) next to perfbench/")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("run.py: build failed: " + " ".join(cmd))
                return False
    return True


def run_workload(args, traced, deadline, baseline_ms=0.0):
    """Runs the benchmark binary once; returns (stdout lines, result dict)."""
    run_dir = os.path.join(RUN_DIR, "%s-%d-%d" % (args.workload, os.getpid(), traced))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD_DIR, "bulkdel_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--dir", run_dir]
    trace_file = os.path.join(run_dir, "trace.json")
    if traced:
        cmd += ["--trace-out", trace_file,
                "--baseline-delete-ms", repr(baseline_ms)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            log("run.py: %s exited with %d" % (cmd[0], proc.returncode))
            return None, None
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if traced:
            summary = subprocess.run(
                [os.path.join(BUILD_DIR, "bulkdel_tracecat"), trace_file, "--top=12"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
            log(summary.stdout)
            if summary.returncode != 0:
                log("run.py: bulkdel_tracecat could not summarize the trace")
                return None, None
        return lines, result
    except subprocess.TimeoutExpired:
        log("run.py: %s ran past the time budget" % args.workload)
        return None, None
    except (ValueError, IndexError):
        log("run.py: no result line from %s" % args.workload)
        return None, None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    baseline_ms = 0.0
    if args.trace:
        _, untraced = run_workload(args, False, deadline)
        if untraced is None:
            return 1
        baseline_ms = untraced["metrics"]["delete_p50_ms"]["value"]
    lines, result = run_workload(args, bool(args.trace), deadline, baseline_ms)
    if result is None:
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if os.path.isdir(RUN_DIR) and not os.listdir(RUN_DIR):
        os.rmdir(RUN_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
