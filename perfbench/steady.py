#!/usr/bin/env python3
"""Steadiness check for the bulkdel benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads window_bulk,oltp_server,online_bulk]
        [--out set1.json] [--compare set0.json]

Run from the repository root. Runs every workload --runs times through the
command in BENCHMARK.json (untraced, run_seconds each, a new seed per run),
rotating the workload order from one run to the next so no workload always
runs first. Then prints, per workload and end-to-end metric, the median,
the quartiles (statistics.quantiles(n=4)) and their distance as a share of
the median, against the metric's bound: "steady" below a third of the
bound, "within" below the bound, "WIDE" above it (setup_s is exempt from
the spread gate). It also prints each workload's failed share per run,
which must be identical across runs.

--out saves the values; --compare reads a saved set and reports, per
metric, how far this set's median moved against that set's, in the
metric's worse direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("steady.py: %s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            start = time.monotonic()
            result = run_once(bench, w, args.first_seed + r)
            results[w].append(result)
            print("run %d %-12s %5.1f s  correct=%s attempted=%d failed=%d" %
                  (r, w, time.monotonic() - start, result["correct"], result["attempted"],
                   result["failed"]), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)

    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
    ok = True
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, all correct=%s, failed share %s" %
              (w, len(runs), all(r["correct"] for r in runs),
               " ".join("%.6g" % s for s in shares)))
        ok &= all(r["correct"] for r in runs) and len(shares) == 1
        print("  %-22s %14s %14s %14s %8s %6s  %s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "within" if spread <= bound else "WIDE")
            if name == "setup_s":
                verdict += " (exempt)"
            elif verdict == "WIDE":
                ok = False
            line = "  %-22s %14.4f %14.4f %14.4f %8.3f %6.2f  %s" % (
                name, q1, med, q3, spread, bound, verdict)
            if baseline is not None and baseline.get(w):
                old = statistics.median(r["metrics"][name]["value"] for r in baseline[w])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += "  vs base %+.3f%s" % (worse, " WORSE" if worse > bound else "")
                ok &= worse <= bound
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
