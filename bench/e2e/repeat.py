#!/usr/bin/env python3
"""Repeat ecdra_e2e runs: measure run-to-run spreads, or write a snapshot.

Usage (from the root of an ecdra checkout):
    python3 bench/e2e/repeat.py [--runs N] [--seconds T] [--trace 0|1]
                                [--seed S] [--same-seed] [--snapshot PATH]

Runs bench/e2e/run.py N times on every workload, with seeds S, S+1, ...
(default 14; always S with --same-seed), and prints for every metric of
the final JSON line its median, first and third quartile, and the spread
(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them. Every run must report correct = true with no failed trial.

--snapshot PATH also writes an "ecdra-bench v1" document with one row
e2e/<workload> per workload, each value the median over the runs of every
metric the binary printed (from its --json output); tools/compare_bench.py
reads it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["paper-grid", "scaled-trial", "extensions", "batch-grid"]


def run_once(workload, seed, seconds, trace, json_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--json", json_path]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    with open(json_path, encoding="utf-8") as fh:
        return result, json.load(fh)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--snapshot")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    scratch = os.path.join(ROOT, ".bench_build", "repeat")
    os.makedirs(scratch, exist_ok=True)
    rows = []
    doc = None
    for workload in WORKLOADS:
        metrics = {}
        counters = {}
        units = {}
        rates = []
        attempted = []
        for i in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            path = os.path.join(scratch, f"{workload}.{i}.json")
            result, bench = run_once(workload, seed, args.seconds, args.trace,
                                     path)
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            row = bench["results"][0]
            for name, value in row["counters"].items():
                counters.setdefault(name, []).append(value)
            rates.append(row["ns_per_op"])
            attempted.append(row["iterations"])
            doc = doc or {k: v for k, v in bench.items() if k != "results"}
        print(f"== {workload}: {args.runs} runs, --seconds {args.seconds}, "
              f"--trace {args.trace}")
        for name, values in metrics.items():
            median, q1, q3, rel = spread(values)
            print(f"  {name:44s} median {median:.6g} {units[name]}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {rel:.2%}")
        rows.append({
            "name": f"e2e/{workload}",
            "iterations": int(statistics.median(attempted)),
            "ns_per_op": statistics.median(rates),
            "counters": {name: statistics.median(values)
                         for name, values in counters.items()},
        })

    if args.snapshot:
        doc["runs_per_workload"] = args.runs
        doc["results"] = rows
        with open(args.snapshot, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"snapshot written to {args.snapshot}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
