#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark: a base revision against a head.

Usage (from anywhere inside an ecdra checkout):
    python3 tools/ab_e2e.py [--base REV] [--head REV] [--workload W ...]
                            [--pairs N] [--seed S] [--log PATH]
    python3 tools/ab_e2e.py --replay PATH

Exports the base revision (default HEAD) and the head (default: the working
tree, tracked and untracked files that git does not ignore; or --head REV)
into two temporary directories outside the checkout, and builds each with
its own bench/e2e/run.py through one --smoke run that must be correct. Then,
for every workload (default: all four), it runs N pairs (default 10) of
"run.py --workload W --seed S --seconds T --trace 0", with T the
run_seconds of BENCHMARK.json, whose bounds hold for runs of that length,
swapping which side runs first every pair. Every run must print
"correct": true and "failed": 0.

For every end-to-end metric of BENCHMARK.json it prints, per workload, each
side's median and quartiles (statistics.quantiles(values, n=4), as
bench/e2e/repeat.py computes its spreads), the head's wins
(pairs where the head is strictly better; ties count for neither side), the
median ratio head/base and a verdict:

  worse       the median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  gain        the head won at least nine tenths of the pairs and the
              medians differ by more than the base's interquartile range;
  unresolved  the base's own interquartile range is wider than the bound
              (relative to its median) and the head's runs do not all beat
              the base's;
  same        anything else.

Each side's build output and stderr go to <side>.log beside its export;
the exports are removed at the end unless a step failed. --log PATH appends one line per run, "<side> <workload> <result
JSON>", where the JSON is the last line run.py printed; --replay PATH reads
such a file instead of running anything (no git, no build) and prints the
same report. Exit status: 0 when no metric is worse than its bound, 1 when
one is, 2 for a usage error, a failed build, or a run that was not
correct.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper-grid", "scaled-trial", "extensions", "batch-grid"]
SIDES = ("base", "head")


class AbError(Exception):
    """A failure that ends the run with exit status 2."""


def load_bounds(root):
    """Returns (run_seconds, [(name, unit, better, bound)]) for
    BENCHMARK.json's run length and end-to-end metrics."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return int(bench["run_seconds"]), [
        (m["name"], m["unit"], m["better"], float(m["bound"]))
        for m in bench["end_to_end"]]


def check_result(side, workload, result):
    if result.get("correct") is not True or result.get("failed") != 0:
        raise AbError(f"{side} {workload}: run was not correct: "
                      f"{json.dumps(result)}")


def export_revision(rev, dest):
    """Writes the tree of `rev` into `dest` (git archive, no .git)."""
    proc = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                            stdout=subprocess.PIPE)
    # The "data" filter (where this Python has it) refuses members that
    # would land outside `dest`.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
        archive.extractall(dest, **safe)
    if proc.wait() != 0:
        raise AbError(f"git archive {rev} failed")


def export_worktree(dest):
    """Copies the working tree's tracked and unignored files into `dest`."""
    listing = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, stdout=subprocess.PIPE).stdout
    for rel in sorted(set(listing.decode().split("\0")) - {""}):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run_e2e(checkout, args):
    """Runs the checkout's bench/e2e/run.py; returns its last line as JSON.
    The build output and the binary's stderr go to <checkout>.log."""
    cmd = [sys.executable, os.path.join("bench", "e2e", "run.py")] + args
    with open(checkout + ".log", "a", encoding="utf-8") as log:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              stderr=log, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise AbError(f"{checkout}: {' '.join(cmd)} exited "
                      f"{proc.returncode} without a result (see "
                      f"{checkout}.log)") from None


def collect(args, seconds, log):
    """Exports, builds and runs both sides, every run `seconds` long;
    returns [(side, workload, result)] in run order."""
    work = tempfile.mkdtemp(prefix="ecdra-ab-")
    dirs = {side: os.path.join(work, side) for side in SIDES}
    done = False
    try:
        print(f"exporting base {args.base} and head "
              f"{args.head or 'working tree'} into {work}", flush=True)
        os.makedirs(dirs["base"])
        export_revision(args.base, dirs["base"])
        os.makedirs(dirs["head"])
        if args.head:
            export_revision(args.head, dirs["head"])
        else:
            export_worktree(dirs["head"])
        for side in SIDES:
            print(f"building {side} (one --smoke run)", flush=True)
            result = run_e2e(dirs[side],
                             ["--workload", args.workloads[0], "--smoke"])
            check_result(side, args.workloads[0], result)
        runs = []
        for workload in args.workloads:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_e2e(dirs[side], [
                        "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(seconds), "--trace", "0"])
                    log.write(f"{side} {workload} {json.dumps(result)}\n")
                    log.flush()
                    check_result(side, workload, result)
                    runs.append((side, workload, result))
                print(f"{workload}: pair {pair + 1}/{args.pairs} done",
                      flush=True)
        done = True
        return runs
    finally:
        if not done:
            print(f"kept {work}", file=sys.stderr)
        else:
            shutil.rmtree(work, ignore_errors=True)


def replay(path):
    """Reads a --log file back into [(side, workload, result)]."""
    runs = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                side, workload, text = line.split(" ", 2)
                result = json.loads(text)
            except ValueError:
                raise AbError(f"{path}:{number}: expected "
                              "'<side> <workload> <json>'") from None
            if side not in SIDES:
                raise AbError(f"{path}:{number}: unknown side {side!r}")
            check_result(side, workload, result)
            runs.append((side, workload, result))
    return runs


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base, head, higher_better, bound):
    """Returns (ratio, wins, verdict) for paired metric values."""
    better = ((lambda h, b: h > b) if higher_better
              else (lambda h, b: h < b))
    wins = sum(better(h, b) for b, h in zip(base, head))
    base_median, base_q1, base_q3 = quartiles(base)
    head_median = quartiles(head)[0]
    ratio = head_median / base_median if base_median else float("inf")
    worse_by = (1.0 - ratio) if higher_better else (ratio - 1.0)
    if worse_by > bound:
        return ratio, wins, "worse"
    if (wins >= 0.9 * len(base) and better(head_median, base_median)
            and abs(head_median - base_median) > base_q3 - base_q1):
        return ratio, wins, "gain"
    spread = (base_q3 - base_q1) / base_median if base_median else 0.0
    best_base = max(base) if higher_better else min(base)
    if spread > bound and not all(better(h, best_base) for h in head):
        return ratio, wins, "unresolved"
    return ratio, wins, "same"


def report(runs, metrics):
    """Prints the per-workload table; returns True when no metric is worse
    than its bound."""
    ok = True
    workloads = list(dict.fromkeys(workload for _, workload, _ in runs))
    for workload in workloads:
        values = {side: [r for s, w, r in runs if s == side and w == workload]
                  for side in SIDES}
        pairs = min(len(values["base"]), len(values["head"]))
        if pairs < 2:
            raise AbError(f"{workload}: need at least 2 pairs, have {pairs}")
        print(f"== {workload}: {pairs} pairs")
        print(f"  {'metric':12s} {'unit':8s} {'base median [q1, q3]':>28s} "
              f"{'head median [q1, q3]':>28s} {'ratio':>7s} {'wins':>6s} "
              f"{'bound':>6s}  verdict")
        for name, unit, better, bound in metrics:
            sides = {}
            for side in SIDES:
                try:
                    sides[side] = [r["metrics"][name]["value"]
                                   for r in values[side][:pairs]]
                except KeyError:
                    raise AbError(f"{workload}: a {side} run has no metric "
                                  f"{name!r}") from None
            ratio, wins, word = verdict(sides["base"], sides["head"],
                                        better == "higher", bound)
            ok = ok and word != "worse"
            cells = []
            for side in SIDES:
                median, q1, q3 = quartiles(sides[side])
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"  {name:12s} {unit:8s} {cells[0]:>28s} {cells[1]:>28s} "
                  f"{ratio:7.3f} {wins:>3d}/{pairs:<2d} {bound:6.2f}  {word}")
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--head")
    parser.add_argument("--workload", dest="workloads", action="append",
                        choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--log")
    parser.add_argument("--replay")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    args.workloads = args.workloads or WORKLOADS

    try:
        seconds, metrics = load_bounds(ROOT)
        if args.replay:
            runs = replay(args.replay)
        else:
            with open(args.log, "a", encoding="utf-8") if args.log else \
                    open(os.devnull, "w", encoding="utf-8") as log:
                runs = collect(args, seconds, log)
        return 0 if report(runs, metrics) else 1
    except (AbError, subprocess.CalledProcessError, OSError) as error:
        print(f"ab_e2e.py: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
