#!/usr/bin/env python3
"""tools/ab_e2e.py on canned result lines (--replay): no git, no build.

Run directly or through ctest (tool_ab_e2e). Each case writes a log of
"<side> <workload> <result JSON>" lines and checks the report and the exit
status against BENCHMARK.json's bounds (tasks_per_s 0.24, setup_s 0.25,
peak_rss_mb 0.2).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "ab_e2e.py")


def result(tasks_per_s, setup_s=0.1, peak_rss_mb=8.0, correct=True,
           failed=0):
    return {"correct": correct, "attempted": 6, "failed": failed,
            "metrics": {
                "tasks_per_s": {"value": tasks_per_s, "unit": "tasks/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}}


def replay(lines):
    with tempfile.NamedTemporaryFile("w", suffix=".log", delete=False) as fh:
        for side, workload, res in lines:
            fh.write(f"{side} {workload} {json.dumps(res)}\n")
    try:
        proc = subprocess.run([sys.executable, TOOL, "--replay", fh.name],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.unlink(fh.name)
    return proc.returncode, proc.stdout, proc.stderr


def row(stdout, metric):
    for line in stdout.splitlines():
        if line.split()[:1] == [metric]:
            return line.split()
    raise AssertionError(f"no row for {metric} in:\n{stdout}")


def pairs(base, head, workload="extensions", head_extra=None):
    """Alternating base/head lines of tasks_per_s values; head_extra sets
    the head's other metrics."""
    lines = []
    for i, (b, h) in enumerate(zip(base, head)):
        order = [("base", result(b)),
                 ("head", result(h, **(head_extra or {})))]
        for side, res in order if i % 2 == 0 else order[::-1]:
            lines.append((side, workload, res))
    return lines


class AbE2eReplay(unittest.TestCase):
    def test_clear_gain_wins_every_pair(self):
        base = [100.0 + i for i in range(10)]
        head = [190.0 + i for i in range(10)]
        code, out, err = replay(pairs(base, head))
        self.assertEqual(code, 0, err)
        self.assertIn("== extensions: 10 pairs", out)
        fields = row(out, "tasks_per_s")
        self.assertEqual(fields[-1], "gain")
        self.assertIn("10/10", fields)
        self.assertIn("1.861", fields)  # median 194.5 / 104.5
        # Quartiles as bench/e2e/repeat.py computes them (the default,
        # exclusive method); the inclusive one would print 102.25, 106.75.
        self.assertIn("104.5 [101.75, 107.25]", out)
        self.assertEqual(row(out, "setup_s")[-1], "same")
        self.assertIn("0/10", row(out, "setup_s"))  # ties count for no side

    def test_throughput_drop_past_its_bound_fails(self):
        base = [100.0] * 10
        head = [70.0] * 10  # 30% worse; the bound is 24%
        code, out, _ = replay(pairs(base, head))
        self.assertEqual(code, 1)
        self.assertEqual(row(out, "tasks_per_s")[-1], "worse")

    def test_drop_within_its_bound_passes(self):
        code, out, _ = replay(pairs([100.0] * 10, [80.0] * 10))
        self.assertEqual(code, 0)
        self.assertNotEqual(row(out, "tasks_per_s")[-1], "worse")

    def test_lower_is_better_metric_fails_on_a_rise(self):
        lines = pairs([100.0] * 4, [100.0] * 4,
                      head_extra={"peak_rss_mb": 10.0})  # +25% > bound 20%
        code, out, _ = replay(lines)
        self.assertEqual(code, 1)
        self.assertEqual(row(out, "peak_rss_mb")[-1], "worse")
        self.assertEqual(row(out, "tasks_per_s")[-1], "same")

    def test_wide_base_spread_is_unresolved(self):
        base = [50.0, 150.0, 60.0, 140.0]
        head = [100.0, 90.0, 110.0, 95.0]
        code, out, _ = replay(pairs(base, head))
        self.assertEqual(code, 0)
        self.assertEqual(row(out, "tasks_per_s")[-1], "unresolved")

    def test_workloads_report_separately(self):
        lines = (pairs([100.0] * 3, [100.0] * 3, workload="paper-grid") +
                 pairs([100.0] * 3, [60.0] * 3, workload="batch-grid"))
        code, out, _ = replay(lines)
        self.assertEqual(code, 1)
        self.assertLess(out.index("== paper-grid"), out.index("== batch-grid"))

    def test_incorrect_run_is_refused(self):
        lines = pairs([100.0] * 3, [100.0] * 3)
        lines[3] = ("head", "extensions", result(100.0, correct=False))
        code, _, err = replay(lines)
        self.assertEqual(code, 2)
        self.assertIn("not correct", err)

    def test_failed_trials_are_refused(self):
        lines = pairs([100.0] * 3, [100.0] * 3)
        lines[0] = ("base", "extensions", result(100.0, failed=1))
        code, _, err = replay(lines)
        self.assertEqual(code, 2)
        self.assertIn("not correct", err)

    def test_malformed_line_is_refused(self):
        code, _, err = replay([("base", "extensions", result(1.0))] +
                              [("middle", "extensions", result(1.0))])
        self.assertEqual(code, 2)
        self.assertIn("unknown side", err)


if __name__ == "__main__":
    unittest.main()
