#!/usr/bin/env python3
"""Build ecdra_e2e from this checkout and run one benchmark workload.

Usage (from the root of an ecdra checkout):
    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [ecdra_e2e flags...]

Configures and builds bench/e2e (Release) into .bench_build/ at the
checkout root, with all build output on stderr, then runs the ecdra_e2e
binary with the given arguments. The binary's standard output passes
through unchanged; its last line is the JSON result. Exits with the
binary's exit code, or 2 without a result when the checkout has no
library sources or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ecdra_e2e")


def build():
    """Configures once, then builds; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources under src/; run from a full "
              "ecdra checkout", file=sys.stderr)
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "ecdra_e2e"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("run.py: " + " ".join(step) + " failed", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
