#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (shared build cache off, so nothing is
written outside the tree), then runs it with the same arguments. The last
line of standard output is the JSON result. Exits nonzero, without a
result, if the build fails; exits with the benchmark's own code otherwise
(1 when a correctness or determinism check failed).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [EXE, *sys.argv[1:], "--out", OUT], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
