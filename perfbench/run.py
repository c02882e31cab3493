#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload solo_campaign --seed 1 --seconds 10 --trace 0

Cargo's output goes to stderr; the benchmark's last stdout line is the
JSON result. The build uses CARGO_TARGET_DIR when it is set and
`.bench_build` otherwise. Exits non-zero, without a result, when the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
