#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/main.exe with dune
(inside the tree, shared dune cache off), then runs it with the same
arguments.  The last line of stdout is the JSON result; the exit code is
the benchmark's, or 1 when the build fails.  See perfbench/METRICS.md.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def commit():
    if not os.path.exists(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled", PERFBENCH_COMMIT=commit())
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
