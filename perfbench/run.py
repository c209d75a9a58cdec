#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see perfbench/src/main.rs
for the flags). The binary is built with `cargo build --release` into
`$CARGO_TARGET_DIR` (default `.bench_build`); build output goes to standard
error, so the last line of standard output is the run's JSON result. Exits
non-zero, without a result line, when the build fails, the run fails an
output check, or its result line is malformed.
"""

import json
import os
import subprocess
import sys

# A run must end within 180 s of starting; the build gets its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join("crates", "core")):
        fail("run from the repository root: the workspace crates are missing")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"build failed: {e}")
    return os.path.join(target_dir, "release", "fitact_perfbench")


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:]],
            env=dict(os.environ, CARGO_TARGET_DIR=target_dir),
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except (subprocess.TimeoutExpired, OSError) as e:
        fail(f"run failed: {e}")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"the benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        fail(f"no result line: {e}")
    if set(result) != RESULT_KEYS or result["correct"] is not True or result["attempted"] < 1:
        fail(f"malformed or failed result: {lines[-1]}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
