#!/usr/bin/env python3
# Copyright 2026 The DepMatch Authors.
# Licensed under the Apache License, Version 2.0.
"""Builds and runs the DepMatch served-workload benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_near --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, or .bench_build when unset;
later runs rebuild only what changed. The last line of stdout is the
benchmark's JSON result. Detail and span files go to .bench_out/. Any
failure — a missing source tree, a build error, a crash, a timeout or a
result that does not parse — exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A measured run must end well within three minutes.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "depmatch_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["search_near", "match_tables", "append_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", default=".bench_out")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        if not build(build_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "depmatch_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--size", args.size, "--out", args.out]
    try:
        # subprocess.run kills and reaps the benchmark on timeout.
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {result.returncode}",
              file=sys.stderr)
        return 1
    try:
        report = json.loads(lines[-1])
    except ValueError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return 1
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: result has unexpected keys", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
