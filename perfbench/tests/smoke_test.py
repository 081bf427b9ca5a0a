#!/usr/bin/env python3
# Copyright 2026 The DepMatch Authors.
# Licensed under the Apache License, Version 2.0.
"""Tiny-size smoke test of every perfbench workload.

Run from the root of the repository:

    python3 perfbench/tests/smoke_test.py

For each workload it runs the benchmark untraced and traced at --size tiny
and checks that:
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every correctness check passed (correct, failed == 0);
  * the untraced run emits every end_to_end metric of BENCHMARK.json and
    the traced run every per_layer metric, each with its declared unit;
  * a per-layer metric that reads 0 carries its reason in the detail file;
  * the span file parses, and every parent precedes its child.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join(".bench_out", "smoke")
SEED = 7


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
               "--size", "tiny", "--out", OUT]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, timeout=900)
    if result.returncode != 0:
        fail(f"{workload} trace={trace} exited {result.returncode}:\n"
             f"{result.stderr[-3000:]}")
    report = json.loads(result.stdout.strip().splitlines()[-1])
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(report)}")
    if report["correct"] is not True or report["failed"] != 0:
        fail(f"{workload} trace={trace}: correctness checks failed: {report}")
    if not isinstance(report["attempted"], int) or report["attempted"] < 1:
        fail(f"{workload} trace={trace}: attempted {report['attempted']}")
    return report


def check_metrics(workload, trace, report, declared):
    metrics = report["metrics"]
    if set(metrics) != set(declared):
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        value = metrics[name]
        if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
            fail(f"{workload} trace={trace}: {name} is {value}, want unit {unit}")


def check_trace_files(workload, report):
    tag = f"{workload}-s{SEED}-t1"
    with open(os.path.join(ROOT, OUT, f"result-{tag}.json")) as f:
        detail = json.load(f)
    for name, value in report["metrics"].items():
        if value["value"] == 0 and name not in detail["notes"]:
            fail(f"{workload}: {name} reads 0 with no reason in the notes")
    spans = []
    with open(os.path.join(ROOT, OUT, f"spans-{tag}.jsonl")) as f:
        for line in f:
            spans.append(json.loads(line))
    if not spans:
        fail(f"{workload}: empty span file")
    for span in spans:
        if not {"id", "name", "start_ns", "end_ns", "parent", "request",
                "replayed"} <= set(span):
            fail(f"{workload}: malformed span {span}")
        if span["end_ns"] < span["start_ns"] or span["parent"] >= span["id"]:
            fail(f"{workload}: inconsistent span {span}")
    return len(spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        report = run(workload, 0)
        check_metrics(workload, 0, report, end_to_end)
        for name, value in report["metrics"].items():
            if value["value"] == 0:
                fail(f"{workload}: end-to-end metric {name} reads 0")
        report = run(workload, 1)
        check_metrics(workload, 1, report, per_layer)
        spans = check_trace_files(workload, report)
        print(f"ok {workload}: {report['attempted']} requests, {spans} spans")
    print("PASS")


if __name__ == "__main__":
    main()
