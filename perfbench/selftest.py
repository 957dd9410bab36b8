#!/usr/bin/env python3
"""Self-test of the benchmark harness, on toy-size inputs.

  python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that

  * an untraced and a traced run both succeed and print, in the final JSON
    line, every end-to-end and every per-layer metric that BENCHMARK.json
    names, each with the unit BENCHMARK.json gives it;
  * a run whose answer was deliberately corrupted (--corrupt) is caught by
    the correctness check: it exits non-zero, reports correct = false and
    counts the failure.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--toy"]
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: failed (exit %d)" % (where, code))
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: attempted %d failed %d" % (
                    where, result["attempted"], result["failed"]))
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append("%s: metrics %s, expected %s" % (
                    where, sorted(metrics), sorted(expected[trace])))
            for name, unit in expected[trace].items():
                metric = metrics.get(name)
                if metric is None:
                    continue
                if metric.get("unit") != unit:
                    problems.append("%s: %s has unit %r, expected %r" % (
                        where, name, metric.get("unit"), unit))
                if not isinstance(metric.get("value"), (int, float)):
                    problems.append("%s: %s is not a number" % (where, name))
        code, result = run(workload, 0, corrupt=True)
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append("%s: corrupted answer was not caught (exit %d)" % (
                workload, code))
        print("%-14s %s" % (workload, "checked"), flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
