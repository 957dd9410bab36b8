#!/usr/bin/env python3
"""Runs one workload of the mpcqp query benchmark and prints its metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into .bench_build/; later runs only rebuild what changed. The build log
goes to stderr.

Standard output: one line of run provenance, one line per metric
("name = value unit"), and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (timed with tracing off); with --trace 1 they are
the per-layer ones, derived by trace_report.py from the spans of a traced
phase. The exit code is 0 only when every answer was correct.

--toy shrinks the inputs and --corrupt damages one answer; selftest.py uses
both. README.md in this directory describes workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("cyclic_cold", "skew_agg_warm", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import trace_report  # noqa: E402

# End-to-end metric name -> (field of the perfbench binary's JSON, unit).
END_TO_END = {
    "setup_s": ("setup_s", "s"),
    "latency_p50_ms": ("latency_p50_ms", "ms"),
    "latency_p90_ms": ("latency_p90_ms", "ms"),
    "throughput_qps": ("throughput_qps", "1/s"),
    "success_rate": (None, "fraction"),
    "load_ratio": ("load_ratio", "ratio"),
    "rounds": ("rounds", "count"),
    "peak_rss_mb": ("peak_rss_mb", "MiB"),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build failed: %s" % error)
        if done.returncode != 0:
            fail("build failed: %s" % " ".join(step))


def git_revision():
    """HEAD's commit from .git in the checkout, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    spans_path = os.path.join(
        BUILD_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--spans", spans_path]
    if args.trace:
        command.append("--trace")
    if args.toy:
        command.append("--toy")
    if args.corrupt:
        command.append("--corrupt")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result from %s (exit %d)" % (args.workload, done.returncode))

    provenance = {key: summary[key] for key in (
        "workload", "seed", "simd_isa", "nproc", "build_type", "servers",
        "threads", "toy")}
    provenance["git_revision"] = git_revision()
    print("provenance: " + json.dumps(provenance))
    print("samples = %d timed queries (%d in the windows the timings use), "
          "%d writes, error_rate = %.6f (%d wrong answers, %d refused or "
          "failed)" % (
              summary["all_samples"], summary["samples"], summary["writes"],
              summary["error_rate"], summary["wrong"], summary["errors"]))

    if args.trace:
        layers, self_ms = trace_report.report(spans_path, summary)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in trace_report.UNITS.items()}
        print("self time by span (ms, traced phase): " + json.dumps(
            {name: round(ms, 3) for name, ms in self_ms.items()}))
    else:
        metrics = {}
        for name, (field, unit) in END_TO_END.items():
            value = 1.0 - summary["error_rate"] if field is None else summary[field]
            metrics[name] = {"value": value, "unit": unit}
    for name, metric in metrics.items():
        print("%s = %r %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    sys.exit(0 if summary["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
