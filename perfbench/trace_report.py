#!/usr/bin/env python3
"""Reads the span file of a traced perfbench run and derives the per-layer
metrics.

The span file holds one JSON object per line (see span_trace.h):

  {"type": "span", "name", "id", "parent", "request", "start_ns", "end_ns"}
  {"type": "stat", "request", ...}   # the library's StatsReport digest

A layer's self time is its span's duration minus the part of it that child
spans cover. Per-layer times are reported in ms per timed read request
(the layer's share of mean latency), except planner.stats_ms (ms per
direct probe call) and serve.catalog_register_ms (ms per write).
run.py calls report() after a traced run.
"""

import json
import statistics
from collections import defaultdict

# Per-layer metric name -> unit, as BENCHMARK.json lists them.
UNITS = {
    "query.parse_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.stats_ms": "ms",
    "planner.dp_states": "count",
    "planner.cache_hit_ratio": "fraction",
    "mpc.scatter_ms": "ms",
    "mpc.collect_ms": "ms",
    "mpc.round_ms": "ms",
    "mpc.route_ms": "ms",
    "mpc.count_ms": "ms",
    "mpc.copy_ms": "ms",
    "mpc.transpose_ms": "ms",
    "mpc.comm_tuples": "count",
    "mpc.bytes": "bytes",
    "mpc.max_load_tuples": "count",
    "mpc.peak_fragment_rows": "count",
    "mpc.cow_detaches": "count",
    "local.compute_ms": "ms",
    "local.columnar_scan_ms": "ms",
    "exec.ms": "ms",
    "exec.unattributed_ms": "ms",
    "agg.ms": "ms",
    "agg.groups": "count",
    "serve.result_cache_hit_ratio": "fraction",
    "serve.coalesced_ratio": "fraction",
    "serve.rejected": "count",
    "serve.hit_latency_p50_ms": "ms",
    "serve.miss_latency_p50_ms": "ms",
    "serve.useful_execution_ratio": "fraction",
    "serve.catalog_register_ms": "ms",
    "trace.overhead_ms": "ms",
}

# Root spans that are one timed read request each.
REQUEST_ROOTS = ("request", "serve.execute")


def load(path):
    spans, stats = [], defaultdict(dict)
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["type"] == "span":
                spans.append(record)
            else:
                stats[record["request"]].update(record)
    return spans, stats


def self_times_ms(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    result = {}
    for s in spans:
        covered, cursor = 0, s["start_ns"]
        for start, end in sorted(children[s["id"]]):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) / 1e6
    return result


def duration_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def median(values):
    return statistics.median(values) if values else 0.0


def per_layer(spans, stats, summary):
    self_ms = self_times_ms(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    reads = [s for s in spans if s["parent"] == 0 and s["name"] in REQUEST_ROOTS]
    n = max(1, len(reads))

    def layer_ms(name):
        return sum(self_ms[s["id"]] for s in by_name[name]) / n

    read_stats = [stats[s["request"]] for s in reads if s["request"] in stats]
    executed = [st for st in read_stats if st.get("kind") in ("query", "miss")]

    def stat_sum(field):
        return sum(st.get(field, 0) for st in executed) / n

    def stat_max(field):
        return max((st.get(field, 0) for st in executed), default=0)

    m = {}
    m["query.parse_ms"] = layer_ms("query.parse")
    # The direct workloads span PlanQuery; inside QueryServer the planning
    # time comes from the StatsReport.
    m["planner.plan_ms"] = (layer_ms("planner.plan") if by_name["planner.plan"]
                            else stat_sum("planning_ms"))
    m["planner.stats_ms"] = median([duration_ms(s) for s in by_name["planner.stats"]])
    m["planner.dp_states"] = sum(stats[s["request"]].get("dp_states", 0)
                                 for s in reads if s["request"] in stats) / n
    hits = [st["plan_cache_hit"] for st in executed if "plan_cache_hit" in st]
    m["planner.cache_hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    m["mpc.scatter_ms"] = layer_ms("mpc.scatter")
    m["mpc.collect_ms"] = layer_ms("mpc.collect")
    m["mpc.round_ms"] = stat_sum("round_ms")
    for phase in ("route", "count", "copy", "transpose"):
        m["mpc.%s_ms" % phase] = stat_sum(phase + "_ms")
    m["mpc.comm_tuples"] = stat_sum("comm_tuples")
    m["mpc.bytes"] = stat_sum("bytes")
    m["mpc.max_load_tuples"] = stat_max("max_load_tuples")
    m["mpc.peak_fragment_rows"] = stat_max("peak_fragment_rows")
    m["mpc.cow_detaches"] = stat_sum("cow_detaches")
    m["local.compute_ms"] = stat_sum("local_ms")
    m["local.columnar_scan_ms"] = stat_sum("columnar_scan_ms")

    # exec: the ExecutePlannedQuery span where the benchmark makes the call.
    # Inside QueryServer the benchmark cannot wrap the call, so there it is
    # an executed request's serve.execute span minus the planning time its
    # StatsReport gives; that also holds the server's parse, re-scatter,
    # collect and cache work. Unattributed is exec minus what the
    # StatsReport accounts for (rounds plus outside-round phases).
    exec_total, unattributed = 0.0, 0.0
    if by_name["exec"]:
        for s in by_name["exec"]:
            exec_total += self_ms[s["id"]]
            unattributed += self_ms[s["id"]] - stats[s["request"]].get("exec_wall_ms", 0)
    else:
        for s in reads:
            st = stats.get(s["request"], {})
            if st.get("kind") == "miss":
                part = duration_ms(s) - st.get("planning_ms", 0)
                exec_total += part
                unattributed += part - st.get("wall_ms", 0)
    m["exec.ms"] = exec_total / n
    m["exec.unattributed_ms"] = unattributed / n

    m["agg.ms"] = layer_ms("agg")
    groups = [st["agg_groups"] for st in executed if st.get("agg_groups", -1) >= 0]
    m["agg.groups"] = sum(groups) / len(groups) if groups else 0

    kinds = defaultdict(list)
    for s in reads:
        kinds[stats.get(s["request"], {}).get("kind")].append(duration_ms(s))
    serving = bool(by_name["serve.execute"])
    reads_seen = len(by_name["serve.execute"]) or 1
    m["serve.result_cache_hit_ratio"] = len(kinds["hit"]) / reads_seen if serving else 0.0
    m["serve.coalesced_ratio"] = len(kinds["coalesced"]) / reads_seen if serving else 0.0
    m["serve.rejected"] = sum(1 for st in stats.values() if st.get("kind") == "rejected")
    m["serve.hit_latency_p50_ms"] = median(kinds["hit"])
    m["serve.miss_latency_p50_ms"] = median(kinds["miss"])
    m["serve.useful_execution_ratio"] = summary.get("useful_execution_ratio", 0.0)
    m["serve.catalog_register_ms"] = median(
        [duration_ms(s) for s in by_name["serve.catalog_register"]])

    traced_p50 = median([duration_ms(s) for s in reads])
    m["trace.overhead_ms"] = traced_p50 - summary.get("untraced_p50_ms", traced_p50)
    return m


def self_time_table(spans):
    """Total self time per span name (ms), for the human-readable report."""
    self_ms = self_times_ms(spans)
    table = defaultdict(float)
    for s in spans:
        table[s["name"]] += self_ms[s["id"]]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


def report(spans_path, summary):
    spans, stats = load(spans_path)
    return per_layer(spans, stats, summary), self_time_table(spans)

