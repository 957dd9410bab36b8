// perfbench: the repository's query benchmark binary.
//
// Runs one workload on generated data through the library's public entry
// points (ConjunctiveQuery::Parse, DistRelation::Scatter, PlanQuery,
// ExecutePlannedQuery, DistributedGroupByAggregate, Collect, and
// QueryServer::Execute), checks every answer against serial evaluation,
// and prints one JSON object of measurements as its last stdout line.
// run.py builds this binary, runs it, and turns that object (plus the span
// file of a traced run, read by trace_report.py) into the benchmark's
// metrics. README.md in this directory explains the workloads and the
// metric names.
//
//   perfbench --workload cyclic_cold|skew_agg_warm|serve_mixed --seed N
//             --seconds S [--trace] [--spans FILE] [--toy] [--corrupt]
//
// --trace splits the timed time in two: an untraced half (its latency is
// the baseline of the tracing overhead) and a traced half whose spans are
// written to --spans. --toy shrinks every input for the harness self-test;
// --corrupt damages one timed answer so the self-test can prove that the
// correctness check catches it.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "common/hash.h"
#include "common/parse.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/metrics.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "query/local_eval.h"
#include "query/lower_bounds.h"
#include "query/query.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "serve/catalog.h"
#include "serve/query_server.h"
#include "span_trace.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using mpcqp::AggregateOp;
using mpcqp::Catalog;
using mpcqp::Cluster;
using mpcqp::ClusterOptions;
using mpcqp::ConjunctiveQuery;
using mpcqp::DistRelation;
using mpcqp::Phase;
using mpcqp::PlanCache;
using mpcqp::PlannedQuery;
using mpcqp::QueryResult;
using mpcqp::QueryServer;
using mpcqp::Relation;
using mpcqp::Rng;
using mpcqp::ServeOptions;
using mpcqp::StatsReport;
using mpcqp::Value;
using Span = SpanRecorder::Span;

// The configuration the workloads are defined at: p = 64 simulated
// servers executing on one shared pool of 2 threads. Two threads on the
// 4-core reference box leave headroom, so a process on a neighbouring core
// does not stall every parallel loop (with 4 threads one busy core added
// 17% to cyclic_cold latency; with 2 it added none).
constexpr int kServers = 64;
constexpr int kThreads = 2;
// cyclic_cold and skew_agg_warm rotate through this many instances, each
// with its own data and hash-function draw from the seed, so a run's
// figures do not hang on one draw: on skew_agg_warm one draw's load ratio
// ranges from 0.36 to 0.68.
constexpr int kInstances = 16;
// The direct workloads read their memory high-water mark after this many
// timed queries (every instance twice), so the figure does not depend on
// how many queries fit in the run.
constexpr int64_t kMemoryQueries = 2 * kInstances;
// Setup runs this many times per process; setup_s is their median.
constexpr int kSetupRepeats = 5;
// The timed phase is cut into this many equal windows by completion time.
// The kTrimmedWindows windows with the highest mean latency are set aside
// before the timing figures are taken, so a burst of load from outside
// the process (another tenant of the host) does not move them; a change to
// the code slows every window alike and is not trimmed away.
constexpr int kWindows = 10;
constexpr int kTrimmedWindows = 2;
// Direct GatherPlannerStats probes per traced run (planner.stats_ms).
constexpr int kStatsProbes = 5;
// serve_mixed: closed-loop client threads, and every kWriteEvery-th ticket
// is a write that re-registers T with fresh content. Each write makes the
// next read of each of the 3 texts execute, and one or more reads wait on
// a coalesced execution: about a quarter of the reads are slow. p50 then
// lies well inside the cache hits, and p90 inside the triangle
// executions (40-60 ms), not between them and the two-hop executions
// (about 4 ms), where it swung 25% from run to run with a write every
// 16th ticket.
constexpr int kServeClients = 4;
constexpr int64_t kWriteEvery = 14;
// serve_mixed reads its memory high-water mark when this ticket is issued,
// not at the end of timing: the result cache keeps the stale answers of
// every version of T, so memory read at the end would grow with
// throughput. At the reference speed the ticket comes about 5 s in.
constexpr int64_t kMemoryTicket = 2400;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path = "perfbench_spans.jsonl";
  bool toy = false;
  bool corrupt = false;
};

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// Nearest-rank percentile of `values` (q in (0, 1]); 0 for no samples.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()) +
                                    0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Order-independent digest of a relation's multiset of rows: the row
// count plus the wrapping sum of a per-row hash.
struct Digest {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const Relation& relation) {
  Digest digest;
  digest.rows = relation.size();
  const int arity = relation.arity();
  for (int64_t i = 0; i < relation.size(); ++i) {
    const Value* row = relation.row(i);
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(arity);
    for (int c = 0; c < arity; ++c) h = mpcqp::SplitMix64(h ^ row[c]);
    digest.hash += h;
  }
  return digest;
}

// The --corrupt damage: one extra row no generator produces.
Relation Corrupted(const Relation& answer) {
  Relation damaged = answer;
  std::vector<Value> row(answer.arity(), ~Value{0});
  damaged.AppendRow(row);
  return damaged;
}

// One timed answer, to be checked after timing: query index, the range of
// data versions it may have been computed against (a concurrent write
// widens it), and its digest.
struct Answer {
  int query = 0;
  int64_t version_lo = 0;
  int64_t version_hi = 0;
  Digest digest;
};

// One successful query: when it completed (seconds into the phase) and
// how long it took.
struct Sample {
  double done_s = 0;
  double latency_ms = 0;
};

// What one timed phase measured.
struct PhaseResult {
  std::vector<Sample> samples;  // Successful queries.
  int64_t attempted = 0;
  int64_t errors = 0;  // Non-OK statuses (refused or failed).
  int64_t writes = 0;
  double wall_s = 0;
  std::vector<Answer> answers;
};

void Merge(PhaseResult& into, PhaseResult&& from) {
  into.samples.insert(into.samples.end(), from.samples.begin(),
                      from.samples.end());
  into.attempted += from.attempted;
  into.errors += from.errors;
  into.writes += from.writes;
  into.answers.insert(into.answers.end(), from.answers.begin(),
                      from.answers.end());
}

// The timing figures of a phase, taken over its steadiest windows (see
// kWindows): the fastest kWindows - kTrimmedWindows windows, ranked by the
// mean latency of the queries that completed in them.
struct Timing {
  double p50_ms = 0;
  double p90_ms = 0;
  double qps = 0;
  size_t samples = 0;  // Queries the figures rest on.
};

Timing SteadyTiming(const std::vector<Sample>& samples, double seconds,
                    double wall_s) {
  const double window_s = seconds / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  for (const Sample& s : samples) {
    const int w = std::min(kWindows - 1, static_cast<int>(s.done_s / window_s));
    windows[w].push_back(s.latency_ms);
  }
  // An empty window ranks last: nothing completed in it.
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 1e300 : Mean(v);
  };
  std::vector<int> order(kWindows);
  for (int w = 0; w < kWindows; ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return mean(windows[a]) < mean(windows[b]);
  });
  Timing timing;
  std::vector<double> kept;
  double kept_s = 0;
  for (int i = 0; i < kWindows - kTrimmedWindows; ++i) {
    const int w = order[i];
    kept.insert(kept.end(), windows[w].begin(), windows[w].end());
    // The last window also holds the queries that ran past the deadline.
    kept_s += w == kWindows - 1 ? wall_s - (kWindows - 1) * window_s : window_s;
  }
  timing.p50_ms = Percentile(kept, 0.5);
  timing.p90_ms = Percentile(kept, 0.9);
  timing.qps = kept_s > 0 ? static_cast<double>(kept.size()) / kept_s : 0.0;
  timing.samples = kept.size();
  return timing;
}

// The paper's yardstick over the executed queries: L over the one-round
// lower bound IN / p^{1/τ*} of each query, reported as the mean, and the
// worst round count. The mean still sees a skew-handling regression on a
// few of the 16 instances, which a median would not; the worst ratio of a
// run hangs on whether two mid-frequency Zipf keys hash to one server and
// jumped between 0.46 and 0.68 from seed to seed.
struct Yardstick {
  std::vector<double> load_ratios;
  int worst_rounds = 0;
  std::mutex mutex;  // Serving clients report concurrently.

  void Add(const StatsReport& stats, double lower_bound) {
    std::lock_guard<std::mutex> lock(mutex);
    load_ratios.push_back(static_cast<double>(stats.max_load_tuples) /
                          lower_bound);
    worst_rounds = std::max(worst_rounds, stats.num_rounds);
  }
};

double LowerBound(const ConjunctiveQuery& q,
                  const std::vector<Relation>& inputs) {
  std::vector<int64_t> sizes;
  for (const Relation& r : inputs) sizes.push_back(r.size());
  const auto bound = mpcqp::OneRoundLoadLowerBound(q, sizes, kServers);
  MPCQP_CHECK(bound.ok() && *bound > 0) << "no load lower bound";
  return *bound;
}

ConjunctiveQuery MustParse(const std::string& text) {
  auto parsed = ConjunctiveQuery::Parse(text);
  MPCQP_CHECK(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

// The library's StatsReport, digested into the per-request fields the
// span reader consumes. Phase times sum over rounds and the outside-round
// bucket.
std::string StatsFields(const StatsReport& stats) {
  double round_ms = 0;
  double phase_ms[mpcqp::kNumPhases] = {};
  for (const StatsReport::Round& round : stats.rounds) {
    round_ms += round.wall_ms;
    for (int k = 0; k < mpcqp::kNumPhases; ++k) phase_ms[k] += round.phase_ms[k];
  }
  for (int k = 0; k < mpcqp::kNumPhases; ++k) {
    phase_ms[k] += stats.outside_phase_ms[k];
  }
  auto phase = [&](Phase p) { return phase_ms[static_cast<int>(p)]; };
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "\"rounds\":%d,\"round_ms\":%.6f,\"route_ms\":%.6f,\"count_ms\":%.6f,"
      "\"copy_ms\":%.6f,\"transpose_ms\":%.6f,\"local_ms\":%.6f,"
      "\"columnar_scan_ms\":%.6f,\"wall_ms\":%.6f,\"planning_ms\":%.6f,"
      "\"comm_tuples\":%" PRId64 ",\"bytes\":%" PRId64
      ",\"max_load_tuples\":%" PRId64 ",\"peak_fragment_rows\":%" PRId64
      ",\"cow_detaches\":%" PRId64,
      stats.num_rounds, round_ms, phase(Phase::kRoute), phase(Phase::kCount),
      phase(Phase::kCopy), phase(Phase::kTranspose),
      phase(Phase::kLocalCompute), phase(Phase::kColumnarScan),
      stats.total_wall_ms, stats.planning_ms, stats.total_comm_tuples,
      stats.total_bytes, stats.max_load_tuples, stats.peak_fragment_rows,
      stats.cow_detaches);
  return buffer;
}

// Times `kStatsProbes` direct GatherPlannerStats calls on `inputs`, with
// the heavy threshold PlanQuery uses (IN / p). Outside every request span.
void ProbePlannerStats(const ConjunctiveQuery& q,
                       const std::vector<Relation>& inputs,
                       SpanRecorder& recorder) {
  std::vector<DistRelation> dist;
  int64_t total_in = 0;
  for (const Relation& r : inputs) {
    dist.push_back(DistRelation::Scatter(r, kServers));
    total_in += r.size();
  }
  const int64_t threshold = std::max<int64_t>(1, total_in / kServers);
  for (int i = 0; i < kStatsProbes; ++i) {
    Span span(recorder, "planner.stats", -1);
    const mpcqp::PlannerStats stats =
        mpcqp::GatherPlannerStats(q, dist, threshold);
    MPCQP_CHECK_EQ(stats.total_in, total_in);
  }
}

// A "Vm...:" field of /proc/self/status, in MiB.
double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB.
    }
  }
  MPCQP_CHECK(false) << "no " << field << " in /proc/self/status";
  return 0;
}

// Starts a fresh VmHWM from the current resident size.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  MPCQP_CHECK(clear_refs.good()) << "cannot reset VmHWM via clear_refs";
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from the seed, registers them, and warms up.
  virtual void Setup() = 0;
  // A closed-loop timed phase of at least `seconds`.
  virtual PhaseResult RunPhase(double seconds, SpanRecorder& recorder) = 0;
  // Traced run only: the direct GatherPlannerStats probe, outside every
  // request span.
  virtual void Probe(SpanRecorder& recorder) = 0;
  // The process's resident high-water mark (MiB) at the memory mark of the
  // timed phase (kMemoryQueries, kMemoryTicket), or at its end in a run
  // too short to reach the mark.
  double PeakRssMb() {
    const double at_mark = memory_mark_mb_.load();
    return at_mark > 0 ? at_mark : ProcStatusMb("VmHWM");
  }
  // The answer of `query` on data version `version` by serial evaluation.
  virtual Digest Reference(int query, int64_t version) = 0;
  // Workload-specific fields appended to the result JSON (may be empty),
  // computed from the verified answers.
  virtual std::string ExtraFields(const std::vector<Answer>& /*answers*/) {
    return "";
  }

  // Reference(), computed once per (query, version); thread-safe.
  Digest CachedReference(int query, int64_t version) {
    {
      std::lock_guard<std::mutex> lock(reference_mutex_);
      auto it = references_.find({query, version});
      if (it != references_.end()) return it->second;
    }
    const Digest digest = Reference(query, version);
    std::lock_guard<std::mutex> lock(reference_mutex_);
    references_[{query, version}] = digest;
    return digest;
  }

  Yardstick yardstick;

 protected:
  void MarkMemory() { memory_mark_mb_ = ProcStatusMb("VmHWM"); }

 private:
  std::atomic<double> memory_mark_mb_{0};
  std::mutex reference_mutex_;  // Guards references_.
  std::map<std::pair<int, int64_t>, Digest> references_;
};

// ---------------------------------------------------------------------
// cyclic_cold and skew_agg_warm: one client calling the layers directly.

struct DirectSpec {
  std::string query_text;
  bool aggregate = false;    // COUNT(*) GROUP BY the second variable.
  bool warm_plan_cache = false;  // Otherwise a fresh PlanCache per query.
};

class DirectWorkload : public Workload {
 public:
  DirectWorkload(const Options& options, DirectSpec spec)
      : options_(options),
        spec_(std::move(spec)),
        query_(MustParse(spec_.query_text)),
        pool_(mpcqp::ExecutorRegistry::Shared(kThreads)) {}

  void Setup() override {
    instances_.clear();
    lower_bounds_.clear();
    for (int k = 0; k < kInstances; ++k) {
      Rng rng(InstanceSeed(k));
      instances_.push_back(Generate(rng));
      lower_bounds_.push_back(LowerBound(query_, instances_.back()));
    }
    plan_cache_ = std::make_unique<PlanCache>();
    // Warm-up: pool, allocator, and (when warm) the plan cache. Every
    // instance has the same relation sizes, so one plan serves them all.
    SpanRecorder off(false);
    RunQuery(off, -1, 0);
  }

  PhaseResult RunPhase(double seconds, SpanRecorder& recorder) override {
    PhaseResult result;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      const int64_t request = next_request_++;
      const int instance = static_cast<int>(request % kInstances);
      Outcome outcome = RunQuery(recorder, request, instance);
      ++result.attempted;
      result.samples.push_back({MsSince(start) / 1e3, outcome.latency_ms});
      if (result.attempted == kMemoryQueries) MarkMemory();
      if (options_.corrupt && !corrupted_) {
        outcome.answer = Corrupted(outcome.answer);
        corrupted_ = true;
      }
      result.answers.push_back({instance, 0, 0, DigestOf(outcome.answer)});
    }
    result.wall_s = MsSince(start) / 1e3;
    return result;
  }

  void Probe(SpanRecorder& recorder) override {
    ProbePlannerStats(query_, instances_[0], recorder);
  }

  // `query` is the data instance; the data never changes version.
  Digest Reference(int query, int64_t /*version*/) override {
    const Relation joined = mpcqp::EvalJoinLocal(query_, instances_[query]);
    if (!spec_.aggregate) return DigestOf(joined);
    auto grouped =
        mpcqp::GroupByAggregate(joined, {1}, -1, AggregateOp::kCount);
    MPCQP_CHECK(grouped.ok()) << grouped.status().ToString();
    return DigestOf(*grouped);
  }

 protected:
  // One data instance; `rng` is seeded from --seed and the instance.
  virtual std::vector<Relation> Generate(Rng& rng) const = 0;
  const Options& options_;

 private:
  struct Outcome {
    Relation answer;
    double latency_ms = 0;
  };

  uint64_t InstanceSeed(int instance) const {
    return options_.seed * kInstances + static_cast<uint64_t>(instance);
  }

  // One query, timed from parse to collected answer. With tracing on,
  // every layer call gets a span and the StatsReport digest is attached
  // to the request after the timer stops.
  Outcome RunQuery(SpanRecorder& recorder, int64_t request, int instance) {
    const std::vector<Relation>& inputs = instances_[instance];
    Outcome outcome;
    std::optional<StatsReport> exec_stats;
    PlannedQuery planned;
    int64_t groups = -1;
    const int64_t start = NowNs();
    std::optional<Span> root;
    root.emplace(recorder, "request", request);
    ClusterOptions cluster_options;
    cluster_options.shared_pool = pool_;
    // seed + 1 for the cluster and seed + 2 for the algorithm, as
    // mpcqp_run and QueryServer derive them from their seed.
    Cluster cluster(kServers, InstanceSeed(instance) + 1, cluster_options);
    Cluster::ScopedExecution scope(cluster);
    {
      std::optional<ConjunctiveQuery> q;
      {
        Span span(recorder, "query.parse", request);
        q.emplace(MustParse(spec_.query_text));
      }
      std::vector<DistRelation> dist;
      for (const Relation& input : inputs) {
        Span span(recorder, "mpc.scatter", request);
        dist.push_back(DistRelation::Scatter(input, kServers, &cluster.pool()));
      }
      PlanCache fresh_cache;
      {
        Span span(recorder, "planner.plan", request);
        planned = mpcqp::PlanQuery(
            *q, dist, kServers, {},
            spec_.warm_plan_cache ? plan_cache_.get() : &fresh_cache);
      }
      Rng algorithm_rng(InstanceSeed(instance) + 2);
      DistRelation output(q->num_vars(), kServers);
      {
        Span span(recorder, "exec", request);
        output = mpcqp::ExecutePlannedQuery(cluster, *q, dist, planned,
                                            algorithm_rng);
      }
      if (recorder.enabled()) exec_stats = mpcqp::BuildStatsReport(cluster);
      if (spec_.aggregate) {
        Span span(recorder, "agg", request);
        auto grouped = mpcqp::DistributedGroupByAggregate(
            cluster, output, {1}, -1, AggregateOp::kCount);
        MPCQP_CHECK(grouped.ok()) << grouped.status().ToString();
        output = std::move(grouped).value();
      }
      {
        Span span(recorder, "mpc.collect", request);
        outcome.answer = output.Collect(&cluster.pool());
      }
    }
    root.reset();
    outcome.latency_ms = MsSince(start);
    if (spec_.aggregate) groups = outcome.answer.size();
    const StatsReport stats = mpcqp::BuildStatsReport(cluster);
    if (request >= 0) yardstick.Add(stats, lower_bounds_[instance]);
    if (recorder.enabled()) {
      char plan_fields[160];
      std::snprintf(plan_fields, sizeof(plan_fields),
                    ",\"kind\":\"query\",\"exec_wall_ms\":%.6f,"
                    "\"dp_states\":%" PRId64
                    ",\"plan_cache_hit\":%d,\"agg_groups\":%" PRId64,
                    exec_stats->total_wall_ms, planned.dp_states,
                    planned.cache_hit ? 1 : 0, groups);
      recorder.Stat(request, StatsFields(stats) + plan_fields);
    }
    return outcome;
  }

  DirectSpec spec_;
  ConjunctiveQuery query_;
  std::shared_ptr<mpcqp::ThreadPool> pool_;
  std::vector<std::vector<Relation>> instances_;
  std::vector<double> lower_bounds_;
  std::unique_ptr<PlanCache> plan_cache_;
  int64_t next_request_ = 0;
  bool corrupted_ = false;
};

// Triangle on three uniform random graphs, planned cold on every query
// (a fresh PlanCache, as every CLI invocation pays).
class CyclicCold : public DirectWorkload {
 public:
  explicit CyclicCold(const Options& options)
      : DirectWorkload(options, {"Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                                 /*aggregate=*/false,
                                 /*warm_plan_cache=*/false}) {}

 protected:
  std::vector<Relation> Generate(Rng& rng) const override {
    const uint64_t nodes = options_.toy ? 800 : 5000;
    const int64_t edges = options_.toy ? 3000 : 20000;
    std::vector<Relation> graphs;
    for (int i = 0; i < 3; ++i) {
      graphs.push_back(mpcqp::GenerateRandomGraph(rng, nodes, edges));
    }
    return graphs;
  }
};

// Chain R(x,y), S(y,z), T(z,w) with S Zipf-skewed on y, then COUNT(*)
// GROUP BY y; the plan cache is warmed in setup, so planning is a hit.
class SkewAggWarm : public DirectWorkload {
 public:
  explicit SkewAggWarm(const Options& options)
      : DirectWorkload(options, {"Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w)",
                                 /*aggregate=*/true,
                                 /*warm_plan_cache=*/true}) {}

 protected:
  std::vector<Relation> Generate(Rng& rng) const override {
    const int64_t rows = options_.toy ? 4000 : 60000;
    const uint64_t domain = options_.toy ? 2000 : 30000;
    // |R| < |S| < |T| makes joining R to S on the skewed key first the
    // clear plan; with |R| = |T| the planner tied and the seed picked the
    // join order.
    std::vector<Relation> chain;
    chain.push_back(mpcqp::GenerateUniform(rng, rows * 2 / 3, 2, domain));
    chain.push_back(mpcqp::GenerateZipf(rng, rows, 2, domain,
                                        /*zipf_col=*/0, /*skew=*/1.1));
    chain.push_back(mpcqp::GenerateUniform(rng, rows * 3 / 2, 2, domain));
    return chain;
  }
};

// ---------------------------------------------------------------------
// serve_mixed: closed-loop clients against QueryServer, with writes.

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(const Options& options) : options_(options) {
    // Triangle, the same triangle respelled (isomorphic: plan-cache hit,
    // result-cache miss), and a two-hop path. All read T, the relation
    // the writer replaces.
    texts_ = {"Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
              "Q(a,b,c) :- T(c,a), R(a,b), S(b,c)",
              "Q(y,z,w) :- S(y,z), T(z,w)"};
    for (const std::string& text : texts_) queries_.push_back(MustParse(text));
  }

  void Setup() override {
    Rng rng(options_.seed);
    r_ = BaseGraph(rng);
    s_ = BaseGraph(rng);
    catalog_ = std::make_unique<Catalog>();
    catalog_->Register("R", r_);
    catalog_->Register("S", s_);
    MPCQP_CHECK_EQ(catalog_->Register("T", TContent(1)), 1);
    ServeOptions serve;
    serve.num_servers = kServers;
    serve.num_threads = kThreads;
    serve.seed = options_.seed;
    serve.max_inflight = kServeClients;
    server_ = std::make_unique<QueryServer>(catalog_.get(), serve);
    lower_bounds_.clear();
    for (const ConjunctiveQuery& q : queries_) {
      lower_bounds_.push_back(LowerBound(q, Inputs(q, 1)));
    }
    // Warm-up: each query once against version 1 (cached from here on).
    for (const std::string& text : texts_) {
      MPCQP_CHECK(server_->Execute(text).ok());
    }
    executed_before_timing_ = server_->counters().executed;
  }

  PhaseResult RunPhase(double seconds, SpanRecorder& recorder) override {
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<PhaseResult> per_client(kServeClients);
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kServeClients; ++c) {
        clients.emplace_back([this, &recorder, &per_client, c, start,
                              deadline] {
          Client(recorder, start, deadline, per_client[c]);
        });
      }
    }  // jthread joins here.
    PhaseResult result;
    for (PhaseResult& client : per_client) Merge(result, std::move(client));
    result.wall_s = MsSince(start) / 1e3;
    return result;
  }

  void Probe(SpanRecorder& recorder) override {
    ProbePlannerStats(queries_[0], Inputs(queries_[0], CurrentVersion()),
                      recorder);
  }


  Digest Reference(int query, int64_t version) override {
    return DigestOf(
        mpcqp::EvalJoinLocal(queries_[query], Inputs(queries_[query], version)));
  }

  std::string ExtraFields(const std::vector<Answer>& answers) override {
    // An execution is needed once per distinct (query, data version) that
    // timed reads were answered from, minus those the warm-up already
    // executed (every query on version 1). A read raced by a write is
    // attributed to the lowest version in its window whose reference
    // matches its answer.
    std::set<std::pair<int, int64_t>> answered;
    for (const Answer& a : answers) {
      for (int64_t v = a.version_lo; v <= a.version_hi; ++v) {
        if (CachedReference(a.query, v) == a.digest) {
          answered.insert({a.query, v});
          break;
        }
      }
    }
    int64_t needed = 0;
    for (const auto& [query, version] : answered) {
      if (version != 1) ++needed;
    }
    const int64_t executed =
        server_->counters().executed - executed_before_timing_;
    const double useful =
        executed > 0 ? static_cast<double>(needed) / executed : 1.0;
    char buffer[200];
    std::snprintf(buffer, sizeof(buffer),
                  ",\"executions_needed\":%" PRId64
                  ",\"executions_run\":%" PRId64
                  ",\"useful_execution_ratio\":%.6f",
                  needed, executed, useful);
    return buffer;
  }

 private:
  // Sparse random graphs keep the two-hop answer (and so the result
  // cache, which holds one answer per query and version) small; the
  // cliques give the triangles their rows.
  uint64_t Nodes() const { return options_.toy ? 16000 : 160000; }
  int64_t Edges() const { return options_.toy ? 2000 : 20000; }
  static constexpr uint64_t kBaseClique = 16;
  static constexpr uint64_t kWriteClique = 8;

  // A random graph plus a clique on nodes [0, kBaseClique): R and S share
  // it, so every version of T closes a rich set of triangles.
  Relation BaseGraph(Rng& rng) const {
    return mpcqp::AddClique(mpcqp::GenerateRandomGraph(rng, Nodes(), Edges()),
                            0, kBaseClique);
  }

  // T's content at catalog version `version`: a fresh random graph plus a
  // kWriteClique-node clique at a version-dependent offset inside the base
  // clique, so the answers differ from version to version. Regenerable
  // from the seed, which is how the checker rebuilds any version.
  Relation TContent(int64_t version) const {
    Rng rng(mpcqp::SplitMix64(options_.seed * 0x100000001b3ULL +
                              static_cast<uint64_t>(version)));
    const uint64_t offset = rng.Uniform(kBaseClique - kWriteClique + 1);
    return mpcqp::AddClique(mpcqp::GenerateRandomGraph(rng, Nodes(), Edges()),
                            offset, kWriteClique);
  }

  std::vector<Relation> Inputs(const ConjunctiveQuery& q,
                               int64_t version) const {
    std::vector<Relation> inputs;
    for (const mpcqp::Atom& atom : q.atoms()) {
      if (atom.name == "R") inputs.push_back(r_);
      if (atom.name == "S") inputs.push_back(s_);
      if (atom.name == "T") inputs.push_back(TContent(version));
    }
    return inputs;
  }

  int64_t CurrentVersion() const {
    Catalog::Entry entry;
    MPCQP_CHECK(catalog_->Find("T", &entry));
    return entry.version;
  }

  void Write(SpanRecorder& recorder, int64_t ticket) {
    // Writers are serialized so version v always carries TContent(v).
    std::lock_guard<std::mutex> lock(write_mutex_);
    const int64_t version = CurrentVersion() + 1;
    Relation content = TContent(version);
    const int64_t start = NowNs();
    int64_t registered = 0;
    {
      Span span(recorder, "serve.catalog_register", ticket);
      registered = catalog_->Register("T", std::move(content));
    }
    MPCQP_CHECK_EQ(registered, version);
    if (recorder.enabled()) {
      char fields[96];
      std::snprintf(fields, sizeof(fields),
                    "\"kind\":\"write\",\"register_ms\":%.6f", MsSince(start));
      recorder.Stat(ticket, fields);
    }
  }

  void Client(SpanRecorder& recorder, int64_t phase_start, int64_t deadline,
              PhaseResult& out) {
    // Per-query memo of the last answer's digest: a result-cache hit
    // hands back the cached payload, so an answer sharing its payload
    // with the memoized one has the same digest.
    std::vector<std::optional<std::pair<Relation, Digest>>> memo(
        texts_.size());
    while (NowNs() < deadline) {
      const int64_t ticket = next_ticket_.fetch_add(1);
      if (ticket == kMemoryTicket) MarkMemory();
      if (ticket % kWriteEvery == kWriteEvery - 1) {
        Write(recorder, ticket);
        ++out.writes;
        continue;
      }
      const int query =
          static_cast<int>((ticket - ticket / kWriteEvery) % texts_.size());
      const int64_t version_lo = CurrentVersion();
      const int64_t start = NowNs();
      std::optional<mpcqp::StatusOr<QueryResult>> result;
      {
        Span span(recorder, "serve.execute", ticket);
        result.emplace(server_->Execute(texts_[query]));
      }
      const double latency_ms = MsSince(start);
      const int64_t version_hi = CurrentVersion();
      ++out.attempted;
      if (!result->ok()) {
        ++out.errors;
        if (recorder.enabled()) {
          recorder.Stat(ticket, "\"kind\":\"rejected\"");
        }
        continue;
      }
      out.samples.push_back({MsSince(phase_start) / 1e3, latency_ms});
      const QueryResult& r = **result;
      const bool executed = !r.result_cache_hit && !r.coalesced;
      if (executed) {
        yardstick.Add(r.stats, lower_bounds_[query]);
      }
      Relation answer = r.output;
      if (options_.corrupt && !corrupted_.exchange(true)) {
        answer = Corrupted(answer);
      }
      auto& last = memo[query];
      if (!last || !answer.SharesPayloadWith(last->first) ||
          answer.size() != last->first.size()) {
        last.emplace(answer, DigestOf(answer));
      }
      out.answers.push_back({query, version_lo, version_hi, last->second});
      if (recorder.enabled()) {
        const char* kind = r.result_cache_hit ? "hit"
                           : r.coalesced      ? "coalesced"
                                              : "miss";
        std::string fields = std::string("\"kind\":\"") + kind + "\"";
        if (executed) {
          fields += "," + StatsFields(r.stats) +
                    ",\"plan_cache_hit\":" + (r.plan_cache_hit ? "1" : "0");
        }
        recorder.Stat(ticket, fields);
      }
    }
  }

  const Options& options_;
  std::vector<std::string> texts_;
  std::vector<ConjunctiveQuery> queries_;
  std::vector<double> lower_bounds_;
  Relation r_;
  Relation s_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<QueryServer> server_;
  int64_t executed_before_timing_ = 0;
  std::atomic<int64_t> next_ticket_{0};
  std::atomic<bool> corrupted_{false};
  std::mutex write_mutex_;
};

// ---------------------------------------------------------------------

// Checks every answer against the serial reference of each (query,
// version) its window admits; returns the number of wrong answers. The
// distinct references are computed once each, on kThreads threads.
int64_t CountWrongAnswers(Workload& workload,
                          const std::vector<Answer>& answers) {
  std::set<std::pair<int, int64_t>> needed;
  for (const Answer& a : answers) {
    for (int64_t v = a.version_lo; v <= a.version_hi; ++v) {
      needed.insert({a.query, v});
    }
  }
  const std::vector<std::pair<int, int64_t>> work(needed.begin(),
                                                  needed.end());
  std::atomic<size_t> next{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < work.size();
             i = next.fetch_add(1)) {
          workload.CachedReference(work[i].first, work[i].second);
        }
      });
    }
  }
  int64_t wrong = 0;
  for (const Answer& a : answers) {
    bool ok = false;
    for (int64_t v = a.version_lo; v <= a.version_hi && !ok; ++v) {
      ok = workload.CachedReference(a.query, v) == a.digest;
    }
    if (!ok) ++wrong;
  }
  return wrong;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string text;
    if (flag == "--workload") {
      if (!value(&options->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&text)) return false;
      const auto seed = mpcqp::ParseUint64(text);
      if (!seed.ok()) return false;
      options->seed = *seed;
    } else if (flag == "--seconds") {
      if (!value(&text)) return false;
      const auto seconds = mpcqp::ParseDouble(text);
      if (!seconds.ok() || *seconds <= 0) return false;
      options->seconds = *seconds;
    } else if (flag == "--spans") {
      if (!value(&options->spans_path)) return false;
    } else if (flag == "--trace") {
      options->trace = true;
    } else if (flag == "--toy") {
      options->toy = true;
    } else if (flag == "--corrupt") {
      options->corrupt = true;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "cyclic_cold") {
    return std::make_unique<CyclicCold>(options);
  }
  if (options.workload == "skew_agg_warm") {
    return std::make_unique<SkewAggWarm>(options);
  }
  if (options.workload == "serve_mixed") {
    return std::make_unique<ServeMixed>(options);
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cyclic_cold|skew_agg_warm|"
                 "serve_mixed --seed N --seconds S [--trace] [--spans FILE] "
                 "[--toy] [--corrupt]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    workload->Setup();
    setup_s.push_back(MsSince(start) / 1e3);
  }
  // peak_rss_mb is what the timed queries add to the resident set: the
  // high-water mark of the timed phase above the post-setup resident size,
  // taken once the allocator has handed its free pages back, so the inputs
  // held for the whole run do not dilute it.
  malloc_trim(0);
  const double baseline_rss_mb = ProcStatusMb("VmRSS");
  ResetPeakRss();

  // End-to-end timings come from an untraced phase. A traced run gives
  // half its time to that phase (the overhead baseline) and half to the
  // traced phase the per-layer numbers come from.
  SpanRecorder untraced(false);
  SpanRecorder traced(true);
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  PhaseResult timed = workload->RunPhase(untraced_seconds, untraced);
  const double peak_rss_mb = workload->PeakRssMb() - baseline_rss_mb;
  const Timing timing =
      SteadyTiming(timed.samples, untraced_seconds, timed.wall_s);
  std::vector<double> all_latencies_ms;
  for (const Sample& sample : timed.samples) {
    all_latencies_ms.push_back(sample.latency_ms);
  }
  std::vector<Answer> answers = timed.answers;
  PhaseResult traced_phase;
  if (options.trace) {
    traced_phase = workload->RunPhase(options.seconds / 2, traced);
    answers.insert(answers.end(), traced_phase.answers.begin(),
                   traced_phase.answers.end());
  }
  if (options.trace) workload->Probe(traced);

  const int64_t verify_start = NowNs();
  const int64_t wrong = CountWrongAnswers(*workload, answers);
  std::fprintf(stderr, "perfbench: verified %zu answers in %.2f s\n",
               answers.size(), MsSince(verify_start) / 1e3);
  const int64_t attempted = timed.attempted + traced_phase.attempted;
  const int64_t failed = timed.errors + traced_phase.errors + wrong;
  const bool correct = wrong == 0;
  if (options.trace && !traced.WriteJsonl(options.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.spans_path.c_str());
    return 1;
  }

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"simd_isa\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\","
      "\"servers\":%d,\"threads\":%d,\"toy\":%s,"
      "\"setup_s\":%.6f,\"setup_runs\":%d,\"samples\":%zu,"
      "\"latency_p50_ms\":%.6f,\"latency_p90_ms\":%.6f,"
      "\"throughput_qps\":%.6f,\"writes\":%" PRId64
      ",\"attempted\":%" PRId64 ",\"failed\":%" PRId64
      ",\"wrong\":%" PRId64 ",\"errors\":%" PRId64
      ",\"error_rate\":%.6f,\"load_ratio\":%.6f,\"rounds\":%d,"
      "\"peak_rss_mb\":%.3f,\"correct\":%s,\"traced\":%s,"
      "\"all_samples\":%zu",
      options.workload.c_str(), options.seed,
      mpcqp::simd::IsaLevelName(mpcqp::simd::DispatchedIsa()),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, kServers,
      kThreads, options.toy ? "true" : "false", Percentile(setup_s, 0.5),
      kSetupRepeats, timing.samples, timing.p50_ms, timing.p90_ms, timing.qps,
      timed.writes, attempted, failed, wrong, timed.errors + traced_phase.errors,
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
      Mean(workload->yardstick.load_ratios),
      workload->yardstick.worst_rounds,
      peak_rss_mb, correct ? "true" : "false",
      options.trace ? "true" : "false", all_latencies_ms.size());
  if (options.trace) {
    std::printf(",\"untraced_p50_ms\":%.6f,\"spans\":\"%s\"",
                Percentile(all_latencies_ms, 0.5),
                options.spans_path.c_str());
  }
  std::printf("%s}\n", workload->ExtraFields(answers).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
