// Columnar vs row-major hot-kernel study (EXPERIMENTS.md E22): the two
// kernels the --layout flag routes — single-column selection scans and
// group-by scans — timed through both physical layouts on the same data,
// plus the exchange route pass of a single-key HashPartition against the
// per-row HashSpan route it replaced, and the arity/selectivity crossover
// sweep the kAuto heuristics are derived from.
//
// Emits BENCH_columnar.json. CI runs this binary as a Release gate and
// fails (exit 1) if
//  - any kernel's output differs between layouts (or, for the route,
//    from the per-row baseline), across {1, 8} threads and morsel sizes
//    {1024, 65536} (the layout determinism contract), or
//  - columnar loses to row-major (beyond a 5% noise band) at t=8 on any
//    gated scan shape, or
//  - the single-key route loses to the per-row baseline (same band) at
//    t=1 or t=8, or
//  - the wide-arity filter shape shows less than 1.5x columnar speedup.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agg/groupby_engine.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/columnar.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::BenchJson;
using bench::Fmt;
using bench::Table;
using bench::WallTimer;

constexpr int kReps = 3;       // Best-of-N wall times.
constexpr int kRouteReps = 7;  // Best-of-N for the interleaved route pair.
constexpr int kServers = 8;
constexpr uint64_t kSeed = 42;
// Columnar must not lose at t=8 (nor the fused route at t=1 or t=8); a
// small band absorbs scheduler noise.
constexpr double kNoiseBand = 1.05;
// Headline gate on the wide-arity filter shape.
constexpr double kHeadlineSpeedup = 1.5;
const int64_t kMorselSweep[] = {1024, 65536};

double BestOf(const std::function<void()>& body) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    body();
    const double ms = timer.ElapsedMs();
    if (ms < best) best = ms;
  }
  return best;
}

bool g_ok = true;

void Gate(bool pass, const std::string& what) {
  if (!pass) {
    std::printf("FAIL: %s\n", what.c_str());
    g_ok = false;
  }
}

// ---- Shape 1: wide-arity filter (the headline scan shape) ----
// A 16-wide fact relation filtered on one column at ~50% selectivity: the
// row path strides 128 bytes per predicate, the columnar path streams one
// contiguous column. Scans repeat against a transposed snapshot, so the
// transpose is amortized and reported separately.
void RunWideFilter(Table* table, BenchJson* json) {
  Rng rng(31);
  const int64_t rows = 600000;
  const Relation rel = GenerateUniform(rng, rows, 16, 1000);
  const Value lo = 250, hi = 749;
  ThreadPool pool1(1);
  ThreadPool pool8(8);

  const std::vector<int64_t> reference =
      SelectRange(rel, 0, lo, hi, nullptr, 0, LayoutMode::kRow);

  WallTimer transpose_timer;
  const ColumnarRelation col =
      ColumnarRelation::FromRowMajor(rel, &pool8, 65536);
  const double transpose_ms = transpose_timer.ElapsedMs();

  const double row_t8 = BestOf([&] {
    SelectRange(rel, 0, lo, hi, &pool8, 65536, LayoutMode::kRow);
  });
  const double col_t8 =
      BestOf([&] { SelectRange(col, 0, lo, hi, &pool8, 65536); });
  const double row_t1 = BestOf([&] {
    SelectRange(rel, 0, lo, hi, &pool1, 65536, LayoutMode::kRow);
  });
  const double col_t1 =
      BestOf([&] { SelectRange(col, 0, lo, hi, &pool1, 65536); });

  // Bit-identity: layouts x threads x morsel sizes all match the serial
  // row-path reference (ascending match indices).
  for (ThreadPool* pool : {&pool1, &pool8}) {
    for (const int64_t morsel : kMorselSweep) {
      for (const LayoutMode layout :
           {LayoutMode::kRow, LayoutMode::kColumnar, LayoutMode::kAuto}) {
        Gate(SelectRange(rel, 0, lo, hi, pool, morsel, layout) == reference,
             "wide_filter row-view output mismatch");
      }
      Gate(SelectRange(col, 0, lo, hi, pool, morsel) == reference,
           "wide_filter columnar output mismatch");
    }
  }

  Gate(col_t8 <= row_t8 * kNoiseBand, "wide_filter: columnar loses at t=8");
  Gate(row_t8 / col_t8 >= kHeadlineSpeedup,
       "wide_filter: columnar speedup below " + Fmt(kHeadlineSpeedup, 1) +
           "x at t=8 (" + Fmt(row_t8 / col_t8, 2) + "x)");

  table->AddRow({"wide_filter(a=16)", bench::FmtInt(rows), Fmt(row_t1, 2),
                 Fmt(col_t1, 2), Fmt(row_t8, 2), Fmt(col_t8, 2),
                 Fmt(row_t8 / col_t8, 2)});
  json->Set("wide_filter_rows", rows);
  json->Set("wide_filter_transpose_ms", transpose_ms);
  json->Set("wide_filter_row_t1_ms", row_t1);
  json->Set("wide_filter_columnar_t1_ms", col_t1);
  json->Set("wide_filter_row_t8_ms", row_t8);
  json->Set("wide_filter_columnar_t8_ms", col_t8);
  json->Set("wide_filter_speedup_t8", row_t8 / col_t8);
}

// ---- Shape 2: wide-arity exchange route ----
// HashPartition of a 12-wide relation on one key column. The library
// gathers the key column per morsel and buckets it with one batched
// BucketMany under every layout; the baseline is the per-row HashSpan
// route it replaced (arity-strided loads, one out-of-line HashSpan per
// row), kept below verbatim with the single-destination morsel router it
// ran on so the comparison isolates the route plan.

struct Morsel {
  int32_t src;
  int64_t begin;
  int64_t end;
};

std::vector<Morsel> TileSources(const DistRelation& rel, int64_t morsel_rows) {
  std::vector<Morsel> morsels;
  for (int src = 0; src < rel.num_servers(); ++src) {
    const int64_t n = rel.fragment(src).size();
    for (int64_t begin = 0; begin < n; begin += morsel_rows) {
      morsels.push_back(
          {src, begin, std::min<int64_t>(n, begin + morsel_rows)});
    }
  }
  return morsels;
}

constexpr int kWriteCombineMinDests = 256;
constexpr int64_t kWriteCombineBlockBytes = 1024;

struct WriteCombineScratch {
  std::vector<Value> rows;    // p blocks of block_rows rows each.
  std::vector<int32_t> fill;  // Rows currently staged per destination.
};
WriteCombineScratch& LocalWriteCombineScratch() {
  thread_local WriteCombineScratch scratch;
  return scratch;
}

void CopyMorselDirect(const Value* in, const int32_t* dests, int64_t rows,
                      int arity, Value* const* base, int64_t* cursor) {
  for (int64_t i = 0; i < rows; ++i, in += arity) {
    const int dst = dests[i];
    std::memcpy(base[dst] + cursor[dst] * arity, in,
                static_cast<size_t>(arity) * sizeof(Value));
    ++cursor[dst];
  }
}

void CopyMorselWriteCombining(const Value* in, const int32_t* dests,
                              int64_t rows, int arity, int p,
                              Value* const* base, int64_t* cursor) {
  const int64_t block_rows =
      std::max<int64_t>(4, kWriteCombineBlockBytes /
                               (static_cast<int64_t>(arity) * sizeof(Value)));
  WriteCombineScratch& wc = LocalWriteCombineScratch();
  wc.rows.resize(static_cast<size_t>(p) * block_rows * arity);
  wc.fill.assign(p, 0);
  Value* const stage = wc.rows.data();
  int32_t* const fill = wc.fill.data();
  const auto flush = [&](int dst) {
    const int64_t staged = fill[dst];
    std::memcpy(base[dst] + cursor[dst] * arity,
                stage + dst * block_rows * arity,
                static_cast<size_t>(staged) * arity * sizeof(Value));
    cursor[dst] += staged;
    fill[dst] = 0;
  };
  for (int64_t i = 0; i < rows; ++i, in += arity) {
    const int dst = dests[i];
    std::memcpy(stage + (dst * block_rows + fill[dst]) * arity, in,
                static_cast<size_t>(arity) * sizeof(Value));
    if (++fill[dst] == block_rows) flush(dst);
  }
  for (int dst = 0; dst < p; ++dst) {
    if (fill[dst] > 0) flush(dst);
  }
}

template <typename BatchTargetFn>
DistRelation RouteSingle(Cluster& cluster, const DistRelation& rel,
                         const BatchTargetFn& target,
                         const std::string& label) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);
  MPCQP_CHECK_GT(rel.arity(), 0) << "cannot route nullary relations";
  RoundScope scope(cluster, label);

  const int arity = rel.arity();
  DistRelation out(arity, p);
  ThreadPool& pool = cluster.pool();
  const std::vector<Morsel> morsels =
      TileSources(rel, cluster.morsel_rows());
  const int64_t num_morsels = static_cast<int64_t>(morsels.size());

  // Row offset of each fragment in the flat destination array.
  std::vector<int64_t> row_base(static_cast<size_t>(p) + 1, 0);
  for (int src = 0; src < p; ++src) {
    row_base[src + 1] = row_base[src] + rel.fragment(src).size();
  }
  const int64_t total_rows = row_base[p];
  auto dests = std::make_unique_for_overwrite<int32_t[]>(
      static_cast<size_t>(std::max<int64_t>(total_rows, 1)));

  // Phase 1: destinations + per-(morsel, dst) counts, one work-stealing
  // task per morsel.
  std::vector<int64_t> counts(static_cast<size_t>(num_morsels) * p, 0);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kRoute);
    pool.ParallelForGrained(num_morsels, 1, [&](int64_t mb, int64_t me) {
      for (int64_t m = mb; m < me; ++m) {
        const Morsel& mo = morsels[m];
        MPCQP_TRACE_SCOPE_ARG("route morsel", "exchange", m);
        const Relation& frag = rel.fragment(mo.src);
        int32_t* const d = dests.get() + row_base[mo.src] + mo.begin;
        const int64_t rows = mo.end - mo.begin;
        target(mo.src, frag, mo.begin, mo.end, d);
        int64_t* const cnt = counts.data() + m * p;
        for (int64_t i = 0; i < rows; ++i) {
          const int32_t dst = d[i];
          MPCQP_CHECK_GE(dst, 0);
          MPCQP_CHECK_LT(dst, p);
          ++cnt[dst];
        }
      }
    });
  }

  // Offsets + presize, parallel over destinations.
  std::vector<int64_t> offsets(static_cast<size_t>(num_morsels) * p);
  std::vector<Value*> base(p);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCount);
    MPCQP_TRACE_SCOPE("presize", "exchange");
    pool.ParallelFor(p, [&](int64_t task) {
      const int dst = static_cast<int>(task);
      int64_t total = 0;
      int64_t src_total = 0;
      for (int64_t m = 0; m < num_morsels; ++m) {
        offsets[m * p + dst] = total;
        total += counts[m * p + dst];
        src_total += counts[m * p + dst];
        if (m + 1 == num_morsels || morsels[m + 1].src != morsels[m].src) {
          if (src_total > 0) {
            cluster.RecordMessage(morsels[m].src, dst, src_total,
                                  src_total * arity);
          }
          src_total = 0;
        }
      }
      base[dst] = out.fragment(dst).ResizeRowsForOverwrite(total);
      cluster.metrics().RecordFragmentRows(total);
    });
  }

  // Phase 2: bulk copy into disjoint pre-sized ranges.
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCopy);
    const bool write_combine = p >= kWriteCombineMinDests;
    pool.ParallelForGrained(num_morsels, 1, [&](int64_t mb, int64_t me) {
      for (int64_t m = mb; m < me; ++m) {
        const Morsel& mo = morsels[m];
        MPCQP_TRACE_SCOPE_ARG("copy morsel", "exchange", m);
        const Relation& frag = rel.fragment(mo.src);
        const Value* in = frag.row(0) + mo.begin * arity;
        const int32_t* const d = dests.get() + row_base[mo.src] + mo.begin;
        int64_t* const cursor = offsets.data() + m * p;
        const int64_t rows = mo.end - mo.begin;
        if (write_combine) {
          CopyMorselWriteCombining(in, d, rows, arity, p, base.data(),
                                   cursor);
        } else {
          CopyMorselDirect(in, d, rows, arity, base.data(), cursor);
        }
      }
    });
  }
  return out;
}

// The per-row HashSpan route plan, as HashPartition ran it for several
// key columns and (under --layout row) for a single one.
DistRelation RowLoopHashPartition(Cluster& cluster, const DistRelation& rel,
                                  const std::vector<int>& key_cols,
                                  const HashFunction& hash,
                                  const std::string& label) {
  const int p = cluster.num_servers();
  const auto bucket = [p](uint64_t h) {
    return static_cast<int>((static_cast<unsigned __int128>(h) * p) >> 64);
  };
  return RouteSingle(
      cluster, rel,
      [&, bucket](int /*src*/, const Relation& frag, int64_t begin,
                  int64_t end, int32_t* dests) {
        thread_local std::vector<Value> key;
        key.resize(key_cols.size());
        for (int64_t i = begin; i < end; ++i) {
          const Value* row = frag.row(i);
          for (size_t k = 0; k < key_cols.size(); ++k) {
            key[k] = row[key_cols[k]];
          }
          dests[i - begin] = static_cast<int32_t>(bucket(
              hash.HashSpan(key.data(), static_cast<int>(key.size()))));
        }
      },
      label);
}

void RunRouteWide(Table* table, BenchJson* json) {
  Rng rng(32);
  const int64_t rows = 400000;
  const Relation rel = GenerateUniform(rng, rows, 12, 1 << 20);
  const DistRelation input = DistRelation::Scatter(rel, kServers);

  // One shuffle on a fresh cluster; `ms` (if set) receives the wall time
  // of the HashPartition call alone.
  const auto run = [&](bool baseline, LayoutMode layout, int threads,
                       int64_t morsel, double* ms = nullptr) {
    ClusterOptions options;
    options.num_threads = threads;
    options.morsel_rows = morsel;
    options.layout = layout;
    Cluster cluster(kServers, kSeed, options);
    const HashFunction hash = cluster.NewHashFunction();
    WallTimer timer;
    DistRelation out =
        baseline
            ? RowLoopHashPartition(cluster, input, {3}, hash, "bench: route")
            : HashPartition(cluster, input, {3}, hash, "bench: route");
    if (ms != nullptr) *ms = timer.ElapsedMs();
    return out;
  };

  const DistRelation reference = run(true, LayoutMode::kAuto, 1, 8192);
  const auto same = [&](const DistRelation& got) {
    for (int s = 0; s < kServers; ++s) {
      if (!(got.fragment(s) == reference.fragment(s))) return false;
    }
    return true;
  };
  for (const int threads : {1, 8}) {
    for (const int64_t morsel : kMorselSweep) {
      Gate(same(run(true, LayoutMode::kAuto, threads, morsel)),
           "route_wide baseline output mismatch");
      for (const LayoutMode layout :
           {LayoutMode::kRow, LayoutMode::kColumnar, LayoutMode::kAuto}) {
        Gate(same(run(false, layout, threads, morsel)),
             "route_wide shuffle output mismatch");
      }
    }
  }

  // The two plans differ only in the route phase, a minor share of the
  // shuffle, so their gap is small against scheduler noise: time them
  // interleaved (both see the same neighbours) and keep the best of
  // kRouteReps each.
  double row_t1 = 1e300, fused_t1 = 1e300, row_t8 = 1e300, fused_t8 = 1e300;
  for (int rep = 0; rep < kRouteReps; ++rep) {
    for (const int threads : {1, 8}) {
      double row_ms = 0, fused_ms = 0;
      run(true, LayoutMode::kAuto, threads, 8192, &row_ms);
      run(false, LayoutMode::kAuto, threads, 8192, &fused_ms);
      double& row_best = threads == 1 ? row_t1 : row_t8;
      double& fused_best = threads == 1 ? fused_t1 : fused_t8;
      row_best = std::min(row_best, row_ms);
      fused_best = std::min(fused_best, fused_ms);
    }
  }

  Gate(fused_t1 <= row_t1 * kNoiseBand,
       "route_wide: fused route loses to the per-row route at t=1");
  Gate(fused_t8 <= row_t8 * kNoiseBand,
       "route_wide: fused route loses to the per-row route at t=8");

  table->AddRow({"route_wide(a=12)", bench::FmtInt(rows), Fmt(row_t1, 2),
                 Fmt(fused_t1, 2), Fmt(row_t8, 2), Fmt(fused_t8, 2),
                 Fmt(row_t8 / fused_t8, 2)});
  json->Set("route_wide_rows", rows);
  json->Set("route_wide_row_loop_t1_ms", row_t1);
  json->Set("route_wide_fused_t1_ms", fused_t1);
  json->Set("route_wide_row_loop_t8_ms", row_t8);
  json->Set("route_wide_fused_t8_ms", fused_t8);
  json->Set("route_wide_speedup_t1", row_t1 / fused_t1);
  json->Set("route_wide_speedup_t8", row_t8 / fused_t8);
}

// ---- Shape 3: wide-arity group-by scan ----
// SUM over one value column grouped by one key column of an 8-wide
// relation: the columnar engine path compacts the two live columns out of
// the wide rows before hashing/accumulating.
void RunGroupByWide(Table* table, BenchJson* json) {
  Rng rng(33);
  const int64_t rows = 600000;
  const Relation rel = GenerateUniform(rng, rows, 8, 5000);
  ThreadPool pool1(1);
  ThreadPool pool8(8);

  const auto run = [&](LayoutMode layout, ThreadPool* pool,
                       int64_t morsel) {
    GroupByEngineOptions options;
    options.pool = pool;
    options.morsel_rows = morsel;
    options.layout = layout;
    StatusOr<Relation> out =
        GroupByAggregateParallel(rel, {0}, 1, AggregateOp::kSum, options);
    if (!out.ok()) {
      std::printf("FAIL: groupby_wide errored: %s\n",
                  out.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(out).value();
  };

  const Relation reference = run(LayoutMode::kRow, &pool1, 8192);
  for (ThreadPool* pool : {&pool1, &pool8}) {
    for (const int64_t morsel : kMorselSweep) {
      for (const LayoutMode layout :
           {LayoutMode::kRow, LayoutMode::kColumnar, LayoutMode::kAuto}) {
        Gate(run(layout, pool, morsel) == reference,
             "groupby_wide output mismatch");
      }
    }
  }

  const double row_t8 =
      BestOf([&] { run(LayoutMode::kRow, &pool8, 8192); });
  const double col_t8 =
      BestOf([&] { run(LayoutMode::kColumnar, &pool8, 8192); });
  const double row_t1 =
      BestOf([&] { run(LayoutMode::kRow, &pool1, 8192); });
  const double col_t1 =
      BestOf([&] { run(LayoutMode::kColumnar, &pool1, 8192); });

  Gate(col_t8 <= row_t8 * kNoiseBand, "groupby_wide: columnar loses at t=8");

  table->AddRow({"groupby_wide(a=8)", bench::FmtInt(rows), Fmt(row_t1, 2),
                 Fmt(col_t1, 2), Fmt(row_t8, 2), Fmt(col_t8, 2),
                 Fmt(row_t8 / col_t8, 2)});
  json->Set("groupby_wide_rows", rows);
  json->Set("groupby_wide_row_t1_ms", row_t1);
  json->Set("groupby_wide_columnar_t1_ms", col_t1);
  json->Set("groupby_wide_row_t8_ms", row_t8);
  json->Set("groupby_wide_columnar_t8_ms", col_t8);
  json->Set("groupby_wide_speedup_t8", row_t8 / col_t8);
}

// ---- Ungated: arity x selectivity crossover sweep (E22) ----
// Constant total values (4.8M) across arities, so row counts shrink as
// rows widen; selectivity varies the branch density of the predicate.
// This is the data behind the kAuto thresholds in relation/columnar.h.
void RunCrossoverSweep(BenchJson* json) {
  ThreadPool pool8(8);
  bench::Banner("E22 crossover: scan ms by arity x selectivity, t=8");
  Table sweep({"arity", "rows", "selectivity", "row ms", "columnar ms",
               "speedup"});
  for (const int arity : {2, 4, 8, 16}) {
    const int64_t rows = 4800000 / arity;
    Rng rng(40 + arity);
    const Relation rel = GenerateUniform(rng, rows, arity, 1000);
    const ColumnarRelation col =
        ColumnarRelation::FromRowMajor(rel, &pool8, 65536);
    for (const double selectivity : {0.01, 0.5, 0.99}) {
      const Value hi = static_cast<Value>(1000 * selectivity);
      const double row_ms = BestOf([&] {
        SelectRange(rel, 0, 0, hi, &pool8, 65536, LayoutMode::kRow);
      });
      const double col_ms =
          BestOf([&] { SelectRange(col, 0, 0, hi, &pool8, 65536); });
      sweep.AddRow({bench::FmtInt(arity), bench::FmtInt(rows),
                    Fmt(selectivity, 2), Fmt(row_ms, 2), Fmt(col_ms, 2),
                    Fmt(row_ms / col_ms, 2)});
      const std::string key = "sweep_a" + std::to_string(arity) + "_s" +
                              std::to_string(static_cast<int>(
                                  selectivity * 100));
      json->Set(key + "_row_ms", row_ms);
      json->Set(key + "_columnar_ms", col_ms);
    }
  }
  sweep.Print();
}

}  // namespace
}  // namespace mpcqp

int main() {
  using namespace mpcqp;  // NOLINT
  BenchJson json("columnar");

  bench::Banner(
      "Columnar vs row-major hot kernels — threads {1, 8}, best of " +
      std::to_string(kReps));
  Table table({"shape", "rows", "row t1", "col t1", "row t8", "col t8",
               "speedup t8"});

  RunWideFilter(&table, &json);
  RunRouteWide(&table, &json);
  RunGroupByWide(&table, &json);
  table.Print();
  std::printf(
      "route_wide: \"row\" is the per-row HashSpan route, \"col\" the fused "
      "single-key route (best of %d, interleaved)\n",
      kRouteReps);

  RunCrossoverSweep(&json);

  json.Set("gate_ok", g_ok ? "pass" : "fail");
  json.Write();
  if (!g_ok) {
    std::printf("\ncolumnar bench gate FAILED\n");
    return 1;
  }
  std::printf(
      "\ncolumnar bench gate passed: outputs bit-identical across layouts "
      "x threads x morsels, columnar >= row at t=8, fused route >= per-row "
      "route at t=1 and t=8, wide filter >= %.1fx\n",
      kHeadlineSpeedup);
  return 0;
}
