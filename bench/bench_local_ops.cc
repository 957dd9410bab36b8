// Local-compute kernel throughput: the flat arena KeyIndex, the parallel
// sort kernel and Dedup against embedded "legacy" baselines — the seed
// node-based unordered_map index, the serial std::sort row sorter, and
// the index-permutation Dedup that preceded the fixed-width row sort.
// The baselines are kept here verbatim (not in src/) so the speedup of
// the kernel overhaul stays measurable release over release, exactly like
// bench_exchange does for the data plane.
//
// Inputs are p=64-scale: the row counts a single server sees in the
// 64-server experiments after a shuffle. Emits BENCH_local_ops.json with
// <kernel>_t<T>_{new,legacy}_tps and _speedup keys; CI runs this binary
// as a Release smoke test and fails if the flat KeyIndex loses to the
// legacy index at 8 threads, or if Dedup loses to the legacy Dedup at 1 or
// 8 threads on unsorted or already-sorted input.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/parallel_sort.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "relation/key_index.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "relation/relation_view.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::BenchJson;
using bench::Fmt;
using bench::Table;
using bench::WallTimer;

// The seed index, verbatim: bucket hash -> list of per-key row-index
// groups, one heap node per bucket and per group.
class LegacyKeyIndex {
 public:
  LegacyKeyIndex(RelationView view, std::vector<int> key_cols)
      : view_(view), key_cols_(std::move(key_cols)) {
    std::vector<Value> key(key_cols_.size());
    for (int64_t r = 0; r < view_.size(); ++r) {
      const Value* row = view_.row(r);
      for (size_t i = 0; i < key_cols_.size(); ++i) key[i] = row[key_cols_[i]];
      const uint64_t h = HashKey(key.data());
      std::vector<std::vector<int64_t>>& groups = buckets_[h];
      bool placed = false;
      for (std::vector<int64_t>& group : groups) {
        const Value* rep = view_.row(group.front());
        bool same = true;
        for (int c : key_cols_) {
          if (rep[c] != row[c]) {
            same = false;
            break;
          }
        }
        if (same) {
          group.push_back(r);
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({r});
    }
  }

  const std::vector<int64_t>& Lookup(const Value* key) const {
    const auto it = buckets_.find(HashKey(key));
    if (it == buckets_.end()) return empty_;
    for (const std::vector<int64_t>& group : it->second) {
      const Value* rep = view_.row(group.front());
      bool same = true;
      for (size_t i = 0; i < key_cols_.size(); ++i) {
        if (rep[key_cols_[i]] != key[i]) {
          same = false;
          break;
        }
      }
      if (same) return group;
    }
    return empty_;
  }

  int64_t num_distinct_keys() const {
    int64_t n = 0;
    for (const auto& [h, groups] : buckets_) {
      n += static_cast<int64_t>(groups.size());
    }
    return n;
  }

 private:
  uint64_t HashKey(const Value* key) const {
    static const HashFunction kHash(0x1d8af066u);  // == KeyIndex's seed.
    return kHash.HashSpan(key, static_cast<int>(key_cols_.size()));
  }

  RelationView view_;
  std::vector<int> key_cols_;
  std::unordered_map<uint64_t, std::vector<std::vector<int64_t>>> buckets_;
  std::vector<int64_t> empty_;
};

// The seed row sorter, verbatim: serial index sort + serial gather.
void LegacySortRows(int arity, std::vector<Value>& data,
                    const std::vector<int>& key_cols) {
  const int64_t n = static_cast<int64_t>(data.size()) / arity;
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const Value* ra = data.data() + static_cast<size_t>(a) * arity;
    const Value* rb = data.data() + static_cast<size_t>(b) * arity;
    for (int c : key_cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    for (int c = 0; c < arity; ++c) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  });
  std::vector<Value> sorted;
  sorted.reserve(data.size());
  for (int64_t i : order) {
    const Value* r = data.data() + static_cast<size_t>(i) * arity;
    sorted.insert(sorted.end(), r, r + arity);
  }
  data = std::move(sorted);
}

// The index-permutation Dedup, verbatim: sort row indices through the
// view's checked row accessor, then append each first-of-a-run row.
std::vector<int64_t> LegacySortedOrder(RelationView rel,
                                       const std::vector<int>& key_cols,
                                       ThreadPool* pool = nullptr) {
  std::vector<int64_t> order(rel.size());
  std::iota(order.begin(), order.end(), 0);
  const int arity = rel.arity();
  ParallelSort(pool, order, [&](int64_t a, int64_t b) {
    const Value* ra = rel.row(a);
    const Value* rb = rel.row(b);
    for (int c : key_cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    for (int c = 0; c < arity; ++c) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  });
  return order;
}

Relation LegacyDedup(RelationView rel, ThreadPool* pool) {
  if (rel.arity() == 0) {
    Relation out(0);
    if (rel.size() > 0) out.AppendNullaryRow();
    return out;
  }
  const std::vector<int64_t> order = LegacySortedOrder(rel, {}, pool);
  Relation out(rel.arity());
  out.Reserve(rel.size());
  const Value* prev = nullptr;
  for (int64_t i : order) {
    const Value* cur = rel.row(i);
    if (prev != nullptr && std::equal(cur, cur + rel.arity(), prev)) continue;
    out.AppendRow(cur);
    prev = cur;
  }
  return out;
}

// Build + full probe pass through the flat index; returns the probe
// checksum (sum of group sizes) so the work cannot be optimized away.
int64_t RunNewKeyIndex(const Relation& build, const Relation& probe,
                       ThreadPool* pool) {
  KeyIndex index(build, {0}, pool);
  int64_t matched = 0;
  for (int64_t i = 0; i < probe.size(); ++i) {
    matched += static_cast<int64_t>(index.Lookup(probe.row(i)).size());
  }
  return matched;
}

int64_t RunLegacyKeyIndex(const Relation& build, const Relation& probe) {
  LegacyKeyIndex index(build, {0});
  int64_t matched = 0;
  for (int64_t i = 0; i < probe.size(); ++i) {
    matched += static_cast<int64_t>(index.Lookup(probe.row(i)).size());
  }
  return matched;
}

// Best-of-`reps` throughput in rows/sec.
template <typename Fn>
double MeasureTps(int64_t rows, int reps, const Fn& run) {
  double best_ms = -1;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    run();
    const double ms = timer.ElapsedMs();
    if (best_ms < 0 || ms < best_ms) best_ms = ms;
  }
  return static_cast<double>(rows) / (best_ms / 1000.0);
}

}  // namespace
}  // namespace mpcqp

int main() {
  using namespace mpcqp;
  constexpr int kReps = 3;
  constexpr int64_t kRows = 400000;  // p=64-scale local fragment work.
  const int kThreads[] = {1, 8};

  bench::Banner("Local-compute kernels (rows/sec, best of 3)");
  bench::Table table(
      {"kernel", "threads", "new tps", "legacy tps", "speedup"});
  bench::BenchJson json("local_ops");
  json.Set("reps", kReps);
  json.Set("rows", kRows);

  // Build side: ~4 rows per key; probe side: same domain, ~70% hit rate.
  Rng rng(1234);
  const Relation build = GenerateUniform(rng, kRows, 2, kRows / 4);
  const Relation probe = GenerateUniform(rng, kRows, 2, (kRows / 4) * 3 / 2);
  const Relation unsorted = GenerateUniform(rng, kRows, 2, 1u << 31);
  // Dedup inputs: arity-2 rows of which about one in six repeats an
  // earlier row, and their sorted distinct rows (the shape of a BiGJoin
  // proposer projection, which Dedup returns as a shared handle).
  const Relation with_duplicates = GenerateUniform(rng, kRows, 2, 1000);
  const Relation sorted_distinct = LegacyDedup(with_duplicates, nullptr);

  // Sanity: the flat index and the legacy index must agree on the probe
  // checksum and the distinct-key count before any timing matters.
  {
    ThreadPool pool(8);
    const int64_t got = RunNewKeyIndex(build, probe, &pool);
    const int64_t want = RunLegacyKeyIndex(build, probe);
    KeyIndex index(build, {0}, &pool);
    LegacyKeyIndex legacy(build, {0});
    if (got != want ||
        index.num_distinct_keys() != legacy.num_distinct_keys()) {
      std::fprintf(stderr,
                   "FATAL: KeyIndex new/legacy disagree "
                   "(matched %lld vs %lld, keys %lld vs %lld)\n",
                   static_cast<long long>(got), static_cast<long long>(want),
                   static_cast<long long>(index.num_distinct_keys()),
                   static_cast<long long>(legacy.num_distinct_keys()));
      return 1;
    }
  }
  {
    std::vector<Value> a = unsorted.data();
    std::vector<Value> b = unsorted.data();
    ThreadPool pool(8);
    SortRowsBuffer(&pool, 2, a, {0});
    LegacySortRows(2, b, {0});
    if (a != b) {
      std::fprintf(stderr, "FATAL: sort kernel new/legacy outputs differ\n");
      return 1;
    }
  }
  for (const Relation* input : {&with_duplicates, &sorted_distinct}) {
    ThreadPool pool(8);
    if (!(Dedup(*input, &pool) == LegacyDedup(*input, &pool))) {
      std::fprintf(stderr, "FATAL: Dedup new/legacy outputs differ\n");
      return 1;
    }
  }

  double key_index_speedup_t8 = 0;
  double dedup_worst_speedup = -1;
  for (const int threads : kThreads) {
    ThreadPool pool(threads);

    // KeyIndex: one build plus one full probe pass per repetition.
    const double new_tps = MeasureTps(2 * kRows, kReps, [&] {
      RunNewKeyIndex(build, probe, &pool);
    });
    const double legacy_tps = MeasureTps(2 * kRows, kReps, [&] {
      RunLegacyKeyIndex(build, probe);
    });
    const double speedup = new_tps / legacy_tps;
    if (threads == 8) key_index_speedup_t8 = speedup;
    table.AddRow({"key_index", std::to_string(threads),
                  bench::Fmt(new_tps / 1e6, 2) + "M",
                  bench::Fmt(legacy_tps / 1e6, 2) + "M",
                  bench::Fmt(speedup, 2) + "x"});
    const std::string key = "key_index_t" + std::to_string(threads);
    json.Set(key + "_new_tps", new_tps);
    json.Set(key + "_legacy_tps", legacy_tps);
    json.Set(key + "_speedup", speedup);

    // Sort kernel: one full row sort per repetition (the copy into the
    // working buffer is inside the timed region for both sides alike).
    const double sort_new_tps = MeasureTps(kRows, kReps, [&] {
      std::vector<Value> data = unsorted.data();
      SortRowsBuffer(&pool, 2, data, {0});
    });
    const double sort_legacy_tps = MeasureTps(kRows, kReps, [&] {
      std::vector<Value> data = unsorted.data();
      LegacySortRows(2, data, {0});
    });
    const double sort_speedup = sort_new_tps / sort_legacy_tps;
    table.AddRow({"sort", std::to_string(threads),
                  bench::Fmt(sort_new_tps / 1e6, 2) + "M",
                  bench::Fmt(sort_legacy_tps / 1e6, 2) + "M",
                  bench::Fmt(sort_speedup, 2) + "x"});
    const std::string skey = "sort_t" + std::to_string(threads);
    json.Set(skey + "_new_tps", sort_new_tps);
    json.Set(skey + "_legacy_tps", sort_legacy_tps);
    json.Set(skey + "_speedup", sort_speedup);

    // Dedup: one call per repetition, each materializing its output.
    const std::pair<const char*, const Relation*> dedup_inputs[] = {
        {"dedup_unsorted", &with_duplicates},
        {"dedup_sorted", &sorted_distinct}};
    for (const auto& [name, input] : dedup_inputs) {
      const double dedup_new_tps = MeasureTps(kRows, kReps, [&] {
        Dedup(*input, &pool);
      });
      const double dedup_legacy_tps = MeasureTps(kRows, kReps, [&] {
        LegacyDedup(*input, &pool);
      });
      const double dedup_speedup = dedup_new_tps / dedup_legacy_tps;
      if (dedup_worst_speedup < 0 || dedup_speedup < dedup_worst_speedup) {
        dedup_worst_speedup = dedup_speedup;
      }
      table.AddRow({name, std::to_string(threads),
                    bench::Fmt(dedup_new_tps / 1e6, 2) + "M",
                    bench::Fmt(dedup_legacy_tps / 1e6, 2) + "M",
                    bench::Fmt(dedup_speedup, 2) + "x"});
      const std::string dkey =
          std::string(name) + "_t" + std::to_string(threads);
      json.Set(dkey + "_new_tps", dedup_new_tps);
      json.Set(dkey + "_legacy_tps", dedup_legacy_tps);
      json.Set(dkey + "_speedup", dedup_speedup);
    }
  }

  table.Print();
  json.Write();

  // CI gate: the flat index must not lose to the node-based one with the
  // full pool available.
  if (key_index_speedup_t8 < 1.0) {
    std::fprintf(stderr,
                 "FATAL: flat KeyIndex slower than legacy at 8 threads "
                 "(%.2fx)\n",
                 key_index_speedup_t8);
    return 1;
  }
  // CI gate: Dedup must not lose to the index-permutation Dedup at any
  // measured thread count, on either input.
  if (dedup_worst_speedup < 1.0) {
    std::fprintf(stderr,
                 "FATAL: Dedup slower than the legacy Dedup (%.2fx)\n",
                 dedup_worst_speedup);
    return 1;
  }
  return 0;
}
