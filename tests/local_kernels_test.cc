// Tests for the local-compute kernels behind the free-compute side of the
// MPC model: the flat arena KeyIndex, the parallel sort kernel, and the
// FlatCounter used by the statistics paths. The common thread is the
// determinism contract — every kernel must produce bit-identical results
// for every thread count.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_counter.h"
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

std::vector<int64_t> ToVec(std::span<const int64_t> s) {
  return std::vector<int64_t>(s.begin(), s.end());
}

// Reference grouping: key -> ascending row indices, by exact key columns.
std::map<std::vector<Value>, std::vector<int64_t>> BruteForceGroups(
    const Relation& rel, const std::vector<int>& key_cols) {
  std::map<std::vector<Value>, std::vector<int64_t>> groups;
  for (int64_t i = 0; i < rel.size(); ++i) {
    std::vector<Value> key;
    for (int c : key_cols) key.push_back(rel.at(i, c));
    groups[key].push_back(i);
  }
  return groups;
}

TEST(KeyIndexTest, LookupReturnsAscendingRowIndices) {
  const Relation rel = Relation::FromRows(
      {{7, 1}, {3, 2}, {7, 3}, {5, 4}, {7, 5}, {3, 6}});
  const KeyIndex index(rel, {0});
  const Value seven = 7;
  EXPECT_EQ(ToVec(index.Lookup(&seven)), (std::vector<int64_t>{0, 2, 4}));
  const Value three = 3;
  EXPECT_EQ(ToVec(index.Lookup(&three)), (std::vector<int64_t>{1, 5}));
  const Value five = 5;
  EXPECT_EQ(ToVec(index.Lookup(&five)), (std::vector<int64_t>{3}));
  const Value missing = 42;
  EXPECT_TRUE(index.Lookup(&missing).empty());
  EXPECT_FALSE(index.Contains(&missing));
  EXPECT_TRUE(index.Contains(&seven));
  EXPECT_EQ(index.num_distinct_keys(), 3);
}

// The seed index documented a footgun: a hit's reference was invalidated
// by the next *missed* probe (the miss inserted nothing but returned a
// shared empty vector... until a rehash moved the buckets). The arena
// index removes the hazard by construction: spans stay valid for the
// index's lifetime across any probe sequence.
TEST(KeyIndexTest, HitSpanSurvivesInterveningMissedProbes) {
  Rng rng(11);
  const Relation rel = GenerateUniform(rng, 5000, 2, 500);
  const KeyIndex index(rel, {0});

  const Value present = rel.at(1234, 0);
  const std::span<const int64_t> hit = index.Lookup(&present);
  ASSERT_FALSE(hit.empty());
  const std::vector<int64_t> snapshot = ToVec(hit);

  // Hammer the index with misses (and more hits) after taking the span.
  for (Value v = 1000000; v < 1002000; ++v) {
    EXPECT_TRUE(index.Lookup(&v).empty());
  }
  for (int64_t i = 0; i < rel.size(); i += 7) {
    const Value v = rel.at(i, 0);
    EXPECT_FALSE(index.Lookup(&v).empty());
  }

  EXPECT_EQ(ToVec(hit), snapshot);  // Still the same arena bytes.
}

// Distinct keys forced onto equal 64-bit hashes must still be grouped by
// exact key, and num_distinct_keys must count keys, not hash values.
TEST(KeyIndexTest, DistinctKeysCollidingOnHashStaySeparate) {
  const Relation rel = Relation::FromRows(
      {{1, 10}, {2, 20}, {1, 11}, {3, 30}, {2, 21}, {1, 12}});
  // Every key hashes to the same value: the whole index is one probe
  // chain, resolved only by exact-key verification.
  const KeyIndex index(
      rel, {0}, [](const Value*, int) -> uint64_t { return 0x1234; });

  const Value one = 1, two = 2, three = 3, missing = 9;
  EXPECT_EQ(ToVec(index.Lookup(&one)), (std::vector<int64_t>{0, 2, 5}));
  EXPECT_EQ(ToVec(index.Lookup(&two)), (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(ToVec(index.Lookup(&three)), (std::vector<int64_t>{3}));
  EXPECT_TRUE(index.Lookup(&missing).empty());
  EXPECT_EQ(index.num_distinct_keys(), 3);
}

// Same, but large enough to cross the partitioned-build threshold and with
// a pool, with hashes that collide in pairs.
TEST(KeyIndexTest, PairwiseCollisionsLargeParallelBuild) {
  Rng rng(13);
  const Relation rel = GenerateUniform(rng, 40000, 2, 1000);
  ThreadPool pool(8);
  const KeyIndex index(
      rel, {0},
      [](const Value* key, int) -> uint64_t { return key[0] / 2; }, &pool);

  const auto groups = BruteForceGroups(rel, {0});
  EXPECT_EQ(index.num_distinct_keys(),
            static_cast<int64_t>(groups.size()));
  for (const auto& [key, rows] : groups) {
    EXPECT_EQ(ToVec(index.Lookup(key.data())), rows);
  }
}

TEST(KeyIndexTest, ParityWithBruteForceAcrossThreadCounts) {
  Rng rng(17);
  // Large enough that the build partitions and morsel-parallelizes.
  const Relation rel = GenerateUniform(rng, 60000, 3, 4000);
  const std::vector<int> key_cols = {1, 2};
  const auto groups = BruteForceGroups(rel, key_cols);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const KeyIndex index(rel, key_cols, &pool);
    EXPECT_EQ(index.num_distinct_keys(),
              static_cast<int64_t>(groups.size()))
        << "threads=" << threads;
    for (const auto& [key, rows] : groups) {
      ASSERT_EQ(ToVec(index.Lookup(key.data())), rows)
          << "threads=" << threads;
    }
    const std::vector<Value> missing = {5000, 5000};
    EXPECT_TRUE(index.Lookup(missing.data()).empty());
  }
}

TEST(KeyIndexTest, EmptyAndTinyViews) {
  const Relation empty(2);
  const KeyIndex index(empty, {0});
  const Value v = 1;
  EXPECT_TRUE(index.Lookup(&v).empty());
  EXPECT_EQ(index.num_distinct_keys(), 0);

  const Relation one = Relation::FromRows({{9, 9}});
  ThreadPool pool(8);
  const KeyIndex single(one, {0, 1}, &pool);
  const std::vector<Value> key = {9, 9};
  EXPECT_EQ(ToVec(single.Lookup(key.data())), (std::vector<int64_t>{0}));
  EXPECT_EQ(single.num_distinct_keys(), 1);
}

// ---- Parallel sort kernel. ----

std::vector<uint64_t> MakePattern(const std::string& kind, int64_t n) {
  std::vector<uint64_t> v(static_cast<size_t>(n));
  Rng rng(23);
  for (int64_t i = 0; i < n; ++i) {
    if (kind == "duplicate_heavy") {
      v[i] = rng.Uniform(8);  // ~n/8 copies of each value.
    } else if (kind == "presorted") {
      v[i] = static_cast<uint64_t>(i);
    } else if (kind == "reverse") {
      v[i] = static_cast<uint64_t>(n - i);
    } else {
      v[i] = rng.Uniform(1u << 30);
    }
  }
  return v;
}

TEST(ParallelSortTest, MatchesStdSortOnAdversarialPatterns) {
  // Above kParallelSortMinItems so pools > 1 take the chunk+merge path.
  const int64_t n = kParallelSortMinItems * 3 + 1;
  for (const std::string kind :
       {"duplicate_heavy", "presorted", "reverse", "random"}) {
    std::vector<uint64_t> want = MakePattern(kind, n);
    std::sort(want.begin(), want.end());
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      std::vector<uint64_t> got = MakePattern(kind, n);
      ParallelSort(&pool, got, std::less<uint64_t>());
      EXPECT_EQ(got, want) << kind << " threads=" << threads;
    }
  }
}

TEST(ParallelSortTest, SmallInputsAndEdgeSizes) {
  for (const int64_t n : {0, 1, 2, 3, 17}) {
    for (const int threads : {1, 8}) {
      ThreadPool pool(threads);
      std::vector<uint64_t> got = MakePattern("random", n);
      std::vector<uint64_t> want = got;
      std::sort(want.begin(), want.end());
      ParallelSort(&pool, got, std::less<uint64_t>());
      EXPECT_EQ(got, want) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(SortRowsBufferTest, RowSortBitIdenticalAcrossThreadCounts) {
  Rng rng(29);
  // Duplicate-heavy keys: ties are broken by the remaining columns, so the
  // sorted bytes must not depend on chunk layout or thread count.
  const Relation input = GenerateUniform(rng, 50000, 3, 40);

  Relation serial = input;
  serial.SortRowsBy({1});  // No pool: the historic serial path.
  for (int64_t i = 1; i < serial.size(); ++i) {
    EXPECT_LE(serial.at(i - 1, 1), serial.at(i, 1));
  }

  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    Relation parallel = input;
    parallel.SortRowsBy({1}, &pool);
    EXPECT_TRUE(parallel == serial) << "threads=" << threads;
  }
}

TEST(SortRowsBufferTest, FullRowSortMatchesSerial) {
  Rng rng(31);
  const Relation input = GenerateUniform(rng, 40000, 2, 100);
  Relation serial = input;
  serial.SortRows();
  ThreadPool pool(8);
  Relation parallel = input;
  parallel.SortRows(&pool);
  EXPECT_TRUE(parallel == serial);
}

TEST(SortRowsBufferTest, EveryArityMatchesReferenceSort) {
  // Arities 1–4 take the fixed-width path, 5 and 6 the permutation path;
  // both must give std::sort's bytes with and without key columns.
  for (int arity = 1; arity <= 6; ++arity) {
    Rng rng(41 + arity);
    const Relation input =
        GenerateUniform(rng, kParallelSortMinItems + 321, arity, 6);
    for (const std::vector<int>& key_cols :
         {std::vector<int>{}, std::vector<int>{arity - 1}}) {
      std::vector<std::vector<Value>> want;
      for (int64_t i = 0; i < input.size(); ++i) {
        want.emplace_back(input.row(i), input.row(i) + arity);
      }
      std::sort(want.begin(), want.end(),
                [&](const std::vector<Value>& a, const std::vector<Value>& b) {
                  for (int c : key_cols) {
                    if (a[c] != b[c]) return a[c] < b[c];
                  }
                  return a < b;
                });
      std::vector<Value> want_flat;
      for (const auto& row : want) {
        want_flat.insert(want_flat.end(), row.begin(), row.end());
      }
      for (const int threads : {0, 1, 2, 8}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        std::vector<Value> got = input.data();
        SortRowsBuffer(pool.get(), arity, got, key_cols);
        EXPECT_EQ(got, want_flat)
            << "arity=" << arity << " keys=" << key_cols.size()
            << " threads=" << threads;
      }
    }
  }
}

// ---- Dedup and Project over every kind of view. ----

// The three view kinds over `rel`: the whole relation, an inner span,
// and a selection (every third row, backwards, with repeats).
struct Views {
  std::vector<int64_t> selection;
  std::vector<std::pair<const char*, RelationView>> views;
};

Views MakeViews(const Relation& rel) {
  Views out;
  for (int64_t i = rel.size() - 1; i >= 0; i -= 3) {
    out.selection.push_back(i);
    if (i % 2 == 0) out.selection.push_back(i);
  }
  out.views.push_back({"whole", RelationView(rel)});
  out.views.push_back(
      {"span", RelationView(rel, rel.size() / 5, rel.size() - 7)});
  if (rel.arity() > 0) {
    out.views.push_back({"selection", RelationView(rel, out.selection)});
  }
  return out;
}

std::vector<std::vector<Value>> ViewRows(RelationView view) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < view.size(); ++i) {
    if (view.arity() == 0) {
      rows.emplace_back();
    } else {
      rows.emplace_back(view.row(i), view.row(i) + view.arity());
    }
  }
  return rows;
}

std::vector<std::vector<Value>> RelationRows(const Relation& rel) {
  return ViewRows(RelationView(rel));
}

Relation MakeInput(int arity, int64_t rows, uint64_t seed) {
  if (arity == 0) {
    Relation out(0);
    for (int64_t i = 0; i < rows; ++i) out.AppendNullaryRow();
    return out;
  }
  Rng rng(seed);
  return GenerateUniform(rng, rows, arity, 5);
}

TEST(DedupProjectTest, DedupMatchesSetReferenceOnEveryViewAndPool) {
  // Above kParallelSortMinItems so pools > 1 take the chunk+merge path.
  for (int arity = 0; arity <= 6; ++arity) {
    const Relation input = MakeInput(arity, kParallelSortMinItems + 97, 50);
    const Views views = MakeViews(input);
    for (const auto& [kind, view] : views.views) {
      const std::vector<std::vector<Value>> rows = ViewRows(view);
      const std::set<std::vector<Value>> distinct(rows.begin(), rows.end());
      const std::vector<std::vector<Value>> want(distinct.begin(),
                                                 distinct.end());
      for (const int threads : {0, 1, 2, 8}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        const Relation got = Dedup(view, pool.get());
        EXPECT_EQ(got.arity(), arity);
        EXPECT_EQ(RelationRows(got), want)
            << "arity=" << arity << " view=" << kind
            << " threads=" << threads;
      }
    }
  }
}

TEST(DedupProjectTest, ProjectMatchesRowReferenceOnEveryView) {
  for (int arity = 0; arity <= 6; ++arity) {
    const Relation input = MakeInput(arity, 500, 51);
    std::vector<std::vector<int>> projections = {{}};
    if (arity > 0) {
      std::vector<int> identity(arity);
      for (int c = 0; c < arity; ++c) identity[c] = c;
      std::vector<int> reversed(identity.rbegin(), identity.rend());
      projections.push_back(identity);
      projections.push_back(reversed);
      projections.push_back({arity - 1});
      projections.push_back({0, arity - 1, 0});
    }
    const Views views = MakeViews(input);
    for (const auto& [kind, view] : views.views) {
      for (const std::vector<int>& cols : projections) {
        std::vector<std::vector<Value>> want;
        for (const std::vector<Value>& row : ViewRows(view)) {
          std::vector<Value> projected;
          for (int c : cols) projected.push_back(row[c]);
          want.push_back(projected);
        }
        const Relation got = Project(view, cols);
        EXPECT_EQ(got.arity(), static_cast<int>(cols.size()));
        EXPECT_EQ(RelationRows(got), want)
            << "arity=" << arity << " view=" << kind
            << " width=" << cols.size();
      }
    }
  }
}

TEST(DedupProjectTest, SortedDistinctAndIdentityInputsShareTheirPayload) {
  const Relation sorted =
      Relation::FromRows({{1, 5}, {1, 7}, {2, 0}, {4, 4}, {9, 1}});
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_TRUE(Dedup(sorted, p).SharesPayloadWith(sorted));
  }
  EXPECT_TRUE(Project(sorted, {0, 1}).SharesPayloadWith(sorted));

  // A span of the same rows is copied, with the same result.
  const RelationView span(sorted, 1, 4);
  const Relation span_dedup = Dedup(span);
  EXPECT_FALSE(span_dedup.SharesPayloadWith(sorted));
  EXPECT_EQ(RelationRows(span_dedup), ViewRows(span));

  // Sorted with a duplicate, or unsorted: a fresh, deduplicated copy.
  const Relation with_duplicate = Relation::FromRows({{1, 5}, {1, 5}, {2, 0}});
  const Relation deduped = Dedup(with_duplicate);
  EXPECT_FALSE(deduped.SharesPayloadWith(with_duplicate));
  EXPECT_EQ(deduped, Relation::FromRows({{1, 5}, {2, 0}}));
  const Relation unsorted = Relation::FromRows({{2, 0}, {1, 5}});
  EXPECT_FALSE(Dedup(unsorted).SharesPayloadWith(unsorted));

  // Repeated or reordered columns copy even at the input's width.
  const Relation repeated = Project(sorted, {0, 0});
  EXPECT_FALSE(repeated.SharesPayloadWith(sorted));
  EXPECT_EQ(repeated.at(3, 0), 4u);
  EXPECT_EQ(repeated.at(3, 1), 4u);
  const Relation swapped = Project(sorted, {1, 0});
  EXPECT_FALSE(swapped.SharesPayloadWith(sorted));
  EXPECT_EQ(swapped.at(0, 0), 5u);
  const Relation widened = Project(sorted, {0, 1, 0});
  EXPECT_FALSE(widened.SharesPayloadWith(sorted));
  EXPECT_EQ(widened.arity(), 3);
}

// ---- FlatCounter. ----

TEST(FlatCounterTest, MatchesMapSemantics) {
  Rng rng(37);
  FlatCounter counter;  // Default capacity: forces several growths.
  std::map<uint64_t, int64_t> want;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.Uniform(3000);
    counter.Add(key);
    ++want[key];
  }
  counter.Add(7777777, 5);  // Explicit delta.
  want[7777777] += 5;

  EXPECT_EQ(counter.num_keys(), static_cast<int64_t>(want.size()));
  EXPECT_EQ(counter.Get(999999999), 0);  // Never added.
  std::vector<std::pair<uint64_t, int64_t>> want_entries(want.begin(),
                                                         want.end());
  EXPECT_EQ(counter.SortedEntries(), want_entries);
  for (const auto& [key, count] : want_entries) {
    EXPECT_EQ(counter.Get(key), count);
  }
}

TEST(FlatCounterTest, PresizedAndEmpty) {
  const FlatCounter empty;
  EXPECT_EQ(empty.num_keys(), 0);
  EXPECT_TRUE(empty.SortedEntries().empty());

  FlatCounter presized(1000);
  for (uint64_t k = 0; k < 1000; ++k) presized.Add(k, static_cast<int64_t>(k));
  EXPECT_EQ(presized.num_keys(), 1000);
  EXPECT_EQ(presized.Get(0), 0);  // Inserted with count 0.
  EXPECT_EQ(presized.Get(999), 999);
}

}  // namespace
}  // namespace mpcqp
