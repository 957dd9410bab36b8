#include "join/stats.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "join/heavy_hitters.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Local pre-aggregation: fragment -> (value, count) partials, sorted by
// value, from the degree kernel's per-fragment counters.
DistRelation LocalCounts(Cluster& cluster, const DistRelation& rel, int col) {
  const ColumnDegrees degrees(rel, col, &cluster.pool());
  DistRelation partials(2, rel.num_servers());
  cluster.pool().ParallelFor(rel.num_servers(), [&](int64_t s) {
    Relation& out = partials.fragment(static_cast<int>(s));
    for (const auto& [value, count] :
         degrees.local(static_cast<int>(s)).SortedEntries()) {
      out.AppendRow({value, static_cast<Value>(count)});
    }
  });
  return partials;
}

}  // namespace

std::vector<DistributedHeavyHitter> DetectHeavyHittersDistributed(
    Cluster& cluster, const DistRelation& rel, int col, int64_t threshold) {
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, rel.arity());
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);

  // Round 1: partials to the value's owner.
  const HashFunction hash = cluster.NewHashFunction();
  const DistRelation routed =
      HashPartition(cluster, LocalCounts(cluster, rel, col), {0}, hash,
                    "stats: count shuffle");

  // Local finalize: totals per owned value; keep the heavy survivors.
  DistRelation survivors(2, p);
  for (int s = 0; s < p; ++s) {
    // Counts are bounded by the row count, so the sum cannot overflow.
    const Relation totals = GroupBySum(routed.fragment(s), {0}, 1).value();
    for (int64_t i = 0; i < totals.size(); ++i) {
      if (static_cast<int64_t>(totals.at(i, 1)) > threshold) {
        survivors.fragment(s).AppendRowFrom(totals, i);
      }
    }
  }

  // Round 2: broadcast the (few) heavy values so every server knows them.
  const DistRelation everywhere =
      Broadcast(cluster, survivors, "stats: hitter broadcast");

  Relation collected = everywhere.fragment(0);
  collected.SortRowsBy({0});
  std::vector<DistributedHeavyHitter> result;
  result.reserve(collected.size());
  for (int64_t i = 0; i < collected.size(); ++i) {
    result.push_back({collected.at(i, 0),
                      static_cast<int64_t>(collected.at(i, 1))});
  }
  return result;
}

Relation DistributedDegreeTable(Cluster& cluster, const DistRelation& rel,
                                int col, int gather_to) {
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, rel.arity());
  const HashFunction hash = cluster.NewHashFunction();
  const DistRelation routed =
      HashPartition(cluster, LocalCounts(cluster, rel, col), {0}, hash,
                    "stats: count shuffle");
  DistRelation totals(2, cluster.num_servers());
  for (int s = 0; s < cluster.num_servers(); ++s) {
    totals.fragment(s) = GroupBySum(routed.fragment(s), {0}, 1).value();
  }
  Relation gathered =
      GatherToServer(cluster, totals, gather_to, "stats: gather degrees");
  gathered.SortRowsBy({0});
  return gathered;
}

}  // namespace mpcqp
