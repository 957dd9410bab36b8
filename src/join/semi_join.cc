#include "join/semi_join.h"

#include "common/check.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

enum class FilterKind { kSemi, kAnti };

DistRelation PartitionedFilter(Cluster& cluster, const DistRelation& left,
                               const DistRelation& right,
                               const std::vector<int>& left_keys,
                               const std::vector<int>& right_keys,
                               FilterKind kind) {
  MPCQP_CHECK_EQ(left_keys.size(), right_keys.size());
  MPCQP_CHECK(!left_keys.empty());
  const int p = cluster.num_servers();

  const HashFunction hash = cluster.NewHashFunction();
  cluster.BeginRound(kind == FilterKind::kSemi ? "distributed semijoin"
                                               : "distributed antijoin");
  // The filter side only needs its distinct keys: project + dedup locally
  // before shuffling (the classic semijoin-reduction trick).
  DistRelation right_keys_only(static_cast<int>(right_keys.size()), p);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    right_keys_only.fragment(s) =
        Dedup(Project(right.fragment(s), right_keys));
  });
  std::vector<int> key_cols(right_keys.size());
  for (size_t i = 0; i < key_cols.size(); ++i) {
    key_cols[i] = static_cast<int>(i);
  }
  const DistRelation left_parts =
      HashPartition(cluster, left, left_keys, hash, "");
  const DistRelation right_parts =
      HashPartition(cluster, right_keys_only, key_cols, hash, "");
  cluster.EndRound();

  std::vector<Relation> outputs(p);
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    outputs[s] =
        kind == FilterKind::kSemi
            ? SemijoinLocal(left_parts.fragment(s), right_parts.fragment(s),
                            left_keys, key_cols)
            : AntijoinLocal(left_parts.fragment(s), right_parts.fragment(s),
                            left_keys, key_cols);
  });
  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace

DistRelation DistributedSemijoin(Cluster& cluster, const DistRelation& left,
                                 const DistRelation& right,
                                 const std::vector<int>& left_keys,
                                 const std::vector<int>& right_keys) {
  return PartitionedFilter(cluster, left, right, left_keys, right_keys,
                           FilterKind::kSemi);
}

DistRelation DistributedAntijoin(Cluster& cluster, const DistRelation& left,
                                 const DistRelation& right,
                                 const std::vector<int>& left_keys,
                                 const std::vector<int>& right_keys) {
  return PartitionedFilter(cluster, left, right, left_keys, right_keys,
                           FilterKind::kAnti);
}

DistRelation BroadcastSemijoin(Cluster& cluster, const DistRelation& left,
                               const DistRelation& right,
                               const std::vector<int>& left_keys,
                               const std::vector<int>& right_keys) {
  MPCQP_CHECK_EQ(left_keys.size(), right_keys.size());
  MPCQP_CHECK(!left_keys.empty());
  const int p = cluster.num_servers();
  DistRelation right_keys_only(static_cast<int>(right_keys.size()), p);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    right_keys_only.fragment(s) =
        Dedup(Project(right.fragment(s), right_keys));
  });
  const DistRelation everywhere =
      Broadcast(cluster, right_keys_only, "broadcast semijoin");
  std::vector<int> key_cols(right_keys.size());
  for (size_t i = 0; i < key_cols.size(); ++i) {
    key_cols[i] = static_cast<int>(i);
  }
  std::vector<Relation> outputs(p);
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    outputs[s] = SemijoinLocal(left.fragment(s), everywhere.fragment(s),
                               left_keys, key_cols);
  });
  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace mpcqp
