#ifndef MPCQP_JOIN_STATS_H_
#define MPCQP_JOIN_STATS_H_

#include <cstdint>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

// Distributed statistics collection, metered.
//
// The skew-aware algorithms need the degrees of the heavy join values.
// heavy_hitters.h computes them for free (the theory assumes known
// statistics); this header provides the honest two-round protocol a real
// deployment runs, so its cost can be measured and charged:
//
//   round 1: every server pre-aggregates its fragment into (value, count)
//            partials and hash-partitions them by value;
//   round 2: each server finalizes the counts it owns, keeps the values
//            above the threshold, and broadcasts them (at most ~IN/threshold
//            survivors exist, so the broadcast is tiny).
//
// Returned: the heavy (value, count) pairs, identical to the exact oracle.
struct DistributedHeavyHitter {
  Value value = 0;
  int64_t count = 0;
};

std::vector<DistributedHeavyHitter> DetectHeavyHittersDistributed(
    Cluster& cluster, const DistRelation& rel, int col, int64_t threshold);

// The exact per-value degree table of a column, computed distributed
// (round 1 of the protocol above) and gathered to one server (metered).
// Output relation: (value, count), sorted by value.
Relation DistributedDegreeTable(Cluster& cluster, const DistRelation& rel,
                                int col, int gather_to = 0);

}  // namespace mpcqp

#endif  // MPCQP_JOIN_STATS_H_
