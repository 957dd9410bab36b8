#ifndef MPCQP_JOIN_SKEW_JOIN_H_
#define MPCQP_JOIN_SKEW_JOIN_H_

#include <vector>

#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

// The skew-resilient two-way join of deck slides 29-30, combining the
// parallel hash join (light values) with per-heavy-hitter Cartesian
// product grids (heavy values):
//
//   1. A value of the join key is heavy if it occurs more than
//      threshold_factor * IN/p times in `left` or in `right`.
//   2. Light tuples are hash-partitioned as usual.
//   3. For each heavy value b, the tuples of left/right with key b join
//      via a Cartesian grid on an exclusive slice of servers, sized
//      proportionally to sqrt(dL(b) * dR(b)) (its output share).
//
// Everything is one exchange round; local joins follow. Load:
// O(sqrt(OUT/p) + IN/p), versus Θ(max-degree) for the plain hash join.
//
// Single-column join keys (the deck's setting). Output contract matches
// ParallelHashJoin: left columns then non-key right columns.
struct SkewJoinOptions {
  // Multiplies the IN/p heavy-hitter threshold (ablation knob A2).
  double threshold_factor = 1.0;
  // If true, heavy hitters are found by the metered two-round protocol of
  // join/stats.h (the cost a deployment actually pays) instead of the free
  // exact oracle the theory assumes. Adds 2·2 rounds (one detection per
  // side); the hitters found are identical. Partner-side degrees of the
  // detected hitters are still read exactly — in practice they piggyback
  // on the detection round at no extra asymptotic cost.
  bool metered_statistics = false;
};

DistRelation SkewAwareJoin(Cluster& cluster, const DistRelation& left,
                           const DistRelation& right, int left_key,
                           int right_key, Rng& rng,
                           const SkewJoinOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_JOIN_SKEW_JOIN_H_
