#ifndef MPCQP_JOIN_HEAVY_HITTERS_H_
#define MPCQP_JOIN_HEAVY_HITTERS_H_

#include <cstdint>
#include <vector>

#include "common/flat_counter.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

class ThreadPool;

// A join value and its frequency in a relation column.
struct HeavyHitter {
  Value value = 0;
  int64_t count = 0;

  friend bool operator==(const HeavyHitter& a, const HeavyHitter& b) {
    return a.value == b.value && a.count == b.count;
  }
};

// The exact degree of every value of column `col` of a distributed
// relation — the one degree kernel behind heavy-hitter detection, the
// skew joins' partner degrees, the metered statistics protocol's local
// pre-aggregation, and the planner's distinct counts.
//
// Each fragment gets its own FlatCounter, filled in parallel on `pool`
// (serially when null). Nothing is merged globally up front: every query
// below reads the per-fragment counters directly, so the results are
// exact and identical for every pool size. The counters are freed with
// the object; scope it to the statistics read.
class ColumnDegrees {
 public:
  ColumnDegrees(const DistRelation& rel, int col, ThreadPool* pool = nullptr);

  // Values with total count STRICTLY greater than `threshold`, with their
  // exact totals, sorted by value. Pigeonhole: a value whose total over p
  // fragments exceeds τ has local·p > τ on at least one fragment, so only
  // those candidates — at most p·(rows/τ) of them — are summed across the
  // fragments and sorted; the light values are never merged, and a
  // fragment whose largest count is too small to witness is not scanned.
  std::vector<HeavyHitter> Heavy(int64_t threshold) const;

  // Exact degree of one value (0 if absent).
  int64_t Count(Value value) const;

  // Exact number of distinct values.
  int64_t Distinct() const;

  // Fragment s's (value -> local count) table.
  const FlatCounter& local(int s) const { return local_[s]; }

 private:
  std::vector<FlatCounter> local_;
  std::vector<int64_t> max_local_;  // Largest count in each fragment.
  ThreadPool* pool_;
};

// Values of column `col` with frequency STRICTLY greater than `threshold`,
// sorted by value: ColumnDegrees(rel, col, pool).Heavy(threshold). The
// deck's threshold is IN/p (slide 29).
//
// Degree detection is exact here. In a deployment it is one cheap extra
// round (per-server partial counts of candidate values, each server
// holding at most p candidates above IN/p locally — the same pigeonhole
// bound ColumnDegrees::Heavy uses); the simulator computes it directly and
// the algorithms treat it as free statistics, matching the theory's
// assumption that degrees are known. stats.h has the metered protocol.
std::vector<HeavyHitter> FindHeavyHitters(const DistRelation& rel, int col,
                                          int64_t threshold,
                                          ThreadPool* pool = nullptr);

}  // namespace mpcqp

#endif  // MPCQP_JOIN_HEAVY_HITTERS_H_
