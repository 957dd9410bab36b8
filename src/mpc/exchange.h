#ifndef MPCQP_MPC_EXCHANGE_H_
#define MPCQP_MPC_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

// Exchange (shuffle) primitives. Each moves a DistRelation's tuples to new
// servers and meters every tuple via the cluster. Each call is one MPC
// round unless the caller has a round open (RoundScope semantics), in which
// case it merges into that round.
//
// Execution model: morsel-driven two-phase index-routed exchange. Both
// parallel passes tile the input over (source, row-range) morsels of at
// most ClusterOptions::morsel_rows rows, claimed through the pool's
// work-stealing deques — the parallelism grain is decoupled from p, so a
// skewed fragment no longer serializes a round behind one task. Phase 1
// routes each morsel, computing per-tuple destinations and exact
// per-(morsel, dst) row counts — no tuple bytes move. A pass parallel
// over destinations turns the counts into src-major, row-ascending
// offsets and pre-sizes every destination fragment; phase 2 copies each
// tuple directly to its final position (with per-destination
// write-combining staging at large p); the per-(morsel, dst) ranges are
// disjoint, so the copies run lock-free and in parallel. The src-major
// layout reproduces sequential append order, so the output fragments and
// the metered costs are bit-identical for every thread count and every
// morsel size. Routing callbacks run concurrently: they must not mutate
// shared state (thread_local scratch is fine), and their decision for a
// tuple may depend only on the tuple itself and its source coordinates
// (RouteContext) — never on how many tuples were visited before it.
//
// Broadcast is zero-copy: it materializes the src-major concatenation
// once and returns p copy-on-write handles to that single payload (a
// receiver that mutates its copy detaches transparently). The metered
// cost is unchanged — every server is still charged for receiving every
// tuple; sharing is a simulator-memory optimization, not a cost one.

// Identifies the tuple being routed: its source server and its row index
// within that source fragment. This is what callers hash when they need a
// per-tuple pseudo-random choice (e.g. picking a row of a heavy-hitter
// grid) that stays deterministic under concurrent routing.
struct RouteContext {
  int src = 0;
  int64_t row = 0;
};

// Re-partitions by hash of the key columns: tuple t goes to server
// h(t[key_cols]) mod p.
DistRelation HashPartition(Cluster& cluster, const DistRelation& rel,
                           const std::vector<int>& key_cols,
                           const HashFunction& hash, const std::string& label);

// Every server receives a copy of the whole relation.
DistRelation Broadcast(Cluster& cluster, const DistRelation& rel,
                       const std::string& label);

// Range-partitions by column `col`: tuple with value v goes to server i
// where splitters[i-1] <= v < splitters[i] (splitters sorted, size p-1).
DistRelation RangePartition(Cluster& cluster, const DistRelation& rel, int col,
                            const std::vector<Value>& splitters,
                            const std::string& label);

// Fully general routing: `targets(ctx, row, dests)` appends the
// destination server ids for each tuple (possibly none or several —
// multicast); `ctx` gives the tuple's source coordinates for
// deterministic per-tuple choices. This is what HyperCube partitioning
// and heavy-hitter Cartesian grids build on.
DistRelation Route(
    Cluster& cluster, const DistRelation& rel,
    const std::function<void(const RouteContext& ctx, const Value* row,
                             std::vector<int>& dests)>& targets,
    const std::string& label);

// Moves all tuples to server `dst` (e.g. collecting a sample to decide
// splitters). Returns the collected relation.
Relation GatherToServer(Cluster& cluster, const DistRelation& rel, int dst,
                        const std::string& label);

}  // namespace mpcqp

#endif  // MPCQP_MPC_EXCHANGE_H_
