#ifndef MPCQP_SERVE_REQUEST_RUNNER_H_
#define MPCQP_SERVE_REQUEST_RUNNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "planner/calibration.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "query/query.h"
#include "relation/columnar.h"
#include "relation/relation.h"

namespace mpcqp {

// Configuration of a request and of a serving endpoint. mpcqp_run fills
// it from its flags; its --algorithm defaults to "hypercube", not "auto".
struct ServeOptions {
  int num_servers = 16;       // Simulated MPC cluster size p per query.
  int num_threads = 1;        // Shared pool width (first creator sizes it).
  int64_t morsel_rows = ClusterOptions{}.morsel_rows;
  // Physical layout for hot kernels (never changes answers; see
  // ClusterOptions::layout).
  LayoutMode layout = LayoutMode::kAuto;
  // A strategy family (ParsePlanAlgorithm) or auto|planner.
  std::string algorithm = "auto";
  uint64_t seed = 42;
  double round_cost = 0.0;    // Planner λ (tuples per round).
  // Admission control: at most max_inflight queries execute, at most
  // max_queued more wait; beyond that Execute returns UNAVAILABLE.
  int max_inflight = 4;
  int max_queued = 64;
  // Per-query memory budget (estimated input + output footprint); 0 =
  // unlimited. Queries whose estimate exceeds it get RESOURCE_EXHAUSTED
  // without taking an admission slot.
  int64_t mem_budget_bytes = 0;
  bool enable_result_cache = true;
  bool enable_plan_cache = true;
};

// The plan half of a request, fixed before any data moves: a named family
// becomes its forced plan (ForcedPlan), "auto"/"planner" yield
// std::nullopt (PlanQuery decides once the inputs are scattered).
// INVALID_ARGUMENT for an unknown name or a family that cannot run `q`.
StatusOr<std::optional<PlannedQuery>> ResolveAlgorithm(
    const ConjunctiveQuery& q, const std::string& algorithm);

// One executed request. The cluster holds its costs and takes further
// rounds (--agg); the scope attributes the calling thread's work to it
// until destroyed (members are destroyed bottom-up).
struct QueryRun {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Cluster::ScopedExecution> scope;
  PlannedQuery planned;
  // The forced name as given, or the planner's PlanAlgorithmName.
  std::string algorithm;
  DistRelation output;  // Columns = query variables in id order.
};

// The only path from a request to an executed plan, so mpcqp_run and
// QueryServer answer bit-identically by construction: builds the Cluster
// on the shared pool (ExecutorRegistry) with seed + 1, scatters `inputs`
// (inputs[j] instantiates q.atom(j)), takes `forced` or runs PlanQuery
// (priced with `cost`, cached in `plan_cache` if enabled), and executes
// with the algorithm Rng seeded seed + 2.
QueryRun RunQuery(const ConjunctiveQuery& q,
                  const std::vector<Relation>& inputs,
                  const std::optional<PlannedQuery>& forced,
                  const ServeOptions& options, PlanCache* plan_cache,
                  const CostCoefficients& cost = {});

}  // namespace mpcqp

#endif  // MPCQP_SERVE_REQUEST_RUNNER_H_
