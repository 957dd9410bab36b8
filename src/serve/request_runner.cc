#include "serve/request_runner.h"

#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"

namespace mpcqp {

StatusOr<std::optional<PlannedQuery>> ResolveAlgorithm(
    const ConjunctiveQuery& q, const std::string& algorithm) {
  auto family = ParsePlanAlgorithm(algorithm);
  if (!family.ok()) return family.status();
  if (!family->has_value()) return std::optional<PlannedQuery>();
  auto forced = ForcedPlan(q, **family);
  if (!forced.ok()) return forced.status();
  return std::optional<PlannedQuery>(std::move(forced).value());
}

QueryRun RunQuery(const ConjunctiveQuery& q,
                  const std::vector<Relation>& inputs,
                  const std::optional<PlannedQuery>& forced,
                  const ServeOptions& options, PlanCache* plan_cache,
                  const CostCoefficients& cost) {
  const int p = options.num_servers;
  ClusterOptions cluster_options;
  cluster_options.morsel_rows = options.morsel_rows;
  cluster_options.layout = options.layout;
  cluster_options.shared_pool = ExecutorRegistry::Shared(options.num_threads);
  auto cluster =
      std::make_unique<Cluster>(p, options.seed + 1, cluster_options);
  auto scope = std::make_unique<Cluster::ScopedExecution>(*cluster);

  std::vector<DistRelation> atoms;
  atoms.reserve(inputs.size());
  for (const Relation& input : inputs) {
    atoms.push_back(DistRelation::Scatter(input, p, &cluster->pool()));
  }
  PlannedQuery planned;
  std::string algorithm = options.algorithm;
  if (forced.has_value()) {
    planned = *forced;
  } else {
    PlannerOptions planner_options;
    planner_options.round_cost_tuples = options.round_cost;
    planner_options.cost = cost;
    planned = PlanQuery(q, atoms, p, planner_options,
                        options.enable_plan_cache ? plan_cache : nullptr);
    algorithm = PlanAlgorithmName(planned.plan.family);
  }
  Rng rng(options.seed + 2);
  DistRelation output = ExecutePlannedQuery(*cluster, q, atoms, planned, rng);
  return QueryRun{std::move(cluster), std::move(scope), std::move(planned),
                  std::move(algorithm), std::move(output)};
}

}  // namespace mpcqp
