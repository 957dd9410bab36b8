#include "multiway/binary_plan.h"

#include "multiway/plan_tree.h"

namespace mpcqp {

BinaryPlanResult IterativeBinaryJoin(Cluster& cluster,
                                     const ConjunctiveQuery& q,
                                     const std::vector<DistRelation>& atoms,
                                     Rng& rng,
                                     const BinaryPlanOptions& options) {
  std::vector<int> order = options.order;
  if (order.empty()) {
    for (int j = 0; j < q.num_atoms(); ++j) order.push_back(j);
  }
  const PlanTree tree =
      BuildJoinOrderTree(q, order, options.skew_aware, /*est_rows=*/{});
  std::vector<int64_t> node_rows;
  BinaryPlanResult result{
      ExecuteJoinOrderTree(cluster, q, atoms, tree, rng, &node_rows), {}};
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const PlanOp op = tree.nodes[i].op;
    if (op == PlanOp::kShuffleJoin || op == PlanOp::kProduct) {
      result.intermediate_sizes.push_back(node_rows[i]);
    }
  }
  return result;
}

}  // namespace mpcqp
