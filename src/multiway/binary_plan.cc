#include "multiway/binary_plan.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "join/cartesian.h"
#include "join/hash_join.h"
#include "join/skew_join.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"

namespace mpcqp {

// Locally normalizes one atom instance: drops rows violating intra-atom
// repeated variables and projects to one column per distinct variable.
// Returns the normalized distributed relation and its variable list.
std::pair<DistRelation, std::vector<int>> NormalizeAtomDist(
    const Atom& atom, const DistRelation& rel) {
  std::vector<int> vars;
  std::vector<int> keep_cols;
  for (int c = 0; c < atom.arity(); ++c) {
    const int v = atom.vars[c];
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      vars.push_back(v);
      keep_cols.push_back(c);
    }
  }
  const bool has_repeats = static_cast<int>(vars.size()) != atom.arity();
  DistRelation out(static_cast<int>(vars.size()), rel.num_servers());
  for (int s = 0; s < rel.num_servers(); ++s) {
    const Relation& frag = rel.fragment(s);
    if (!has_repeats) {
      out.fragment(s) = frag;
      continue;
    }
    const Relation filtered = Filter(frag, [&](const Value* row) {
      for (int c = 0; c < atom.arity(); ++c) {
        for (int d = c + 1; d < atom.arity(); ++d) {
          if (atom.vars[c] == atom.vars[d] && row[c] != row[d]) return false;
        }
      }
      return true;
    });
    out.fragment(s) = Project(filtered, keep_cols);
  }
  return {std::move(out), std::move(vars)};
}

DistRelation ProjectFragments(Cluster& cluster, DistRelation rel,
                              const std::vector<int>& cols) {
  bool identity = static_cast<int>(cols.size()) == rel.arity();
  for (size_t c = 0; identity && c < cols.size(); ++c) {
    identity = cols[c] == static_cast<int>(c);
  }
  if (identity) return rel;
  DistRelation out(static_cast<int>(cols.size()), rel.num_servers());
  cluster.pool().ParallelFor(rel.num_servers(), [&](int64_t s) {
    out.fragment(static_cast<int>(s)) =
        Project(rel.fragment(static_cast<int>(s)), cols);
  });
  return out;
}

BinaryPlanResult IterativeBinaryJoin(Cluster& cluster,
                                     const ConjunctiveQuery& q,
                                     const std::vector<DistRelation>& atoms,
                                     Rng& rng,
                                     const BinaryPlanOptions& options) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  std::vector<int> order = options.order;
  if (order.empty()) {
    for (int j = 0; j < q.num_atoms(); ++j) order.push_back(j);
  }
  MPCQP_CHECK_EQ(static_cast<int>(order.size()), q.num_atoms());

  auto [acc, acc_vars] = NormalizeAtomDist(q.atom(order[0]), atoms[order[0]]);
  BinaryPlanResult result{DistRelation(q.num_vars(), p), {}};

  for (size_t step = 1; step < order.size(); ++step) {
    const int j = order[step];
    auto [rel, rel_vars] = NormalizeAtomDist(q.atom(j), atoms[j]);

    std::vector<int> left_keys;
    std::vector<int> right_keys;
    for (size_t c = 0; c < rel_vars.size(); ++c) {
      const auto it =
          std::find(acc_vars.begin(), acc_vars.end(), rel_vars[c]);
      if (it != acc_vars.end()) {
        left_keys.push_back(static_cast<int>(it - acc_vars.begin()));
        right_keys.push_back(static_cast<int>(c));
      }
    }

    if (left_keys.empty()) {
      acc = CartesianProduct(cluster, acc, rel, rng);
      // Output: all left columns then all right columns.
      for (int v : rel_vars) acc_vars.push_back(v);
    } else {
      if (options.skew_aware && left_keys.size() == 1) {
        acc = SkewAwareJoin(cluster, acc, rel, left_keys[0], right_keys[0],
                            rng);
      } else {
        acc = ParallelHashJoin(cluster, acc, rel, left_keys, right_keys);
      }
      // Output contract: left columns, then right non-key columns.
      for (size_t c = 0; c < rel_vars.size(); ++c) {
        if (std::find(right_keys.begin(), right_keys.end(),
                      static_cast<int>(c)) == right_keys.end()) {
          acc_vars.push_back(rel_vars[c]);
        }
      }
    }
    result.intermediate_sizes.push_back(acc.TotalSize());
  }

  // Project to variable-id order (local compute).
  MPCQP_CHECK_EQ(static_cast<int>(acc_vars.size()), q.num_vars());
  std::vector<int> cols(q.num_vars());
  for (int v = 0; v < q.num_vars(); ++v) {
    const auto it = std::find(acc_vars.begin(), acc_vars.end(), v);
    MPCQP_CHECK(it != acc_vars.end());
    cols[v] = static_cast<int>(it - acc_vars.begin());
  }
  result.output = ProjectFragments(cluster, std::move(acc), cols);
  return result;
}

}  // namespace mpcqp
