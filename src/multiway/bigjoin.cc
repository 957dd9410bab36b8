#include "multiway/bigjoin.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "join/heavy_hitters.h"
#include "join/semi_join.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/key_index.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Locally normalizes an atom: intra-atom repeats filtered, one column per
// distinct variable, deduplicated. Returns fragments + the variable list.
std::pair<DistRelation, std::vector<int>> NormalizeAtom(
    ThreadPool& pool, const Atom& atom, const DistRelation& rel) {
  std::vector<int> vars;
  std::vector<int> cols;
  for (int c = 0; c < atom.arity(); ++c) {
    const int v = atom.vars[c];
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      vars.push_back(v);
      cols.push_back(c);
    }
  }
  const bool repeats = static_cast<int>(vars.size()) != atom.arity();
  DistRelation out(static_cast<int>(vars.size()), rel.num_servers());
  pool.ParallelFor(rel.num_servers(), [&](int64_t s) {
    Relation frag = rel.fragment(s);  // COW handle; no bytes move.
    if (repeats) {
      frag = Filter(frag, [&](const Value* row) {
        for (int c = 0; c < atom.arity(); ++c) {
          for (int d = c + 1; d < atom.arity(); ++d) {
            if (atom.vars[c] == atom.vars[d] && row[c] != row[d]) {
              return false;
            }
          }
        }
        return true;
      });
    }
    out.fragment(s) = Dedup(Project(frag, cols));
  });
  return {std::move(out), std::move(vars)};
}

// Column positions in `haystack` of each entry of `needles`.
std::vector<int> PositionsOf(const std::vector<int>& needles,
                             const std::vector<int>& haystack) {
  std::vector<int> positions;
  for (int n : needles) {
    const auto it = std::find(haystack.begin(), haystack.end(), n);
    MPCQP_CHECK(it != haystack.end());
    positions.push_back(static_cast<int>(it - haystack.begin()));
  }
  return positions;
}

// Appends a globally-unique id column (local compute): row i of fragment
// s gets id (rows of fragments 0..s-1) + i, so ids count up in server
// order and every fragment is filled independently.
DistRelation AppendIds(Cluster& cluster, const DistRelation& rel) {
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  const int arity = rel.arity();
  const int p = rel.num_servers();
  std::vector<Value> first_id(static_cast<size_t>(p) + 1, 0);
  for (int s = 0; s < p; ++s) {
    first_id[s + 1] = first_id[s] + static_cast<Value>(rel.fragment(s).size());
  }
  DistRelation out(arity + 1, p);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    const Relation& frag = rel.fragment(s);
    if (frag.empty()) return;
    const Value* src = frag.data().data();
    Value* dst = out.fragment(s).ResizeRowsForOverwrite(frag.size());
    for (int64_t i = 0; i < frag.size(); ++i, src += arity) {
      dst = std::copy(src, src + arity, dst);
      *dst++ = first_id[s] + static_cast<Value>(i);
    }
  });
  return out;
}

// One involved atom's role in an extension step.
struct Proposer {
  int atom = 0;
  std::vector<int> shared_vars;   // Bound vars present in the atom.
  std::vector<int> prefix_keys;   // Their columns in the prefix relation.
  // Projection onto shared_vars + {var}: fragments, with key columns
  // 0..|shared|-1 and the new value last.
  DistRelation projection{0, 1};
  // Global distinct v-count when shared_vars is empty (a constant
  // per-prefix count).
  int64_t global_count = 0;
};

}  // namespace

BigJoinResult BigJoin(Cluster& cluster, const ConjunctiveQuery& q,
                      const std::vector<DistRelation>& atoms,
                      const BigJoinOptions& options) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  MPCQP_TRACE_SCOPE("bigjoin", "algorithm");
  const int rounds_before = cluster.cost_report().num_rounds();

  std::vector<int> order = options.var_order;
  if (order.empty()) {
    for (int v = 0; v < q.num_vars(); ++v) order.push_back(v);
  }
  MPCQP_CHECK_EQ(static_cast<int>(order.size()), q.num_vars());

  std::vector<DistRelation> rels;
  std::vector<std::vector<int>> rel_vars;
  {
    ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
    for (int j = 0; j < q.num_atoms(); ++j) {
      auto [rel, vars] = NormalizeAtom(cluster.pool(), q.atom(j), atoms[j]);
      rels.push_back(std::move(rel));
      rel_vars.push_back(std::move(vars));
    }
  }

  DistRelation prefixes(0, p);
  std::vector<int> bound;

  for (const int var : order) {
    std::vector<int> involved;
    for (int j = 0; j < q.num_atoms(); ++j) {
      if (std::find(rel_vars[j].begin(), rel_vars[j].end(), var) !=
          rel_vars[j].end()) {
        involved.push_back(j);
      }
    }
    MPCQP_CHECK(!involved.empty());

    // Build every involved atom's projection (shared bound vars + var).
    std::vector<Proposer> proposers;
    for (int j : involved) {
      Proposer proposer;
      proposer.atom = j;
      for (int v : bound) {
        if (std::find(rel_vars[j].begin(), rel_vars[j].end(), v) !=
            rel_vars[j].end()) {
          proposer.shared_vars.push_back(v);
        }
      }
      proposer.prefix_keys = PositionsOf(proposer.shared_vars, bound);
      std::vector<int> cols = PositionsOf(proposer.shared_vars, rel_vars[j]);
      cols.push_back(PositionsOf({var}, rel_vars[j]).front());
      proposer.projection =
          DistRelation(static_cast<int>(cols.size()), p);
      ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        proposer.projection.fragment(s) =
            Dedup(Project(rels[j].fragment(s), cols));
      });
      if (proposer.shared_vars.empty()) {
        // Constant per-prefix candidate count: the global distinct count
        // of v-values (a scalar a deployment piggybacks on its catalog;
        // not metered).
        proposer.global_count =
            ColumnDegrees(proposer.projection,
                          proposer.projection.arity() - 1, &cluster.pool())
                .Distinct();
      }
      proposers.push_back(std::move(proposer));
    }

    if (bound.empty()) {
      // Seed: the smallest atom's value set, deduplicated globally; then
      // filter by every other involved atom's value set.
      size_t best = 0;
      for (size_t i = 1; i < proposers.size(); ++i) {
        if (proposers[i].global_count < proposers[best].global_count) {
          best = i;
        }
      }
      const HashFunction hash = cluster.NewHashFunction();
      const DistRelation parts =
          HashPartition(cluster, proposers[best].projection, {0}, hash,
                        "bigjoin: seed " + q.var_name(var));
      DistRelation seeded(1, p);
      {
        ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
        cluster.pool().ParallelFor(p, [&](int64_t s) {
          seeded.fragment(s) = Dedup(parts.fragment(s));
        });
      }
      prefixes = std::move(seeded);
      bound.push_back(var);
      for (size_t i = 0; i < proposers.size(); ++i) {
        if (i == best) continue;
        prefixes = DistributedSemijoin(
            cluster, prefixes, proposers[i].projection, {0},
            {proposers[i].projection.arity() - 1});
      }
      continue;
    }

    // ---- Count round: annotate each prefix with every proposer's
    // candidate count. Prefixes carry an id; all co-partitions share one
    // MPC round. ----
    const DistRelation prefixes_with_id = AppendIds(cluster, prefixes);
    const int id_col = prefixes_with_id.arity() - 1;

    struct CountParts {
      DistRelation prefix_parts{0, 1};
      DistRelation proj_parts{0, 1};
    };
    std::vector<CountParts> count_parts(proposers.size());
    cluster.BeginRound("bigjoin: count " + q.var_name(var));
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (proposers[i].shared_vars.empty()) continue;
      const HashFunction hash = cluster.NewHashFunction();
      std::vector<int> proj_keys(proposers[i].shared_vars.size());
      for (size_t c = 0; c < proj_keys.size(); ++c) {
        proj_keys[c] = static_cast<int>(c);
      }
      count_parts[i].prefix_parts = HashPartition(
          cluster, prefixes_with_id, proposers[i].prefix_keys, hash, "");
      count_parts[i].proj_parts =
          HashPartition(cluster, proposers[i].projection, proj_keys, hash,
                        "");
    }
    cluster.EndRound();

    // Local counting, then one round to bring all counts to the prefix's
    // id-home where the argmin proposer is chosen.
    DistRelation count_tuples(3, p);  // (prefix id, proposer idx, count).
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (proposers[i].shared_vars.empty()) continue;
      std::vector<int> proj_keys(proposers[i].shared_vars.size());
      for (size_t c = 0; c < proj_keys.size(); ++c) {
        proj_keys[c] = static_cast<int>(c);
      }
      ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        MPCQP_TRACE_SCOPE_ARG("local count", "compute", s);
        const Relation& pf = count_parts[i].prefix_parts.fragment(s);
        if (pf.empty()) return;
        const Relation deduped = Dedup(count_parts[i].proj_parts.fragment(s));
        const KeyIndex index(deduped, proj_keys);
        const std::vector<int>& prefix_keys = proposers[i].prefix_keys;
        std::vector<Value>& out = count_tuples.fragment(s).Mutable();
        size_t at = out.size();
        out.resize(at + 3 * static_cast<size_t>(pf.size()));
        std::vector<Value> key(proj_keys.size());
        const Value* row = pf.data().data();
        for (int64_t r = 0; r < pf.size(); ++r, row += pf.arity()) {
          for (size_t c = 0; c < prefix_keys.size(); ++c) {
            key[c] = row[prefix_keys[c]];
          }
          out[at++] = row[id_col];
          out[at++] = static_cast<Value>(i);
          out[at++] = static_cast<Value>(index.Lookup(key.data()).size());
        }
      });
    }

    const HashFunction id_hash = cluster.NewHashFunction();
    cluster.BeginRound("bigjoin: argmin " + q.var_name(var));
    const DistRelation counts_home =
        HashPartition(cluster, count_tuples, {0}, id_hash, "");
    const DistRelation prefix_home =
        HashPartition(cluster, prefixes_with_id, {id_col}, id_hash, "");
    cluster.EndRound();

    // Choose the argmin proposer per prefix (constant-count proposers
    // compete with their global count).
    int64_t best_constant = -1;
    int constant_idx = -1;
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (proposers[i].shared_vars.empty() &&
          (constant_idx < 0 || proposers[i].global_count < best_constant)) {
        best_constant = proposers[i].global_count;
        constant_idx = static_cast<int>(i);
      }
    }
    DistRelation chosen(prefixes_with_id.arity() + 1, p);  // +choice col.
    {
      ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        // Per prefix id, the smallest count and, among equal counts, the
        // earliest count tuple: sort (id, count, row) triples and keep the
        // first of each id.
        const Relation& cf = counts_home.fragment(s);
        std::vector<std::array<Value, 3>> best(cf.size());
        const Value* c = cf.data().data();
        for (int64_t r = 0; r < cf.size(); ++r, c += 3) {
          best[r] = {c[0], c[2], static_cast<Value>(r)};
        }
        std::sort(best.begin(), best.end());
        best.erase(std::unique(best.begin(), best.end(),
                               [](const auto& a, const auto& b) {
                                 return a[0] == b[0];
                               }),
                   best.end());
        const Relation& pf = prefix_home.fragment(s);
        std::vector<Value> rows;
        rows.reserve(static_cast<size_t>(pf.size()) * chosen.arity());
        const Value* row = pf.data().data();
        for (int64_t r = 0; r < pf.size(); ++r, row += pf.arity()) {
          const Value id = row[id_col];
          int choice = constant_idx;
          int64_t count = best_constant;
          const auto it = std::lower_bound(
              best.begin(), best.end(), id,
              [](const std::array<Value, 3>& e, Value key) {
                return e[0] < key;
              });
          if (it != best.end() && (*it)[0] == id &&
              (choice < 0 || static_cast<int64_t>((*it)[1]) < count)) {
            choice = static_cast<int>(cf.at(static_cast<int64_t>((*it)[2]), 1));
            count = static_cast<int64_t>((*it)[1]);
          }
          MPCQP_CHECK_GE(choice, 0);
          if (count == 0) continue;  // No candidates anywhere: prefix dies.
          rows.insert(rows.end(), row, row + pf.arity());
          rows.push_back(static_cast<Value>(choice));
        }
        if (!rows.empty()) {
          chosen.fragment(s) = Relation(chosen.arity(), std::move(rows));
        }
      });
    }
    const int choice_col = chosen.arity() - 1;

    // ---- Extend round: each prefix travels to its chosen proposer's
    // shard; all shuffles share one MPC round. ----
    cluster.BeginRound("bigjoin: extend " + q.var_name(var));
    struct ExtendParts {
      DistRelation prefix_parts{0, 1};
      DistRelation proj_parts{0, 1};
      bool broadcast = false;
    };
    std::vector<ExtendParts> extend_parts(proposers.size());
    for (size_t i = 0; i < proposers.size(); ++i) {
      // Prefixes that chose proposer i (local filter).
      DistRelation mine(chosen.arity(), p);
      {
        ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
        cluster.pool().ParallelFor(p, [&](int64_t s) {
          mine.fragment(s) = Filter(chosen.fragment(s), [&](const Value* r) {
            return r[choice_col] == static_cast<Value>(i);
          });
        });
      }
      if (mine.TotalSize() == 0) continue;
      if (proposers[i].shared_vars.empty()) {
        extend_parts[i].broadcast = true;
        extend_parts[i].prefix_parts = mine;
        extend_parts[i].proj_parts =
            Broadcast(cluster, proposers[i].projection, "");
      } else {
        const HashFunction hash = cluster.NewHashFunction();
        std::vector<int> proj_keys(proposers[i].shared_vars.size());
        for (size_t c = 0; c < proj_keys.size(); ++c) {
          proj_keys[c] = static_cast<int>(c);
        }
        extend_parts[i].prefix_parts = HashPartition(
            cluster, mine, proposers[i].prefix_keys, hash, "");
        extend_parts[i].proj_parts = HashPartition(
            cluster, proposers[i].projection, proj_keys, hash, "");
      }
    }
    cluster.EndRound();

    DistRelation extended(static_cast<int>(bound.size()) + 1, p);
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (extend_parts[i].prefix_parts.arity() == 0) continue;
      std::vector<int> proj_keys(proposers[i].shared_vars.size());
      for (size_t c = 0; c < proj_keys.size(); ++c) {
        proj_keys[c] = static_cast<int>(c);
      }
      ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        MPCQP_TRACE_SCOPE_ARG("local extend", "compute", s);
        const Relation proj =
            Dedup(extend_parts[i].proj_parts.fragment(s));
        // Join emits prefix columns (incl. id & choice) + the new value;
        // strip the bookkeeping columns.
        const Relation joined = HashJoinLocal(
            extend_parts[i].prefix_parts.fragment(s), proj,
            proposers[i].prefix_keys, proj_keys);
        std::vector<int> keep;
        for (int c = 0; c < static_cast<int>(bound.size()); ++c) {
          keep.push_back(c);
        }
        keep.push_back(joined.arity() - 1);  // The new value.
        const Relation stripped = Project(joined, keep);
        extended.fragment(s).Append(stripped);
      });
    }
    bound.push_back(var);
    prefixes = std::move(extended);

    // ---- Filter rounds: every involved atom semijoin-reduces the
    // extended prefixes by its projection (sound even for the proposer;
    // cheap since it is a pure filter). ----
    for (size_t i = 0; i < proposers.size(); ++i) {
      std::vector<int> filter_vars = proposers[i].shared_vars;
      filter_vars.push_back(var);
      std::vector<int> proj_keys(filter_vars.size());
      for (size_t c = 0; c < proj_keys.size(); ++c) {
        proj_keys[c] = static_cast<int>(c);
      }
      prefixes = DistributedSemijoin(cluster, prefixes,
                                     proposers[i].projection,
                                     PositionsOf(filter_vars, bound),
                                     proj_keys);
    }
  }

  std::vector<int> cols(q.num_vars());
  for (int v = 0; v < q.num_vars(); ++v) {
    cols[v] = PositionsOf({v}, bound).front();
  }
  BigJoinResult result{DistRelation(q.num_vars(), p), 0};
  {
    ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      result.output.fragment(s) = Project(prefixes.fragment(s), cols);
    });
  }
  result.rounds = cluster.cost_report().num_rounds() - rounds_before;
  return result;
}

}  // namespace mpcqp
