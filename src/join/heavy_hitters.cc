#include "join/heavy_hitters.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace mpcqp {

namespace {

// body(i) for i in [0, n), on `pool` when non-null.
void ForEachIndex(ThreadPool* pool, int64_t n,
                  const std::function<void(int64_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
    return;
  }
  for (int64_t i = 0; i < n; ++i) body(i);
}

}  // namespace

ColumnDegrees::ColumnDegrees(const DistRelation& rel, int col,
                             ThreadPool* pool)
    : local_(static_cast<size_t>(rel.num_servers())),
      max_local_(local_.size(), 0),
      pool_(pool) {
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, rel.arity());
  const int arity = rel.arity();
  ForEachIndex(pool_, rel.num_servers(), [&](int64_t s) {
    const Relation& frag = rel.fragment(static_cast<int>(s));
    const Value* cell = frag.data().data() + col;
    // Sized for all-distinct rows: one allocation, no rehash while counting.
    FlatCounter& counts = local_[s];
    counts.Reserve(frag.size());
    int64_t max_count = 0;
    for (int64_t i = 0; i < frag.size(); ++i, cell += arity) {
      max_count = std::max(max_count, counts.Add(*cell));
    }
    max_local_[s] = max_count;
  });
}

std::vector<HeavyHitter> ColumnDegrees::Heavy(int64_t threshold) const {
  const auto p = static_cast<int64_t>(local_.size());
  // Candidates: values some fragment holds more than threshold/p times.
  // Only fragments whose largest count clears that bar are scanned.
  std::vector<int> witnesses;
  for (int s = 0; s < p; ++s) {
    if (max_local_[s] * p > threshold) witnesses.push_back(s);
  }
  std::vector<std::vector<Value>> local_candidates(witnesses.size());
  ForEachIndex(pool_, static_cast<int64_t>(witnesses.size()), [&](int64_t w) {
    local_[witnesses[w]].ForEach([&](uint64_t value, int64_t count) {
      if (count * p > threshold) local_candidates[w].push_back(value);
    });
  });
  std::vector<Value> candidates;
  for (const std::vector<Value>& c : local_candidates) {
    candidates.insert(candidates.end(), c.begin(), c.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<HeavyHitter> totals(candidates.size());
  ForEachIndex(pool_, static_cast<int64_t>(candidates.size()),
               [&](int64_t i) {
                 totals[i] = {candidates[i], Count(candidates[i])};
               });
  std::vector<HeavyHitter> result;
  for (const HeavyHitter& h : totals) {
    if (h.count > threshold) result.push_back(h);
  }
  return result;
}

int64_t ColumnDegrees::Count(Value value) const {
  int64_t count = 0;
  for (const FlatCounter& counts : local_) count += counts.Get(value);
  return count;
}

int64_t ColumnDegrees::Distinct() const {
  if (local_.size() == 1) return local_[0].num_keys();
  int64_t upper = 0;
  for (const FlatCounter& counts : local_) upper += counts.num_keys();
  FlatCounter all(upper);
  for (const FlatCounter& counts : local_) {
    counts.ForEach([&](uint64_t value, int64_t) { all.Add(value, 0); });
  }
  return all.num_keys();
}

std::vector<HeavyHitter> FindHeavyHitters(const DistRelation& rel, int col,
                                          int64_t threshold,
                                          ThreadPool* pool) {
  return ColumnDegrees(rel, col, pool).Heavy(threshold);
}

}  // namespace mpcqp
