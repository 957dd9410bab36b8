#ifndef MPCQP_COMMON_PARALLEL_SORT_H_
#define MPCQP_COMMON_PARALLEL_SORT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace mpcqp {

// The local-compute sort kernel: parallel chunk-sort + k-way (pairwise
// tree) merge over a ThreadPool, falling back to plain std::sort for small
// inputs or single-threaded pools. The MPC cost model charges only
// communication, so local sorts are free to use every idle worker.
//
// Determinism contract: the kernel guarantees a sorted permutation of the
// input, deterministic for a fixed (input, comparator) pair — but the
// relative order of *distinct* items that compare equal may differ from
// std::sort's and may depend on the chunk layout. Callers that need
// thread-count-invariant bytes must use comparators under which ties are
// interchangeable (the row sorts below compare every column, so tied rows
// are byte-identical — the same argument Relation::SortRowsBy always
// relied on, since std::sort is itself unstable).

// Inputs below this size are sorted serially: chunk + merge overhead only
// pays for itself when there is real work to split.
inline constexpr int64_t kParallelSortMinItems = int64_t{1} << 14;

namespace parallel_sort_internal {

// Chunk boundaries for splitting [0, n) into `chunks` contiguous runs.
inline std::vector<int64_t> RunBounds(int64_t n, int64_t chunks) {
  std::vector<int64_t> bounds(static_cast<size_t>(chunks) + 1);
  for (int64_t c = 0; c <= chunks; ++c) bounds[c] = c * n / chunks;
  return bounds;
}

}  // namespace parallel_sort_internal

template <typename T, typename Less>
void ParallelSort(ThreadPool* pool, std::vector<T>& items, Less less) {
  const int64_t n = static_cast<int64_t>(items.size());
  if (pool == nullptr || pool->num_threads() <= 1 ||
      n < kParallelSortMinItems) {
    std::sort(items.begin(), items.end(), less);
    return;
  }

  // One run per pool thread: fewer runs means a shallower merge tree, and
  // the chunk sorts already saturate the pool.
  const int64_t chunks =
      std::min<int64_t>(pool->num_threads(), std::max<int64_t>(1, n / 2));
  std::vector<int64_t> bounds = parallel_sort_internal::RunBounds(n, chunks);

  {
    MPCQP_TRACE_SCOPE_ARG("sort chunks", "compute", chunks);
    pool->ParallelFor(chunks, [&](int64_t c) {
      std::sort(items.begin() + bounds[c], items.begin() + bounds[c + 1],
                less);
    });
  }

  // Pairwise merge passes, ping-ponging between the input and a scratch
  // buffer. std::merge takes from the first run on ties, so every pass is
  // deterministic for a fixed chunk layout.
  MPCQP_TRACE_SCOPE_ARG("sort merge", "compute", chunks);
  std::vector<T> scratch(items.size());
  T* src = items.data();
  T* dst = scratch.data();
  while (bounds.size() > 2) {
    const int64_t runs = static_cast<int64_t>(bounds.size()) - 1;
    const int64_t out_runs = (runs + 1) / 2;
    std::vector<int64_t> next(static_cast<size_t>(out_runs) + 1);
    for (int64_t i = 0; i < out_runs; ++i) next[i] = bounds[2 * i];
    next[out_runs] = bounds[runs];
    pool->ParallelFor(out_runs, [&](int64_t i) {
      const int64_t lo = bounds[2 * i];
      if (2 * i + 2 <= runs) {
        const int64_t mid = bounds[2 * i + 1];
        const int64_t hi = bounds[2 * i + 2];
        std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, less);
      } else {
        // Odd run out: carried over verbatim.
        std::copy(src + lo, src + bounds[2 * i + 1], dst + lo);
      }
    });
    std::swap(src, dst);
    bounds = std::move(next);
  }
  if (src != items.data()) {
    std::copy(src, src + n, items.data());
  }
}

// Sorts the flat row-major buffer of an arity-`arity` relation by
// `key_cols` then all columns (the Relation::SortRowsBy comparator) — the
// one row-sort kernel behind Relation::SortRows/SortRowsBy and Dedup.
// Arities 1–4 sort the rows themselves as fixed-width values; wider rows
// sort an index permutation and gather. Either way the parallel kernel
// runs the sort, and since the comparator reads every column, tied rows
// are byte-identical and the bytes are the same for every pool.
void SortRowsBuffer(ThreadPool* pool, int arity, std::vector<uint64_t>& data,
                    const std::vector<int>& key_cols);

}  // namespace mpcqp

#endif  // MPCQP_COMMON_PARALLEL_SORT_H_
