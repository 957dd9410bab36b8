#include "common/parallel_sort.h"

#include <array>
#include <cstring>
#include <numeric>

namespace mpcqp {

namespace {

// Width-K rows as values: the sort moves K-word rows directly, with no
// index permutation to chase and no gather pass afterwards.
template <int K>
void SortFixedWidthRows(ThreadPool* pool, std::vector<uint64_t>& data,
                        const std::vector<int>& key_cols) {
  using Row = std::array<uint64_t, K>;
  static_assert(sizeof(Row) == K * sizeof(uint64_t), "rows must be packed");
  std::vector<Row> rows(data.size() / K);
  std::memcpy(rows.data(), data.data(), data.size() * sizeof(uint64_t));
  const auto all_columns = [](const Row& a, const Row& b) {
    for (int c = 0; c < K; ++c) {
      if (a[c] != b[c]) return a[c] < b[c];
    }
    return false;
  };
  if (key_cols.empty()) {
    ParallelSort(pool, rows, all_columns);
  } else {
    ParallelSort(pool, rows, [&](const Row& a, const Row& b) {
      for (int c : key_cols) {
        if (a[c] != b[c]) return a[c] < b[c];
      }
      return all_columns(a, b);
    });
  }
  std::memcpy(data.data(), rows.data(), data.size() * sizeof(uint64_t));
}

// Any width: sorts an index permutation, then gathers the rows.
void SortRowsByPermutation(ThreadPool* pool, int arity,
                           std::vector<uint64_t>& data,
                           const std::vector<int>& key_cols) {
  const int64_t n = static_cast<int64_t>(data.size()) / arity;
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const uint64_t* rows = data.data();
  ParallelSort(pool, order, [&](int64_t a, int64_t b) {
    const uint64_t* ra = rows + static_cast<size_t>(a) * arity;
    const uint64_t* rb = rows + static_cast<size_t>(b) * arity;
    for (int c : key_cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    for (int c = 0; c < arity; ++c) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  });

  std::vector<uint64_t> sorted(data.size());
  const auto gather = [&](int64_t begin, int64_t end) {
    uint64_t* out = sorted.data() + static_cast<size_t>(begin) * arity;
    for (int64_t i = begin; i < end; ++i) {
      const uint64_t* r = rows + static_cast<size_t>(order[i]) * arity;
      out = std::copy(r, r + arity, out);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 &&
      n >= kParallelSortMinItems) {
    const int64_t chunks = pool->num_threads();
    const std::vector<int64_t> bounds =
        parallel_sort_internal::RunBounds(n, chunks);
    pool->ParallelFor(chunks,
                      [&](int64_t c) { gather(bounds[c], bounds[c + 1]); });
  } else {
    gather(0, n);
  }
  data = std::move(sorted);
}

}  // namespace

void SortRowsBuffer(ThreadPool* pool, int arity, std::vector<uint64_t>& data,
                    const std::vector<int>& key_cols) {
  const int64_t n = static_cast<int64_t>(data.size()) / arity;
  if (n <= 1) return;
  MPCQP_TRACE_SCOPE_ARG("sort_rows", "compute", n);
  switch (arity) {
    case 1:
      return SortFixedWidthRows<1>(pool, data, key_cols);
    case 2:
      return SortFixedWidthRows<2>(pool, data, key_cols);
    case 3:
      return SortFixedWidthRows<3>(pool, data, key_cols);
    case 4:
      return SortFixedWidthRows<4>(pool, data, key_cols);
    default:
      return SortRowsByPermutation(pool, arity, data, key_cols);
  }
}

}  // namespace mpcqp
