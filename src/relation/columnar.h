#ifndef MPCQP_RELATION_COLUMNAR_H_
#define MPCQP_RELATION_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relation/relation.h"
#include "relation/relation_view.h"

namespace mpcqp {

class ThreadPool;

// Which physical layout the hot local kernels (selections, semijoin
// probes, group-by scans) iterate over. Exchanges do not consult it: the
// route pass has one plan per key shape (see HashPartition). The layout
// NEVER changes results: every kernel produces bit-identical outputs,
// CostReports, and strategy choices for every mode — only the memory
// access pattern (and therefore wall time) differs. kAuto picks per
// kernel from arity heuristics (see UseColumnarScan below), which depend
// on data shape only, never on thread count or morsel size.
enum class LayoutMode {
  kRow = 0,       // Always stride over row-major payloads (the seed path).
  kColumnar = 1,  // Force the columnar kernels wherever one exists.
  kAuto = 2,      // Per-kernel arity heuristics (the default).
};

const char* LayoutModeName(LayoutMode mode);
// Parses "row" / "columnar" / "auto"; returns false on anything else.
bool ParseLayoutMode(const std::string& text, LayoutMode* out);

// ---- Layout heuristics (data-derived only; see LayoutMode) ----

// For scans (selection / group-by), kAuto goes columnar when the kernel
// reads at most this fraction of the row: arity >= kColumnarScanArityFactor
// * columns_read. Narrower rows are cheaper to stride over directly.
inline constexpr int kColumnarScanArityFactor = 3;

// True if a scan kernel reading `columns_read` of `arity` columns should
// compact those columns out of the wide rows before the hot loop.
bool UseColumnarScan(LayoutMode mode, int arity, int columns_read);

// ---- Shared key-gather helper ----
// The one strided gather loop: out[i] = row i's column `col`, for rows
// [begin, end) of a row-major buffer. Every kernel that still needs a
// row-major gather (exchange route, KeyIndex build, group-by scans) calls
// this instead of hand-rolling the stride arithmetic.
void GatherKeyColumn(const Value* base, int arity, int col, int64_t begin,
                     int64_t end, Value* out);
// View-aware variant: honors the view's selection vector, if any.
void GatherKeyColumn(RelationView view, int col, int64_t begin, int64_t end,
                     Value* out);

// A relation stored column-major: one flat buffer where column c occupies
// [c * rows, (c + 1) * rows). The contiguous columns are what make the
// hot kernels vectorizable — HashMany/BucketMany over column(key), tight
// predicate loops for selections, and group-by scans that never touch
// non-grouping columns.
//
// Copies are copy-on-write with exactly Relation's semantics: handles
// share an immutable payload, Mutable() detaches (cloning only if another
// handle still shares), and SharesPayloadWith is the diagnostic hook.
// The row count is fixed at construction/transpose time — columnar
// storage is a scan-optimized snapshot, not an append target; build
// row-major, transpose, scan.
class ColumnarRelation {
 public:
  ColumnarRelation() : arity_(0) {}
  explicit ColumnarRelation(int arity);

  // Transposes a row-major relation. With a pool, the transpose tiles
  // rows into morsels of `morsel_rows` (<= 0 means one morsel) and runs
  // work-stealing parallel; the output bytes are identical for every
  // (pool, morsel_rows) since morsels write disjoint row ranges. Callers
  // on a metered path time this under Phase::kTranspose.
  static ColumnarRelation FromRowMajor(const Relation& rel,
                                       ThreadPool* pool = nullptr,
                                       int64_t morsel_rows = 0);

  // Inverse transpose, same parallelism and determinism contract.
  Relation ToRowMajor(ThreadPool* pool = nullptr,
                      int64_t morsel_rows = 0) const;

  int arity() const { return arity_; }
  int64_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  // Pointer to column `col`: size() contiguous values. Invalid for
  // nullary or empty relations.
  const Value* column(int col) const;

  Value at(int64_t row, int col) const;

  // Explicit COW detach: clones the payload if shared, returns the
  // now-private flat column-major buffer for in-place mutation (e.g.
  // rewriting one column). The shape (arity, rows) is unchanged.
  std::vector<Value>& Mutable();

  bool SharesPayloadWith(const ColumnarRelation& other) const {
    return payload_ != nullptr && payload_ == other.payload_;
  }

  // Exact equality: same arity, same rows in the same order.
  friend bool operator==(const ColumnarRelation& a, const ColumnarRelation& b);

 private:
  struct Payload {
    std::vector<Value> data;  // Column-major; column c at [c*rows, (c+1)*rows).
  };

  int arity_;
  int64_t rows_ = 0;
  std::shared_ptr<Payload> payload_;
};

}  // namespace mpcqp

#endif  // MPCQP_RELATION_COLUMNAR_H_
