#ifndef BRYQL_STORAGE_COLUMNAR_COLUMN_STORE_H_
#define BRYQL_STORAGE_COLUMNAR_COLUMN_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/slot_table.h"
#include "common/value.h"
#include "storage/tuple.h"

namespace bryql {

/// Rows per column segment. Deliberately equal to kDefaultBatchSize and to
/// the morsel size (exec/physical/parallel.h): one segment is one batch is
/// one morsel, so a parallel worker's claim is always segment-aligned and
/// the vectorized kernels never straddle a segment boundary.
inline constexpr size_t kSegmentRows = 1024;

/// Per-segment statistics over one column, maintained incrementally on
/// Append. min/max use the engine's total Value order (kind-first, with
/// the int/double numeric exception), which is exactly the order
/// CompareValues evaluates predicates in — so bound-based pruning is sound
/// for any mix of kinds, including the internal ∅/⊥ symbols.
struct ZoneMap {
  uint32_t count = 0;
  /// Rows holding the ∅ symbol — powers IsNull/IsNotNull pruning.
  uint32_t nulls = 0;
  /// Smallest/largest value in the segment (valid when count > 0).
  Value min;
  Value max;
  /// All values in the segment share this kind — the precondition for the
  /// typed fast-path kernels. False once a second kind appears.
  bool uniform = true;
  ValueKind kind = ValueKind::kNull;
  /// A NaN double was appended. NaN is incomparable under the Value
  /// order, so min/max stop being sound bounds; pruning and all-match
  /// shortcuts are disabled for the segment (kernels fall back to
  /// row-at-a-time evaluation, which handles NaN like the row engine).
  bool unordered = false;
};

/// A column-major copy of a relation's rows: per-column arrays split into
/// fixed segments of kSegmentRows, with dictionary encoding for strings
/// and a ZoneMap per (column, segment).
///
/// Physical layout per column: a kind byte per row plus a 64-bit payload
/// per row — the integer itself, the double's bit pattern, a dictionary
/// code for strings, and 0 for ∅/⊥. The payload arrays are what the
/// vectorized predicate kernels (predicate_kernel.h) loop over.
///
/// The store is append-only and kept in lockstep with the owning
/// Relation's row vector (Relation::Insert appends here too), so row
/// position i means the same tuple in both representations — the
/// invariant the row/columnar differential suite pins.
class ColumnStore {
 public:
  explicit ColumnStore(size_t arity) : columns_(arity) {}
  /// A copy keeps the source's spare capacity in every per-row array, so
  /// the first Append into a copied store does not reallocate them whole.
  ColumnStore(const ColumnStore& other);
  ColumnStore& operator=(const ColumnStore&) = delete;

  /// Appends one row. The caller (Relation) guarantees the arity matches
  /// and the row is not a duplicate.
  void Append(std::span<const Value> row);

  size_t arity() const { return columns_.size(); }
  size_t rows() const { return rows_; }
  size_t segments() const {
    return (rows_ + kSegmentRows - 1) / kSegmentRows;
  }
  /// Rows in segment `seg` (the last segment may be partial).
  size_t SegmentSize(size_t seg) const {
    const size_t begin = seg * kSegmentRows;
    return rows_ < begin + kSegmentRows ? rows_ - begin : kSegmentRows;
  }

  const ZoneMap& zone(size_t column, size_t seg) const {
    return columns_[column].zones[seg];
  }

  /// One column's storage, exposed to the kernels.
  struct Column {
    /// ValueKind per row (uint8_t to keep the array dense).
    std::vector<uint8_t> kinds;
    /// Payload per row: int value, double bit pattern, dictionary code.
    std::vector<int64_t> data;
    /// String dictionary: code -> string, in first-appearance order.
    std::vector<std::string> dict;
    /// The codes of `dict`, by the hash of their string (Value::Hash).
    SlotTable dict_codes;
    std::vector<ZoneMap> zones;
  };
  const Column& column(size_t c) const { return columns_[c]; }

  /// Reconstructs the Value at (column, row).
  Value ValueAt(size_t column, size_t row) const;

  /// Rebuilds row `row` into `*out`, reusing the tuple's storage — the
  /// gather step that fills TupleBatch slots from a selection vector.
  void MaterializeRow(size_t row, Tuple* out) const;

 private:
  std::vector<Column> columns_;
  size_t rows_ = 0;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_COLUMNAR_COLUMN_STORE_H_
