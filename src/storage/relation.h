#ifndef BRYQL_STORAGE_RELATION_H_
#define BRYQL_STORAGE_RELATION_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slot_table.h"
#include "common/status.h"
#include "storage/tuple.h"
#include "storage/tuple_table.h"
#include "storage/zone_map.h"

namespace bryql {

/// A relation under set semantics: a duplicate-free collection of tuples of
/// one arity. Insertion order is preserved for deterministic iteration and
/// readable test output; membership is hash-indexed.
///
/// The rows live in a set-mode TupleTable, the table the batched engine
/// hashes with: packed at arity stride in an arena of chunks of at most
/// 64 KB, row ids in insertion order, hash-indexed by a SlotTable of
/// 32-bit row ids. So copying a relation copies a few chunk arrays, and
/// freeing one frees them, with no heap block per row. A relation holds at
/// most 2^32 - 1 rows: the Insert that would exceed that fails with
/// kResourceExhausted.
///
/// The relational model of the paper is pure sets (domain calculus), so the
/// engine works with Relation everywhere — base tables and intermediate
/// results alike.
class Relation {
 public:
  /// An empty relation of the given arity. Arity 0 relations model the two
  /// boolean constants: {} is false, {()} is true.
  explicit Relation(size_t arity = 0) : arity_(arity) {}

  /// Copies are deep and self-contained (Database hands out copies of
  /// cached domains, a commit copies a relation and inserts into the
  /// copy); moves leave the source empty.
  Relation(const Relation& other) = default;
  Relation& operator=(const Relation& other);
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  /// Builds a relation from rows; duplicate rows collapse. All rows must
  /// have the same arity.
  static Result<Relation> FromRows(std::vector<Tuple> rows);

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return size() == 0; }

  /// Inserts a row; returns true when it was new. A row whose arity
  /// differs from the relation's is rejected with kInvalidArgument —
  /// never inserted, never asserted on — so malformed input cannot corrupt
  /// the row store. kResourceExhausted when a new row would take the
  /// relation past 2^32 - 1 rows.
  Result<bool> Insert(std::span<const Value> row);
  Result<bool> Insert(const Tuple& tuple) { return Insert(tuple.values()); }

  /// Whether an equal row is stored (compared in place in the arena).
  bool Contains(std::span<const Value> row) const {
    return row.size() == arity_ && rows_.Contains(row, HashValues(row));
  }
  bool Contains(const Tuple& tuple) const { return Contains(tuple.values()); }
  /// Whether the row (src[cols[0]], src[cols[1]], ...) is stored: Contains
  /// of that row, hashed and compared in place, so no key tuple is built.
  /// False when `cols` names another number of columns than the arity.
  bool ContainsKey(const Tuple& src, const std::vector<size_t>& cols) const {
    return cols.size() == arity_ && rows_.ContainsKey(src, cols);
  }

  /// The values of row `i` (insertion order), valid until the next
  /// Insert.
  std::span<const Value> Row(size_t i) const {
    return rows_.Row(static_cast<uint32_t>(i));
  }
  /// Rows in insertion order, as a random-access range of RowViews, valid
  /// until the next Insert.
  RowRange rows() const { return rows_.rows(); }

  /// Rows sorted by value — canonical order for comparisons in tests.
  std::vector<Tuple> SortedRows() const;

  /// Set equality (order-insensitive) under Value ==, except that NaN
  /// matches NaN here: a relation equals its copy even when it holds NaN
  /// rows, which pair one to one since they never dedup.
  friend bool operator==(const Relation& a, const Relation& b);
  friend bool operator!=(const Relation& a, const Relation& b) {
    return !(a == b);
  }

  /// Multi-line rendering, one tuple per line, in insertion order.
  std::string ToString() const;

  /// --- secondary hash indexes -------------------------------------
  /// A per-column hash index maps a value to the row positions holding
  /// it, in ascending order. Indexes are maintained incrementally by
  /// Insert. Both evaluation engines exploit them: the streaming executor
  /// turns σ_{col=val}(scan) into an index lookup, and the Figure 1
  /// interpreter enumerates atoms through the index of a bound argument.
  /// Keys are equal under Value ==: Int(2) and Double(2.0) are one key,
  /// and a NaN equals nothing, so each NaN row is a key of its own that
  /// no lookup finds.

  /// Builds (or rebuilds) the index on `column`; kInvalidArgument when
  /// `column` is out of range for this arity.
  Status BuildIndex(size_t column);
  bool HasIndex(size_t column) const {
    return column_indexes_.count(column) != 0;
  }
  /// Row positions whose `column` equals `value`, ascending. Empty when
  /// none match — or when no index exists on `column`, so callers that
  /// forgot BuildIndex degrade to "no index hits", not undefined
  /// behaviour. The span is valid until the next Insert into this
  /// relation.
  std::span<const uint32_t> Matches(size_t column, const Value& value) const;

  /// --- zone maps -------------------------------------------------
  /// Optional per-segment statistics over the rows (ZoneMaps: count,
  /// nulls, min, max per column and 1024-row segment), built on demand
  /// and then maintained by Insert. They let a scan skip a segment no row
  /// of which can match, or pass one every row of which matches, without
  /// reading it. They hold no copy of a row.

  /// Builds (or rebuilds) the zone maps from the current rows.
  void BuildZoneMaps();
  /// The zone maps, or nullptr when BuildZoneMaps was never called.
  const ZoneMaps* zone_maps() const {
    return zone_maps_ ? &*zone_maps_ : nullptr;
  }

 private:
  /// The index on one column. Key ids are found by value hash in `keys`;
  /// key id k holds the value of Row(lists[k].row)[column] and its
  /// row positions positions[begin, begin + count), ascending, in an
  /// arena shared by every key. BuildIndex lays the lists out with an
  /// eighth of headroom; a list that is full moves to the arena's end
  /// with twice its capacity (or grows in place when it already ends the
  /// arena), so the dead space it leaves behind is at most its live
  /// capacity. Copying an index copies three arrays.
  struct ColumnIndex {
    struct List {
      size_t begin = 0;
      size_t cap = 0;
      uint32_t row = 0;  // a row holding the key's value: its first
      uint32_t count = 0;
    };
    ColumnIndex() = default;
    /// Keeps the source's spare capacity, as the row table does.
    ColumnIndex(const ColumnIndex& other);
    ColumnIndex& operator=(const ColumnIndex&) = delete;
    ColumnIndex(ColumnIndex&&) = default;
    ColumnIndex& operator=(ColumnIndex&&) = default;

    SlotTable keys;
    std::vector<List> lists;  // by key id
    std::vector<uint32_t> positions;
  };

  /// The slot of `value`'s key in the index on `column`, or the free slot
  /// where it would go.
  size_t FindKey(const ColumnIndex& index, size_t column, const Value& value,
                 uint32_t hash) const {
    return index.keys.Find(hash, [&](uint32_t key) {
      return Row(index.lists[key].row)[column] == value;
    });
  }
  /// Files row `row` (the last of rows()) under its value in `*index`.
  void IndexRow(ColumnIndex* index, size_t column, uint32_t row);

  static constexpr size_t kMaxRows = SlotTable::kMaxRows;

  size_t arity_;
  /// The rows, a set in insertion order; row id == position in rows().
  TupleTable rows_;
  std::map<size_t, ColumnIndex> column_indexes_;
  std::optional<ZoneMaps> zone_maps_;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_RELATION_H_
