#ifndef BRYQL_STORAGE_TUPLE_TABLE_H_
#define BRYQL_STORAGE_TUPLE_TABLE_H_

#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/hash_util.h"
#include "common/slot_table.h"
#include "common/value.h"
#include "storage/tuple.h"

namespace bryql {

class TupleTable;

/// The rows of a TupleTable in row-id order, as a random-access range of
/// RowViews. Valid until the table next changes.
class RowRange {
 public:
  class iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    // Its reference is a RowView by value, so as a classic iterator it is
    // only an input iterator.
    using iterator_category = std::input_iterator_tag;
    using value_type = RowView;
    using reference = RowView;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const TupleTable* table, size_t row) : table_(table), row_(row) {}

    inline RowView operator*() const;
    RowView operator[](difference_type n) const { return *(*this + n); }

    iterator& operator++() { ++row_; return *this; }
    iterator operator++(int) { iterator old = *this; ++row_; return old; }
    iterator& operator--() { --row_; return *this; }
    iterator operator--(int) { iterator old = *this; --row_; return old; }
    iterator& operator+=(difference_type n) { row_ += n; return *this; }
    iterator& operator-=(difference_type n) { row_ -= n; return *this; }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(iterator a, iterator b) {
      return static_cast<difference_type>(a.row_) -
             static_cast<difference_type>(b.row_);
    }
    friend bool operator==(iterator a, iterator b) { return a.row_ == b.row_; }
    friend auto operator<=>(iterator a, iterator b) {
      return a.row_ <=> b.row_;
    }

   private:
    const TupleTable* table_ = nullptr;
    size_t row_ = 0;
  };

  RowRange(const TupleTable* table, size_t size)
      : table_(table), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  iterator begin() const { return {table_, 0}; }
  iterator end() const { return {table_, size_}; }
  RowView operator[](size_t i) const { return begin()[i]; }
  RowView front() const { return (*this)[0]; }

 private:
  const TupleTable* table_;
  size_t size_;
};

/// One table of rows, in three uses:
///   * a stored relation's rows (Relation): a set, in insertion order;
///   * the batched engine's key sets and seen-sets: a set of rows;
///   * the engine's join builds: a multimap from the key columns of each
///     row to the rows (Add, Find, Next).
///
/// Rows are stored once, packed at `arity` values per row in an arena of
/// chunks, so a row costs no heap node and no separate key copy; copying
/// a table copies a few chunk arrays. Each chunk holds a power-of-two
/// number of rows in at most 64 KB, below glibc's 128 KB mmap threshold:
/// one big buffer would be unmapped when it is freed and its pages
/// faulted in again by the next table. A SlotTable indexes the rows by
/// the 32-bit mix of the key hash.
///
/// Keys are hashed and compared in place: from the key columns of a
/// stored row, and from the named columns of the caller's row, so no key
/// tuple is ever built. Rows of equal key are chained in a per-row `next`
/// array that is circular and ascending in row id (which is build order):
/// the slot names the chain's last row, whose `next` is the first, and
/// Next() ends the walk where `next` stops ascending. So partners come
/// out in build order, and appending to a chain is O(1).
///
/// Equality is Value ==, as in std::unordered_set<Tuple>: Int(3) and
/// Double(3.0) are one key, a key holding NaN equals nothing (not even
/// itself) so it never matches and never dedups, and ∅ and ⊥ equal only
/// themselves. The arity is that of the first row stored since
/// construction or Clear(); every later row must have it.
class TupleTable {
 public:
  static constexpr uint32_t kNoRow = SlotTable::kNoRow;

  /// A set of whole rows.
  TupleTable() = default;
  /// A multimap keyed on the values at `key_columns` of each row.
  explicit TupleTable(std::vector<size_t> key_columns)
      : key_columns_(std::move(key_columns)), chained_(true) {}

  /// A copy keeps the source's spare capacity in its last chunk, so the
  /// first row added to a copy does not reallocate that chunk.
  TupleTable(const TupleTable& other)
      : key_columns_(other.key_columns_), chained_(other.chained_),
        arity_(other.arity_), rows_(other.rows_),
        chunk_shift_(other.chunk_shift_), next_(other.next_),
        slots_(other.slots_) {
    chunks_.reserve(other.chunks_.capacity());
    for (const std::vector<Value>& chunk : other.chunks_) {
      chunks_.emplace_back().reserve(chunk.capacity());
      chunks_.back() = chunk;
    }
  }
  TupleTable& operator=(const TupleTable& other) {
    if (this != &other) *this = TupleTable(other);
    return *this;
  }
  /// A moved-from table is empty.
  TupleTable(TupleTable&& other) noexcept { *this = std::move(other); }
  TupleTable& operator=(TupleTable&& other) noexcept {
    if (this == &other) return *this;
    key_columns_ = std::move(other.key_columns_);
    chained_ = other.chained_;
    arity_ = other.arity_;
    rows_ = std::exchange(other.rows_, 0);
    chunk_shift_ = other.chunk_shift_;
    chunks_ = std::move(other.chunks_);
    other.chunks_.clear();
    next_ = std::move(other.next_);
    other.next_.clear();
    slots_ = std::move(other.slots_);
    return *this;
  }

  /// The hash of (src[cols[0]], src[cols[1]], ...): Tuple::Hash() of that
  /// projection, computed without building it.
  static size_t KeyHash(const Tuple& src, const std::vector<size_t>& cols) {
    size_t h = kTupleHashSeed;
    for (size_t c : cols) h = HashCombine(h, src.at(c).Hash());
    return h;
  }

  size_t size() const { return rows_; }

  /// The values of stored row `row`.
  std::span<const Value> Row(uint32_t row) const {
    return {RowData(row), arity_};
  }
  /// Every stored row, in row-id order.
  RowRange rows() const { return {this, rows_}; }

  /// --- sets -------------------------------------------------------

  /// Stores `row` unless an equal row is stored; true when stored.
  bool Insert(const Tuple& row) { return Insert(row.values(), row.Hash()); }
  /// Insert with `hash` == HashValues(row) already computed.
  bool Insert(std::span<const Value> row, size_t hash) {
    return InsertWith(row.size(), hash,
                      [&](size_t j) -> const Value& { return row[j]; });
  }

  /// Whether a row equal to `row` is stored; `hash` == HashValues(row).
  /// `row` must have the stored rows' arity (or the table be empty).
  bool Contains(std::span<const Value> row, size_t hash) const {
    return LookupWith(row.size(), hash, [&](size_t j) -> const Value& {
             return row[j];
           }) != kNoRow;
  }

  /// Stores (src[cols[0]], ...) unless an equal row is stored; true when
  /// stored.
  bool InsertKey(const Tuple& src, const std::vector<size_t>& cols) {
    return InsertKey(src, cols, KeyHash(src, cols));
  }
  /// InsertKey with `hash` == KeyHash(src, cols) already computed.
  bool InsertKey(const Tuple& src, const std::vector<size_t>& cols,
                 size_t hash) {
    return InsertWith(cols.size(), hash, [&](size_t j) -> const Value& {
      return src.at(cols[j]);
    });
  }

  /// Whether a stored row equals (src[cols[0]], ...).
  bool ContainsKey(const Tuple& src, const std::vector<size_t>& cols) const {
    return ContainsKey(src, cols, KeyHash(src, cols));
  }
  bool ContainsKey(const Tuple& src, const std::vector<size_t>& cols,
                   size_t hash) const {
    return Lookup(src, cols, hash) != kNoRow;
  }

  /// --- multimaps --------------------------------------------------

  /// Stores `row` behind every stored row of equal key.
  void Add(const Tuple& row) { Add(row, KeyHash(row, key_columns_)); }
  /// Add with `key_hash` == KeyHash(row, key_columns) already computed.
  void Add(const Tuple& row, size_t key_hash) {
    assert(chained_);
    const uint32_t hash = SlotTable::Mix(key_hash);
    const auto key_at = [&](size_t j) -> const Value& {
      return row.at(key_columns_[j]);
    };
    const size_t at = slots_.Find(hash, [&](uint32_t stored) {
      return KeyEquals(stored, key_columns_.size(), key_at);
    });
    const uint32_t id = NewRowId(row.arity());
    std::vector<Value>* chunk = ChunkForNewRow();
    chunk->insert(chunk->end(), row.values().begin(), row.values().end());
    const uint32_t last = slots_.RowAt(at);
    if (last == kNoRow) {
      next_.push_back(id);  // a chain of one
      slots_.Place(at, hash, id);
    } else {
      next_.push_back(next_[last]);  // the new last row points at the first
      next_[last] = id;
      slots_.Repoint(at, id);
    }
    ++rows_;
  }

  /// The first row (in build order) whose key equals (src[cols[0]], ...),
  /// or kNoRow. `cols` pairs with the table's key columns.
  uint32_t Find(const Tuple& src, const std::vector<size_t>& cols) const {
    return Find(src, cols, KeyHash(src, cols));
  }
  uint32_t Find(const Tuple& src, const std::vector<size_t>& cols,
                size_t hash) const {
    assert(chained_);
    const uint32_t last = Lookup(src, cols, hash);
    return last == kNoRow ? kNoRow : next_[last];
  }

  /// The row after `row` among the rows of its key, or kNoRow.
  uint32_t Next(uint32_t row) const {
    const uint32_t next = next_[row];
    return next > row ? next : kNoRow;
  }

  /// Forgets every row; the slot array keeps its size for reuse.
  void Clear() {
    chunks_.clear();
    next_.clear();
    slots_.Clear();
    rows_ = 0;
    arity_ = 0;
  }

 private:
  /// Whether stored row `row`'s key equals (at(0), ..., at(width - 1)).
  template <typename At>
  bool KeyEquals(uint32_t row, size_t width, const At& at) const {
    const Value* stored = RowData(row);
    for (size_t j = 0; j < width; ++j) {
      const Value& v = chained_ ? stored[key_columns_[j]] : stored[j];
      if (!(v == at(j))) return false;
    }
    return true;
  }

  /// The stored row whose key is (at(0), ..., at(width - 1)) — for a
  /// multimap, the last row of its chain — or kNoRow.
  template <typename At>
  uint32_t LookupWith(size_t width, size_t hash, const At& at) const {
    return slots_.RowAt(slots_.Find(SlotTable::Mix(hash), [&](uint32_t row) {
      return KeyEquals(row, width, at);
    }));
  }
  /// LookupWith the key (src[cols[0]], ...).
  uint32_t Lookup(const Tuple& src, const std::vector<size_t>& cols,
                  size_t hash) const {
    return LookupWith(cols.size(), hash, [&](size_t j) -> const Value& {
      return src.at(cols[j]);
    });
  }

  template <typename At>
  bool InsertWith(size_t width, size_t key_hash, const At& at) {
    assert(!chained_);
    const uint32_t hash = SlotTable::Mix(key_hash);
    const size_t slot = slots_.Find(
        hash, [&](uint32_t row) { return KeyEquals(row, width, at); });
    if (slots_.RowAt(slot) != kNoRow) return false;
    const uint32_t id = NewRowId(width);
    std::vector<Value>* chunk = ChunkForNewRow();
    for (size_t j = 0; j < width; ++j) chunk->push_back(at(j));
    slots_.Place(slot, hash, id);
    ++rows_;
    return true;
  }

  /// The id the next row of `arity` values gets; the caller stores the
  /// values, indexes the row and counts it. Throws std::length_error past
  /// SlotTable::kMaxRows rows, which the operator barrier reports as a
  /// contained failure (Relation checks the limit before it gets here).
  uint32_t NewRowId(size_t arity) {
    if (rows_ == 0) {
      // Rows per chunk: the most that fit kChunkBytes, a power of two;
      // rows without values all share one (empty) chunk.
      arity_ = arity;
      chunk_shift_ = arity == 0 ? 31 : 0;
      while (arity != 0 &&
             (arity << (chunk_shift_ + 1)) * sizeof(Value) <= kChunkBytes) {
        ++chunk_shift_;
      }
    }
    assert(arity == arity_);
    if (rows_ >= SlotTable::kMaxRows) {
      throw std::length_error("hash table holds 2^32 - 1 rows");
    }
    return static_cast<uint32_t>(rows_);
  }

  static constexpr size_t kChunkBytes = 64 * 1024;

  const Value* RowData(uint32_t row) const {
    if (arity_ == 0) return nullptr;
    const size_t in_chunk = row & ((size_t{1} << chunk_shift_) - 1);
    return chunks_[row >> chunk_shift_].data() + in_chunk * arity_;
  }

  /// The chunk the next row's values go to: the last one, or a new one
  /// when it is full. The first chunk grows as a vector does, so a small
  /// table allocates little; later ones are allocated whole, once.
  std::vector<Value>* ChunkForNewRow() {
    if ((rows_ & ((size_t{1} << chunk_shift_) - 1)) == 0) {
      chunks_.emplace_back();
      if (chunks_.size() > 1) chunks_.back().reserve(arity_ << chunk_shift_);
    }
    return &chunks_.back();
  }

  std::vector<size_t> key_columns_;  // multimap only
  bool chained_ = false;             // multimap
  size_t arity_ = 0;
  size_t rows_ = 0;
  /// Chunk c holds rows c * 2^chunk_shift_ up to (c + 1) * 2^chunk_shift_,
  /// row-major.
  size_t chunk_shift_ = 0;
  std::vector<std::vector<Value>> chunks_;
  std::vector<uint32_t> next_;  // multimap: the chain successor of each row
  SlotTable slots_;
};

inline RowView RowRange::iterator::operator*() const {
  return RowView(table_->Row(static_cast<uint32_t>(row_)));
}

}  // namespace bryql

// A RowRange's iterators point into the table, not into the range.
template <>
inline constexpr bool std::ranges::enable_borrowed_range<bryql::RowRange> =
    true;

#endif  // BRYQL_STORAGE_TUPLE_TABLE_H_
