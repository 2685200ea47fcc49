#ifndef BRYQL_STORAGE_TUPLE_H_
#define BRYQL_STORAGE_TUPLE_H_

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "common/value.h"

namespace bryql {

/// Tuple::Hash()'s seed; hashing values in place (TupleTable) starts from
/// it too, so a key hashes alike whether or not it was copied out.
inline constexpr size_t kTupleHashSeed = 0x51ed270b;

/// The hash of a row of values, wherever they are stored: Tuple::Hash()
/// of a tuple holding them.
inline size_t HashValues(std::span<const Value> values) {
  size_t h = kTupleHashSeed;
  for (const Value& v : values) h = HashCombine(h, v.Hash());
  return h;
}

/// Renders "(v1, v2, ...)".
std::string ValuesToString(std::span<const Value> values);

/// A fixed-arity row of domain values. Tuples are plain value vectors:
/// column naming lives in Schema, positional access everywhere else, which
/// matches the paper's positional algebra (attributes 1..n).
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}
  explicit Tuple(std::span<const Value> values)
      : values_(values.begin(), values.end()) {}

  size_t arity() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  /// Appends a value; used by operators assembling wider tuples.
  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Empties the tuple but keeps its storage, so a warm slot can be
  /// rebuilt in place (a projection builds its row this way).
  void Clear() { values_.clear(); }

  /// Replaces the values with a copy of `values`, reusing the tuple's
  /// storage: a scan fills a warm batch slot from a stored row this way.
  void Assign(std::span<const Value> values) {
    values_.assign(values.begin(), values.end());
  }

  /// The concatenation (*this, other) — the building block of joins.
  Tuple Concat(const Tuple& other) const;

  /// The positional projection (values[indices[0]], ...). Indices may
  /// repeat or reorder.
  Tuple Project(const std::vector<size_t>& indices) const;

  /// Renders "(v1, v2, ...)".
  std::string ToString() const { return ValuesToString(values_); }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.values_ == b.values_;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return a.values_ < b.values_;
  }

  size_t Hash() const { return HashValues(values_); }

 private:
  std::vector<Value> values_;
};

/// A read-only view of a stored row: a relation's row in its arena. It
/// offers Tuple's read interface and converts to a Tuple copy, so
/// `for (const Tuple& t : relation.rows())` still compiles (copying each
/// row); code on a hot path reads the values in place instead.
class RowView {
 public:
  explicit RowView(std::span<const Value> values) : values_(values) {}

  size_t arity() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  std::span<const Value> values() const { return values_; }

  operator Tuple() const { return Tuple(values_); }

  std::string ToString() const { return ValuesToString(values_); }

  friend bool operator==(RowView a, RowView b) {
    return std::ranges::equal(a.values_, b.values_);
  }
  friend bool operator==(RowView a, const Tuple& b) {
    return std::ranges::equal(a.values_, b.values());
  }

 private:
  std::span<const Value> values_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_TUPLE_H_
