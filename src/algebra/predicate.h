#ifndef BRYQL_ALGEBRA_PREDICATE_H_
#define BRYQL_ALGEBRA_PREDICATE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "calculus/formula.h"  // for CompareOp
#include "common/value.h"
#include "storage/tuple.h"

namespace bryql {

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// A boolean condition over one tuple, used by selections and as the
/// residual/constraint conditions of joins. Columns are positional, as in
/// the paper's algebra (attributes 1..n; we index from 0).
class Predicate {
 public:
  enum class Kind {
    kTrue,
    kCompareColCol,  // tuple[lhs] op tuple[rhs_col]
    kCompareColVal,  // tuple[lhs] op value
    kIsNull,         // tuple[lhs] = ∅   (Definition 7 constraints)
    kIsNotNull,      // tuple[lhs] ≠ ∅
    kAnd,
    kOr,
    kNot,
  };

  static PredicatePtr True();
  static PredicatePtr ColCol(CompareOp op, size_t lhs, size_t rhs);
  static PredicatePtr ColVal(CompareOp op, size_t lhs, Value value);
  static PredicatePtr IsNull(size_t col);
  static PredicatePtr IsNotNull(size_t col);
  static PredicatePtr And(std::vector<PredicatePtr> children);
  static PredicatePtr Or(std::vector<PredicatePtr> children);
  static PredicatePtr Not(PredicatePtr child);

  Kind kind() const { return kind_; }
  size_t lhs() const { return lhs_; }
  size_t rhs_col() const { return rhs_col_; }
  const Value& value() const { return value_; }
  CompareOp op() const { return op_; }
  const std::vector<PredicatePtr>& children() const { return children_; }

  /// Evaluates against `row`, in place: a stored row is read where it
  /// lies (Relation::Row). `comparisons`, when non-null, is incremented
  /// once per value comparison performed — the cost metric the paper
  /// argues about.
  bool Eval(std::span<const Value> row, size_t* comparisons) const;
  bool Eval(const Tuple& tuple, size_t* comparisons) const {
    return Eval(std::span<const Value>(tuple.values()), comparisons);
  }

  /// Largest column index referenced, or -1 when none (kTrue).
  int MaxColumn() const;

  /// Renders e.g. "($0 = 'db' & $2 != ∅)".
  std::string ToString() const;

 private:
  explicit Predicate(Kind kind) : kind_(kind) {}

  Kind kind_;
  size_t lhs_ = 0;
  size_t rhs_col_ = 0;
  Value value_;
  CompareOp op_ = CompareOp::kEq;
  std::vector<PredicatePtr> children_;
};

/// Applies `op` to two values, counting one comparison.
bool CompareValues(CompareOp op, const Value& a, const Value& b);

}  // namespace bryql

#endif  // BRYQL_ALGEBRA_PREDICATE_H_
