#include "algebra/predicate.h"

#include <algorithm>

namespace bryql {

bool CompareValues(CompareOp op, const Value& a, const Value& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

PredicatePtr Predicate::True() {
  return std::shared_ptr<Predicate>(new Predicate(Kind::kTrue));
}

PredicatePtr Predicate::ColCol(CompareOp op, size_t lhs, size_t rhs) {
  auto p = std::shared_ptr<Predicate>(new Predicate(Kind::kCompareColCol));
  p->op_ = op;
  p->lhs_ = lhs;
  p->rhs_col_ = rhs;
  return p;
}

PredicatePtr Predicate::ColVal(CompareOp op, size_t lhs, Value value) {
  auto p = std::shared_ptr<Predicate>(new Predicate(Kind::kCompareColVal));
  p->op_ = op;
  p->lhs_ = lhs;
  p->value_ = std::move(value);
  return p;
}

PredicatePtr Predicate::IsNull(size_t col) {
  auto p = std::shared_ptr<Predicate>(new Predicate(Kind::kIsNull));
  p->lhs_ = col;
  return p;
}

PredicatePtr Predicate::IsNotNull(size_t col) {
  auto p = std::shared_ptr<Predicate>(new Predicate(Kind::kIsNotNull));
  p->lhs_ = col;
  return p;
}

PredicatePtr Predicate::And(std::vector<PredicatePtr> children) {
  if (children.size() == 1) return children.front();
  auto p = std::shared_ptr<Predicate>(new Predicate(Kind::kAnd));
  p->children_ = std::move(children);
  return p;
}

PredicatePtr Predicate::Or(std::vector<PredicatePtr> children) {
  if (children.size() == 1) return children.front();
  auto p = std::shared_ptr<Predicate>(new Predicate(Kind::kOr));
  p->children_ = std::move(children);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr child) {
  auto p = std::shared_ptr<Predicate>(new Predicate(Kind::kNot));
  p->children_ = {std::move(child)};
  return p;
}

bool Predicate::Eval(std::span<const Value> row,
                     size_t* comparisons) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompareColCol:
      if (comparisons != nullptr) ++*comparisons;
      return CompareValues(op_, row[lhs_], row[rhs_col_]);
    case Kind::kCompareColVal:
      if (comparisons != nullptr) ++*comparisons;
      return CompareValues(op_, row[lhs_], value_);
    case Kind::kIsNull:
      return row[lhs_].is_null();
    case Kind::kIsNotNull:
      return !row[lhs_].is_null();
    case Kind::kAnd:
      for (const PredicatePtr& c : children_) {
        if (!c->Eval(row, comparisons)) return false;
      }
      return true;
    case Kind::kOr:
      for (const PredicatePtr& c : children_) {
        if (c->Eval(row, comparisons)) return true;
      }
      return false;
    case Kind::kNot:
      return !children_[0]->Eval(row, comparisons);
  }
  return false;
}

int Predicate::MaxColumn() const {
  switch (kind_) {
    case Kind::kTrue:
      return -1;
    case Kind::kCompareColCol:
      return static_cast<int>(std::max(lhs_, rhs_col_));
    case Kind::kCompareColVal:
    case Kind::kIsNull:
    case Kind::kIsNotNull:
      return static_cast<int>(lhs_);
    default: {
      int max_col = -1;
      for (const PredicatePtr& c : children_) {
        max_col = std::max(max_col, c->MaxColumn());
      }
      return max_col;
    }
  }
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompareColCol:
      return "$" + std::to_string(lhs_) + " " + CompareOpName(op_) + " $" +
             std::to_string(rhs_col_);
    case Kind::kCompareColVal:
      return "$" + std::to_string(lhs_) + " " + CompareOpName(op_) + " " +
             value_.ToString();
    case Kind::kIsNull:
      return "$" + std::to_string(lhs_) + " = ∅";
    case Kind::kIsNotNull:
      return "$" + std::to_string(lhs_) + " != ∅";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kNot:
      return "!(" + children_[0]->ToString() + ")";
  }
  return "?";
}

}  // namespace bryql
