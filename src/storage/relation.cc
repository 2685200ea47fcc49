#include "storage/relation.h"

#include <algorithm>

namespace bryql {

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      slots_(other.slots_),
      column_indexes_(other.column_indexes_),
      columnar_(other.columnar_
                    ? std::make_unique<ColumnStore>(*other.columnar_)
                    : nullptr) {
  // Keep the source's spare capacity: a commit copies a relation and then
  // inserts into the copy, and an exactly sized copy would reallocate
  // its whole row vector on the first Insert.
  rows_.reserve(other.rows_.capacity());
  rows_ = other.rows_;
}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) *this = Relation(other);
  return *this;
}

Result<Relation> Relation::FromRows(std::vector<Tuple> rows) {
  if (rows.empty()) return Relation(0);
  Relation rel(rows.front().arity());
  for (Tuple& t : rows) {
    if (t.arity() != rel.arity()) {
      return Status::InvalidArgument(
          "FromRows: mixed arities " + std::to_string(rel.arity()) + " and " +
          std::to_string(t.arity()));
    }
    BRYQL_RETURN_NOT_OK(rel.Insert(std::move(t)).status());
  }
  return rel;
}

Result<bool> Relation::Insert(Tuple tuple) {
  if (tuple.arity() != arity_) {
    return Status::InvalidArgument(
        "Insert: tuple arity " + std::to_string(tuple.arity()) +
        " does not match relation arity " + std::to_string(arity_));
  }
  const uint32_t hash = MixHash(tuple);
  const size_t at = FindSlot(tuple, hash);
  if (slots_.RowAt(at) != SlotTable::kNoRow) return false;
  if (rows_.size() >= kMaxRows) {
    return Status::ResourceExhausted(
        "Insert: relation already holds the maximum of " +
        std::to_string(kMaxRows) + " rows");
  }
  slots_.Place(at, hash, static_cast<uint32_t>(rows_.size()));
  for (auto& [column, column_index] : column_indexes_) {
    column_index[tuple.at(column)].push_back(rows_.size());
  }
  if (columnar_) columnar_->Append(tuple);
  rows_.push_back(std::move(tuple));
  return true;
}

void Relation::BuildColumnStore() {
  columnar_ = std::make_unique<ColumnStore>(arity_);
  for (const Tuple& t : rows_) columnar_->Append(t);
}

Status Relation::BuildIndex(size_t column) {
  if (column >= arity_) {
    return Status::InvalidArgument(
        "BuildIndex: column " + std::to_string(column) +
        " out of range for arity " + std::to_string(arity_));
  }
  ColumnIndex built;
  for (size_t i = 0; i < rows_.size(); ++i) {
    built[rows_[i].at(column)].push_back(i);
  }
  column_indexes_[column] = std::move(built);
  return Status::Ok();
}

const std::vector<size_t>& Relation::Matches(size_t column,
                                             const Value& value) const {
  static const std::vector<size_t> kEmpty;
  auto it = column_indexes_.find(column);
  if (it == column_indexes_.end()) return kEmpty;
  auto vit = it->second.find(value);
  return vit == it->second.end() ? kEmpty : vit->second;
}

size_t Relation::IndexKeyCount(size_t column) const {
  auto it = column_indexes_.find(column);
  return it == column_indexes_.end() ? 0 : it->second.size();
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> sorted = rows_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.arity_ != b.arity_ || a.size() != b.size()) return false;
  for (const Tuple& t : a.rows_) {
    if (!b.Contains(t)) return false;
  }
  return true;
}

std::string Relation::ToString() const {
  std::string out = "[";
  out += std::to_string(size());
  out += " tuples, arity ";
  out += std::to_string(arity_);
  out += "]\n";
  for (const Tuple& t : rows_) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace bryql
