#include "storage/relation.h"

#include <algorithm>
#include <cmath>

namespace bryql {
namespace {

bool IsNan(const Value& v) {
  return v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble());
}

bool HasNan(std::span<const Value> row) {
  return std::ranges::any_of(row, IsNan);
}

/// Row equality for set comparison: each value equal, or both NaN.
bool SameRow(std::span<const Value> x, std::span<const Value> y) {
  for (size_t i = 0; i < x.size(); ++i) {
    if (!(x[i] == y[i]) && !(IsNan(x[i]) && IsNan(y[i]))) return false;
  }
  return true;
}

}  // namespace

// The row table and the column indexes each keep the source's spare
// capacity when copied: a commit copies a relation and then inserts into
// the copy, and exactly sized arrays would be reallocated whole by the
// first Insert.
Relation::ColumnIndex::ColumnIndex(const ColumnIndex& other)
    : keys(other.keys) {
  lists.reserve(other.lists.capacity());
  lists = other.lists;
  positions.reserve(other.positions.capacity());
  positions = other.positions;
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

Result<bool> Relation::Insert(std::span<const Value> row) {
  if (row.size() != arity_) {
    return Status::InvalidArgument(
        "Insert: tuple arity " + std::to_string(row.size()) +
        " does not match relation arity " + std::to_string(arity_));
  }
  const size_t hash = HashValues(row);
  if (size() >= kMaxRows) {
    // Checked here, before the row table would throw.
    if (rows_.Contains(row, hash)) return false;
    return Status::ResourceExhausted(
        "Insert: relation already holds the maximum of " +
        std::to_string(kMaxRows) + " rows");
  }
  if (!rows_.Insert(row, hash)) return false;
  const uint32_t id = static_cast<uint32_t>(size() - 1);
  for (auto& [column, column_index] : column_indexes_) {
    IndexRow(&column_index, column, id);
  }
  if (zone_maps_) zone_maps_->Append(id, Row(id));
  return true;
}

void Relation::IndexRow(ColumnIndex* index, size_t column, uint32_t row) {
  const Value& value = Row(row)[column];
  const uint32_t hash = SlotTable::Mix(value.Hash());
  const size_t at = FindKey(*index, column, value, hash);
  const uint32_t key = index->keys.RowAt(at);
  std::vector<uint32_t>& arena = index->positions;
  if (key == SlotTable::kNoRow) {
    index->keys.Place(at, hash, static_cast<uint32_t>(index->lists.size()));
    index->lists.push_back({arena.size(), 1, row, 1});
    arena.push_back(row);
    return;
  }
  ColumnIndex::List& list = index->lists[key];
  if (list.count == list.cap) {
    if (list.begin + list.cap == arena.size()) {
      arena.resize(arena.size() + list.cap);  // the list ends the arena
    } else {
      const size_t begin = arena.size();
      arena.resize(begin + 2 * list.cap);
      std::copy_n(arena.begin() + list.begin, list.count,
                  arena.begin() + begin);
      list.begin = begin;
    }
    list.cap *= 2;
  }
  arena[list.begin + list.count++] = row;
}

void Relation::BuildZoneMaps() {
  zone_maps_.emplace(arity_);
  for (size_t r = 0; r < size(); ++r) zone_maps_->Append(r, Row(r));
}

Status Relation::BuildIndex(size_t column) {
  if (column >= arity_) {
    return Status::InvalidArgument(
        "BuildIndex: column " + std::to_string(column) +
        " out of range for arity " + std::to_string(arity_));
  }
  // A counting pass lays the lists out in key order: first the key of
  // each row and the size of each key, then the positions. Each list of
  // eight or more rows, and the arena, get an eighth more room than they
  // hold, so the next rows of an existing key (a commit's insert into a
  // copy of this relation) fill the list in place instead of moving it.
  ColumnIndex built;
  std::vector<uint32_t> key_of(size());
  for (size_t r = 0; r < size(); ++r) {
    const Value& value = Row(r)[column];
    const uint32_t hash = SlotTable::Mix(value.Hash());
    const size_t at = FindKey(built, column, value, hash);
    uint32_t key = built.keys.RowAt(at);
    if (key == SlotTable::kNoRow) {
      key = static_cast<uint32_t>(built.lists.size());
      built.keys.Place(at, hash, key);
      built.lists.push_back({0, 0, static_cast<uint32_t>(r), 0});
    }
    key_of[r] = key;
    ++built.lists[key].count;
  }
  size_t begin = 0;
  for (ColumnIndex::List& list : built.lists) {
    list.begin = begin;
    list.cap = list.count + list.count / 8;
    begin += list.cap;
    list.count = 0;
  }
  built.positions.reserve(begin + begin / 8);
  built.positions.resize(begin);
  for (size_t r = 0; r < size(); ++r) {
    ColumnIndex::List& list = built.lists[key_of[r]];
    built.positions[list.begin + list.count++] = static_cast<uint32_t>(r);
  }
  column_indexes_[column] = std::move(built);
  return Status::Ok();
}

std::span<const uint32_t> Relation::Matches(size_t column,
                                            const Value& value) const {
  auto it = column_indexes_.find(column);
  if (it == column_indexes_.end()) return {};
  const ColumnIndex& index = it->second;
  const uint32_t key = index.keys.RowAt(
      FindKey(index, column, value, SlotTable::Mix(value.Hash())));
  if (key == SlotTable::kNoRow) return {};
  const ColumnIndex::List& list = index.lists[key];
  return {index.positions.data() + list.begin, list.count};
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> sorted(rows_.rows().begin(), rows_.rows().end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.arity_ != b.arity_ || a.size() != b.size()) return false;
  // Contains never finds a row holding NaN (NaN equals nothing), and such
  // rows never dedup, so they are paired one to one instead, NaN with
  // NaN. Every other row of a must be a member of b; with the sizes
  // equal, that pairs the rest.
  std::vector<std::span<const Value>> unpaired;  // b's NaN rows
  for (size_t r = 0; r < b.size(); ++r) {
    if (HasNan(b.Row(r))) unpaired.push_back(b.Row(r));
  }
  for (size_t r = 0; r < a.size(); ++r) {
    const std::span<const Value> t = a.Row(r);
    if (!HasNan(t)) {
      if (!b.Contains(t)) return false;
      continue;
    }
    auto it = std::ranges::find_if(
        unpaired, [&t](std::span<const Value> u) { return SameRow(t, u); });
    if (it == unpaired.end()) return false;
    *it = unpaired.back();
    unpaired.pop_back();
  }
  return unpaired.empty();
}

std::string Relation::ToString() const {
  std::string out = "[";
  out += std::to_string(size());
  out += " tuples, arity ";
  out += std::to_string(arity_);
  out += "]\n";
  for (size_t r = 0; r < size(); ++r) {
    out += "  " + ValuesToString(Row(r)) + "\n";
  }
  return out;
}

}  // namespace bryql
