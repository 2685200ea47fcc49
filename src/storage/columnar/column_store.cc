#include "storage/columnar/column_store.h"

#include <bit>
#include <cmath>

namespace bryql {

namespace {

/// The 64-bit payload stored for one value (0 for the payload-free ∅/⊥).
int64_t PayloadOf(const Value& v, ColumnStore::Column* col) {
  switch (v.kind()) {
    case ValueKind::kNull:
    case ValueKind::kMark:
      return 0;
    case ValueKind::kInt:
      return v.AsInt();
    case ValueKind::kDouble:
      return std::bit_cast<int64_t>(v.AsDouble());
    case ValueKind::kString: {
      const std::string& s = v.AsString();
      const uint32_t hash = SlotTable::Mix(v.Hash());
      const size_t at = col->dict_codes.Find(
          hash, [&](uint32_t code) { return col->dict[code] == s; });
      uint32_t code = col->dict_codes.RowAt(at);
      if (code == SlotTable::kNoRow) {
        code = static_cast<uint32_t>(col->dict.size());
        col->dict_codes.Place(at, hash, code);
        col->dict.push_back(s);
      }
      return code;
    }
  }
  return 0;
}

void UpdateZone(ZoneMap* zone, const Value& v) {
  if (zone->count == 0) {
    zone->min = v;
    zone->max = v;
    zone->kind = v.kind();
  } else {
    if (v < zone->min) zone->min = v;
    if (zone->max < v) zone->max = v;
    if (v.kind() != zone->kind) zone->uniform = false;
  }
  ++zone->count;
  if (v.is_null()) ++zone->nulls;
  if (v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble())) {
    zone->unordered = true;
  }
}

/// `*to = from`, with at least `from`'s capacity.
template <typename T>
void CopyWithCapacity(const std::vector<T>& from, std::vector<T>* to) {
  to->reserve(from.capacity());
  *to = from;
}

}  // namespace

ColumnStore::ColumnStore(const ColumnStore& other)
    : columns_(other.columns_.size()), rows_(other.rows_) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& from = other.columns_[c];
    Column& to = columns_[c];
    CopyWithCapacity(from.kinds, &to.kinds);
    CopyWithCapacity(from.data, &to.data);
    CopyWithCapacity(from.dict, &to.dict);
    to.dict_codes = from.dict_codes;
    CopyWithCapacity(from.zones, &to.zones);
  }
}

void ColumnStore::Append(std::span<const Value> row) {
  const size_t seg = rows_ / kSegmentRows;
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    const Value& v = row[c];
    if (seg == col.zones.size()) col.zones.emplace_back();
    col.kinds.push_back(static_cast<uint8_t>(v.kind()));
    col.data.push_back(PayloadOf(v, &col));
    UpdateZone(&col.zones[seg], v);
  }
  ++rows_;
}

Value ColumnStore::ValueAt(size_t column, size_t row) const {
  const Column& col = columns_[column];
  switch (static_cast<ValueKind>(col.kinds[row])) {
    case ValueKind::kNull:
      return Value::Null();
    case ValueKind::kMark:
      return Value::Mark();
    case ValueKind::kInt:
      return Value::Int(col.data[row]);
    case ValueKind::kDouble:
      return Value::Double(std::bit_cast<double>(col.data[row]));
    case ValueKind::kString:
      return Value::String(col.dict[static_cast<size_t>(col.data[row])]);
  }
  return Value::Null();
}

void ColumnStore::MaterializeRow(size_t row, Tuple* out) const {
  out->Clear();
  for (size_t c = 0; c < columns_.size(); ++c) {
    out->Append(ValueAt(c, row));
  }
}

}  // namespace bryql
