#include "storage/tuple.h"

namespace bryql {

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> values = values_;
  values.insert(values.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(values));
}

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  std::vector<Value> values;
  values.reserve(indices.size());
  for (size_t i : indices) values.push_back(values_[i]);
  return Tuple(std::move(values));
}

std::string ValuesToString(std::span<const Value> values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace bryql
