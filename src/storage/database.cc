#include "storage/database.h"

namespace bryql {

void Database::Put(const std::string& name, Relation relation) {
  relations_.insert_or_assign(name, std::move(relation));
  ++version_;
}

Status Database::PutRows(const std::string& name, std::vector<Tuple> rows) {
  BRYQL_ASSIGN_OR_RETURN(Relation rel, Relation::FromRows(std::move(rows)));
  Put(name, std::move(rel));
  return Status::Ok();
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it != relations_.end()) return &it->second;
  if (name == "dom") {
    std::lock_guard<std::mutex> lock(domain_.mutex);
    if (domain_.version != version_) {
      domain_.relation = ActiveDomain();
      domain_.version = version_;
    }
    return &domain_.relation;
  }
  return Status::NotFound("no relation named '" + name + "'");
}

Result<size_t> Database::ArityOf(const std::string& name) const {
  BRYQL_ASSIGN_OR_RETURN(const Relation* rel, Get(name));
  return rel->arity();
}

Status Database::BuildIndex(const std::string& name, size_t column) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (column >= it->second.arity()) {
    return Status::InvalidArgument(
        "no column " + std::to_string(column) + " in relation '" + name +
        "' of arity " + std::to_string(it->second.arity()));
  }
  // An index changes the best access path, so plans prepared before it
  // must not be reused as-is.
  ++version_;
  return it->second.BuildIndex(column);
}

void Database::BuildAllIndexes() {
  ++version_;
  for (auto& [name, rel] : relations_) {
    for (size_t c = 0; c < rel.arity(); ++c) rel.BuildIndex(c);
  }
}

Status Database::EnableColumnar(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  it->second.BuildZoneMaps();
  return Status::Ok();
}

void Database::EnableColumnarAll() {
  for (auto& [name, rel] : relations_) {
    if (rel.zone_maps() == nullptr) rel.BuildZoneMaps();
  }
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

Relation Database::ActiveDomain() const {
  Relation dom(1);
  for (const auto& [name, rel] : relations_) {
    for (size_t r = 0; r < rel.size(); ++r) {
      for (const Value& v : rel.Row(r)) dom.Insert(std::span(&v, 1));
    }
  }
  return dom;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

}  // namespace bryql
