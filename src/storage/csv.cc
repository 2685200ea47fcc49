#include "storage/csv.h"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "storage/database.h"

namespace bryql {

namespace {

/// Classifies one trimmed CSV cell.
Value ParseCell(std::string_view cell) {
  if (cell.size() >= 2 && cell.front() == '\'' && cell.back() == '\'') {
    return Value::String(std::string(cell.substr(1, cell.size() - 2)));
  }
  if (!cell.empty()) {
    char* end = nullptr;
    std::string owned(cell);
    long long as_int = std::strtoll(owned.c_str(), &end, 10);
    if (end == owned.c_str() + owned.size()) return Value::Int(as_int);
    double as_double = std::strtod(owned.c_str(), &end);
    if (end == owned.c_str() + owned.size()) return Value::Double(as_double);
  }
  return Value::String(std::string(cell));
}

/// The shortest text that reads back as the same double. It keeps a '.'
/// or an exponent (or is inf/nan), so ParseCell reads it as a double, not
/// an int: 3.0 is written "3.0", -0.0 "-0.0".
std::string DoubleCell(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;  // 64 bytes hold any shortest double
  std::string text(buffer, end);
  if (text.find_first_of(".eEn") == std::string::npos) text += ".0";
  return text;
}

}  // namespace

Result<Relation> RelationFromCsv(std::string_view text) {
  std::vector<Tuple> rows;
  size_t line_number = 0;
  size_t arity = 0;
  size_t arity_line = 0;
  for (const std::string& line_raw : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(line_raw);
    if (line.empty() || line.front() == '#') continue;
    std::vector<std::string> cells = Split(line, ',');
    if (rows.empty()) {
      arity = cells.size();
      arity_line = line_number;
    } else if (cells.size() != arity) {
      // Ragged input is a data error the caller must see located: report
      // the offending line, not just the arity clash FromRows would give.
      return Status::InvalidArgument(
          "CSV line " + std::to_string(line_number) + ": expected " +
          std::to_string(arity) + " fields (as on line " +
          std::to_string(arity_line) + "), got " +
          std::to_string(cells.size()));
    }
    std::vector<Value> values;
    values.reserve(cells.size());
    for (const std::string& cell : cells) values.push_back(ParseCell(Trim(cell)));
    rows.emplace_back(std::move(values));
  }
  return Relation::FromRows(std::move(rows));
}

Result<Relation> RelationFromCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open CSV file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return RelationFromCsv(buffer.str());
}

Result<std::string> RelationToCsv(const Relation& relation) {
  std::string out;
  for (size_t r = 0; r < relation.size(); ++r) {
    const std::span<const Value> row = relation.Row(r);
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ",";
      const Value& v = row[i];
      switch (v.kind()) {
        case ValueKind::kNull:
        case ValueKind::kMark:
          return Status::InvalidArgument(
              "cannot serialize internal symbol " + v.ToString());
        case ValueKind::kInt:
          out += std::to_string(v.AsInt());
          break;
        case ValueKind::kDouble:
          out += DoubleCell(v.AsDouble());
          break;
        case ValueKind::kString:
          // The reader splits on every ',' and line break and knows no
          // escapes, so such a string would come back as other cells.
          if (v.AsString().find_first_of(",\n\r") != std::string::npos) {
            return Status::InvalidArgument(
                "cannot serialize string " + v.ToString() +
                ": CSV cells hold no ',' or line break");
          }
          out += "'" + v.AsString() + "'";
          break;
      }
    }
    out += "\n";
  }
  return out;
}

Status SaveDatabase(const Database& db, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory '" + directory +
                                   "': " + ec.message());
  }
  std::ofstream manifest(directory + "/MANIFEST");
  if (!manifest) {
    return Status::InvalidArgument("cannot write manifest in '" +
                                   directory + "'");
  }
  for (const std::string& name : db.Names()) {
    BRYQL_ASSIGN_OR_RETURN(const Relation* rel, db.Get(name));
    BRYQL_ASSIGN_OR_RETURN(std::string csv, RelationToCsv(*rel));
    std::string path = directory + "/" + name + ".csv";
    std::ofstream out(path);
    if (!out) {
      return Status::InvalidArgument("cannot write '" + path + "'");
    }
    out << "# relation " << name << ", arity " << rel->arity() << "\n"
        << csv;
    manifest << name << "," << rel->arity() << "," << rel->size() << "\n";
  }
  return Status::Ok();
}

Result<Database> LoadDatabase(const std::string& directory) {
  std::ifstream manifest(directory + "/MANIFEST");
  if (!manifest) {
    return Status::NotFound("no MANIFEST in '" + directory + "'");
  }
  Database db;
  std::string line;
  while (std::getline(manifest, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::vector<std::string> fields = Split(trimmed, ',');
    if (fields.size() != 3) {
      return Status::InvalidArgument("malformed manifest line: " + line);
    }
    const std::string& name = fields[0];
    BRYQL_ASSIGN_OR_RETURN(Relation rel,
                           RelationFromCsvFile(directory + "/" + name +
                                               ".csv"));
    size_t expected_arity = std::strtoul(fields[1].c_str(), nullptr, 10);
    size_t expected_size = std::strtoul(fields[2].c_str(), nullptr, 10);
    if (expected_arity == 0 && rel.empty()) {
      // {()} is saved as one empty line, which the reader skips as blank:
      // an arity-0 relation is {} or {()}, told apart by the manifest.
      if (expected_size > 1) {
        return Status::InvalidArgument(
            "relation '" + name + "' has arity 0, manifest says " +
            std::to_string(expected_size) + " tuples (at most 1)");
      }
      rel = Relation(0);
      if (expected_size == 1) {
        BRYQL_RETURN_NOT_OK(rel.Insert(Tuple{}).status());
      }
    }
    if (!rel.empty() && rel.arity() != expected_arity) {
      return Status::InvalidArgument(
          "relation '" + name + "' has arity " +
          std::to_string(rel.arity()) + ", manifest says " +
          std::to_string(expected_arity));
    }
    if (rel.size() != expected_size) {
      return Status::InvalidArgument(
          "relation '" + name + "' has " + std::to_string(rel.size()) +
          " tuples, manifest says " + std::to_string(expected_size));
    }
    if (rel.empty() && expected_arity > 0) {
      // Empty CSV loses the arity; restore it from the manifest.
      rel = Relation(expected_arity);
    }
    db.Put(name, std::move(rel));
  }
  return db;
}

}  // namespace bryql
