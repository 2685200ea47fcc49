#include "exec/physical/division.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace bryql {

namespace {
using TupleSet = std::unordered_set<Tuple, TupleHash>;
}  // namespace

Status DivisionOp::Open() {
  BRYQL_RETURN_NOT_OK(left_->Open());
  BRYQL_RETURN_NOT_OK(right_->Open());
  const size_t p = left_arity_;
  const size_t q = right_arity_;
  TupleTable divisor;
  BRYQL_RETURN_NOT_OK(DrainToSet(right_.get(), ctx_, &divisor));
  std::vector<size_t> prefix_cols, suffix_cols;
  for (size_t i = 0; i < p - q; ++i) prefix_cols.push_back(i);
  for (size_t i = p - q; i < p; ++i) suffix_cols.push_back(i);
  std::unordered_map<Tuple, TupleSet, TupleHash> groups;
  BatchCursor cursor(left_.get());
  Tuple t;  // reused across pulls; the cursor swaps each row into it
  while (true) {
    bool have = false;
    BRYQL_RETURN_NOT_OK(cursor.Next(&t, &have, ctx_.batch_size));
    if (!have) break;
    if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
    Tuple prefix = t.Project(prefix_cols);
    ++ctx_.stats->hash_probes;
    if (divisor.ContainsKey(t, suffix_cols)) {
      if (groups[std::move(prefix)].insert(t.Project(suffix_cols)).second) {
        ++ctx_.stats->tuples_materialized;
      }
    } else {
      groups.try_emplace(std::move(prefix));
    }
  }
  rel_ = Relation(p - q);
  for (auto& [prefix, matched] : groups) {
    if (matched.size() == divisor.size()) {
      BRYQL_RETURN_NOT_OK(rel_.Insert(prefix).status());
    }
  }
  return Status::Ok();
}

Status GroupDivisionOp::Open() {
  BRYQL_RETURN_NOT_OK(left_->Open());
  BRYQL_RETURN_NOT_OK(right_->Open());
  const size_t p = left_arity_;
  const size_t q = right_arity_;
  const size_t g = group_arity_;
  const size_t keep_arity = p - q;  // dividend = [keep, group, value]
  std::vector<size_t> t_group_cols, t_value_cols;
  for (size_t i = 0; i < g; ++i) t_group_cols.push_back(i);
  for (size_t i = g; i < q; ++i) t_value_cols.push_back(i);
  std::vector<size_t> d_prefix_cols, d_value_cols, d_group_cols;
  for (size_t i = 0; i < keep_arity + g; ++i) d_prefix_cols.push_back(i);
  for (size_t i = keep_arity; i < keep_arity + g; ++i) {
    d_group_cols.push_back(i);
  }
  for (size_t i = keep_arity + g; i < p; ++i) d_value_cols.push_back(i);

  // Group the divisor: group key → set of values.
  std::unordered_map<Tuple, TupleSet, TupleHash> divisor_groups;
  {
    BatchCursor cursor(right_.get());
    Tuple t;  // reused across pulls; the cursor swaps each row into it
    while (true) {
      bool have = false;
      BRYQL_RETURN_NOT_OK(cursor.Next(&t, &have, ctx_.batch_size));
      if (!have) break;
      if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
      if (divisor_groups[t.Project(t_group_cols)]
              .insert(t.Project(t_value_cols))
              .second) {
        ++ctx_.stats->tuples_materialized;
      }
    }
  }
  // Collect matched values per (keep, group) prefix of the dividend.
  std::unordered_map<Tuple, TupleSet, TupleHash> matched;
  {
    BatchCursor cursor(left_.get());
    Tuple t;  // reused across pulls; the cursor swaps each row into it
    while (true) {
      bool have = false;
      BRYQL_RETURN_NOT_OK(cursor.Next(&t, &have, ctx_.batch_size));
      if (!have) break;
      if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
      Tuple group = t.Project(d_group_cols);
      ++ctx_.stats->hash_probes;
      auto git = divisor_groups.find(group);
      if (git == divisor_groups.end()) continue;
      Tuple value = t.Project(d_value_cols);
      if (!git->second.count(value)) continue;
      if (matched[t.Project(d_prefix_cols)].insert(std::move(value)).second) {
        ++ctx_.stats->tuples_materialized;
      }
    }
  }
  rel_ = Relation(keep_arity + g);
  for (auto& [prefix, values] : matched) {
    // The group is the suffix of the prefix tuple.
    std::vector<size_t> group_in_prefix;
    for (size_t i = keep_arity; i < keep_arity + g; ++i) {
      group_in_prefix.push_back(i);
    }
    auto git = divisor_groups.find(prefix.Project(group_in_prefix));
    if (git != divisor_groups.end() && values.size() == git->second.size()) {
      BRYQL_RETURN_NOT_OK(rel_.Insert(prefix).status());
    }
  }
  return Status::Ok();
}

Status GroupCountOp::Open() {
  BRYQL_RETURN_NOT_OK(child_->Open());
  const size_t g = group_arity_;
  std::vector<size_t> group_cols;
  for (size_t i = 0; i < g; ++i) group_cols.push_back(i);
  std::unordered_map<Tuple, int64_t, TupleHash> counts;
  BatchCursor cursor(child_.get());
  Tuple t;  // reused across pulls; the cursor swaps each row into it
  while (true) {
    bool have = false;
    BRYQL_RETURN_NOT_OK(cursor.Next(&t, &have, ctx_.batch_size));
    if (!have) break;
    if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
    ++counts[t.Project(group_cols)];
    ++ctx_.stats->tuples_materialized;
  }
  rel_ = Relation(g + 1);
  for (auto& [group, count] : counts) {
    Tuple row = group;
    row.Append(Value::Int(count));
    BRYQL_RETURN_NOT_OK(rel_.Insert(std::move(row)).status());
  }
  return Status::Ok();
}

}  // namespace bryql
