#include "exec/physical/probe_join.h"

#include <utility>

namespace bryql {

ProbeJoinOp::ProbeJoinOp(PhysicalOpPtr probe, const Relation* rel,
                         const PhysicalNode& node, PhysicalContext ctx)
    : probe_(std::move(probe)), rel_(rel), ctx_(ctx),
      anti_(node.variant == JoinVariant::kAnti),
      by_index_(node.probe_by_index), num_keys_(node.keys.size()),
      cursor_(probe_.get()) {
  if (by_index_) {
    probe_column_ = node.keys[0].left;
    index_column_ = node.index_column;
    return;
  }
  key_columns_.resize(node.keys.size());
  probe_is_key_ = node.children[0]->arity == node.keys.size();
  for (const JoinKey& k : node.keys) {
    key_columns_[k.right] = k.left;
    probe_is_key_ = probe_is_key_ && k.left == k.right;
  }
}

Status ProbeJoinOp::Open() { return probe_->Open(); }

bool ProbeJoinOp::HasPartner(const Tuple& t) {
  if (by_index_) {
    return !rel_->Matches(index_column_, t.at(probe_column_)).empty();
  }
  if (probe_is_key_) return rel_->Contains(t);
  key_.Clear();
  for (size_t column : key_columns_) key_.Append(t.at(column));
  return rel_->Contains(key_);
}

Status ProbeJoinOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && !done_) {
    bool have = false;
    BRYQL_RETURN_NOT_OK(cursor_.Next(&current_, &have, out->capacity()));
    if (!have) {
      done_ = true;
      break;
    }
    ++ctx_.stats->hash_probes;
    ctx_.stats->comparisons += num_keys_;
    if (HasPartner(current_) != anti_) std::swap(*out->AddSlot(), current_);
  }
  return Status::Ok();
}

}  // namespace bryql
