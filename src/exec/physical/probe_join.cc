#include "exec/physical/probe_join.h"

#include <utility>

namespace bryql {

bool ProbesInPlace(const PhysicalNode& node, const Relation& rel) {
  return !node.probe_by_index || rel.HasIndex(node.index_column);
}

BuildCharge SkippedBuildCharge(const PhysicalNode& node,
                               const Relation& rel) {
  // Contains: every row is a distinct key. Index: π_c(rel) dedups to the
  // index's keys, and each is fresh again in the key set.
  return {rel.size(), node.probe_by_index
                          ? 2 * rel.IndexKeyCount(node.index_column)
                          : rel.size()};
}

Status ApplyCharge(const BuildCharge& charge, ResourceGovernor* governor,
                   ExecStats* stats) {
  if (!governor->AdmitScanBulk(charge.scanned)) return governor->status();
  stats->tuples_scanned += charge.scanned;
  if (!governor->AdmitMaterializeBulk(charge.materialized)) {
    return governor->status();
  }
  stats->tuples_materialized += charge.materialized;
  return Status::Ok();
}

ProbeJoinOp::ProbeJoinOp(PhysicalOpPtr probe, const Relation* rel,
                         const PhysicalNode& node, BuildCharge charge,
                         PhysicalContext ctx)
    : probe_(std::move(probe)), rel_(rel), charge_(charge), ctx_(ctx),
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

Status ProbeJoinOp::Open() {
  // Probe side first, then the (skipped) build — the hash join's order.
  BRYQL_RETURN_NOT_OK(probe_->Open());
  return ApplyCharge(charge_, ctx_.governor, ctx_.stats);
}

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
