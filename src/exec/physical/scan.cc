#include "exec/physical/scan.h"

#include "exec/physical/parallel.h"

namespace bryql {
namespace {

/// Advances a (index, limit) window through its morsel source, if any.
/// Serial scans (no source) initialize limit to the full input size, so
/// this never fires and the hot loop is identical to the pre-parallel
/// code.
inline bool Advance(MorselSource* morsels, size_t* index, size_t* limit) {
  return morsels != nullptr && morsels->Claim(index, limit);
}

}  // namespace

Status TableScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (index_ >= limit_) {
      if (!Advance(morsels_, &index_, &limit_)) break;
    }
    if (!ctx_.governor->AdmitScan()) return ctx_.governor->status();
    ++ctx_.stats->tuples_scanned;
    out->AddSlot()->Assign(rel_->Row(index_++));
  }
  return Status::Ok();
}

Status IndexScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (index_ >= limit_) {
      if (!Advance(morsels_, &index_, &limit_)) break;
    }
    if (!ctx_.governor->AdmitScan()) return ctx_.governor->status();
    Tuple* slot = out->AddSlot();
    slot->Assign(rel_->Row(matches_[index_++]));
    ++ctx_.stats->tuples_scanned;
    if (residual_ != nullptr &&
        !residual_->Eval(*slot, &ctx_.stats->comparisons)) {
      out->PopSlot();
    }
  }
  return Status::Ok();
}

Status RelationSourceOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && index_ < rel_.size()) {
    out->AddSlot()->Assign(rel_.Row(index_++));
  }
  return Status::Ok();
}

Status BorrowedRelationScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (index_ >= limit_) {
      if (!Advance(morsels_, &index_, &limit_)) break;
    }
    out->AddSlot()->Assign(rel_->Row(index_++));
  }
  return Status::Ok();
}

}  // namespace bryql
