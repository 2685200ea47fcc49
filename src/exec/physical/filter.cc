#include "exec/physical/filter.h"

#include <utility>

#include "exec/physical/parallel.h"

namespace bryql {

Status FilterOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (pos_ >= in_.size()) {
      in_.set_capacity(out->capacity());
      BRYQL_RETURN_NOT_OK(child_->NextBatch(&in_));
      if (in_.empty()) break;
      pos_ = 0;
    }
    while (pos_ < in_.size() && !out->full()) {
      Tuple& t = in_[pos_++];
      if (!ctx_.governor->Tick()) return ctx_.governor->status();
      if (predicate_->Eval(t, &ctx_.stats->comparisons)) {
        // Swap, not copy: the input slot takes the output slot's old row,
        // so both keep their storage warm for the next refill.
        std::swap(*out->AddSlot(), t);
      }
    }
  }
  return Status::Ok();
}

Status ProjectOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (pos_ >= in_.size()) {
      in_.set_capacity(out->capacity());
      BRYQL_RETURN_NOT_OK(child_->NextBatch(&in_));
      if (in_.empty()) break;
      pos_ = 0;
    }
    while (pos_ < in_.size() && !out->full()) {
      // Dedup on the projected columns of the input row, in place; only a
      // fresh row is projected into the next output slot.
      const Tuple& in = in_[pos_++];
      const bool fresh = shared_seen_ != nullptr
                             ? shared_seen_->InsertKey(in, columns_)
                             : seen_.InsertKey(in, columns_);
      if (!fresh) {
        if (!ctx_.governor->Tick()) return ctx_.governor->status();
        continue;
      }
      if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
      ++ctx_.stats->tuples_materialized;
      Tuple* projected = out->AddSlot();
      projected->Clear();
      for (size_t column : columns_) projected->Append(in.at(column));
    }
  }
  return Status::Ok();
}

}  // namespace bryql
