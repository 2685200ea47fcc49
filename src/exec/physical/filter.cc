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
      // Project straight into the next output slot; a duplicate gives the
      // slot back, so only fresh rows stay visible in `out`.
      const Tuple& in = in_[pos_++];
      Tuple* projected = out->AddSlot();
      projected->Clear();
      for (size_t column : columns_) projected->Append(in.at(column));
      const bool fresh = shared_seen_ != nullptr
                             ? shared_seen_->Insert(*projected)
                             : seen_.insert(*projected).second;
      if (!fresh) {
        out->PopSlot();
        if (!ctx_.governor->Tick()) return ctx_.governor->status();
      } else if (!ctx_.governor->AdmitMaterialize()) {
        out->PopSlot();
        return ctx_.governor->status();
      } else {
        ++ctx_.stats->tuples_materialized;
      }
    }
  }
  return Status::Ok();
}

}  // namespace bryql
