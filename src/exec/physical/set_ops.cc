#include "exec/physical/set_ops.h"

#include <utility>

#include "exec/physical/parallel.h"

namespace bryql {

Status UnionOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    bool have = false;
    BRYQL_RETURN_NOT_OK((on_left_ ? left_cursor_ : right_cursor_)
                            .Next(&current_, &have, out->capacity()));
    if (!have) {
      if (!on_left_) break;
      on_left_ = false;
      continue;
    }
    const bool fresh = shared_seen_ != nullptr ? shared_seen_->Insert(current_)
                                               : seen_.Insert(current_);
    if (fresh) {
      if (!ctx_.governor->AdmitMaterialize()) return ctx_.governor->status();
      ++ctx_.stats->tuples_materialized;
      std::swap(*out->AddSlot(), current_);
    } else if (!ctx_.governor->Tick()) {
      return ctx_.governor->status();
    }
  }
  return Status::Ok();
}

}  // namespace bryql
