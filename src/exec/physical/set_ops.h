#ifndef BRYQL_EXEC_PHYSICAL_SET_OPS_H_
#define BRYQL_EXEC_PHYSICAL_SET_OPS_H_

#include <utility>

#include "exec/physical/operator.h"

namespace bryql {

class ShardedTupleSet;

/// Union with streaming dedup: the left input streams through first, then
/// the right; duplicates collapse against everything already emitted.
/// Fresh tuples are admitted as materializations, duplicates only tick —
/// the union buys its set semantics with the memory the dedup set costs.
///
/// With a shared seen-set (parallel workers) freshness is global across
/// workers, matching the serial admission count exactly (see ProjectOp).
class UnionOp : public PhysicalOperator {
 public:
  UnionOp(PhysicalOpPtr left, PhysicalOpPtr right, PhysicalContext ctx,
          ShardedTupleSet* shared_seen = nullptr)
      : left_(std::move(left)), right_(std::move(right)),
        left_cursor_(left_.get()), right_cursor_(right_.get()), ctx_(ctx),
        shared_seen_(shared_seen) {}
  Status Open() override {
    BRYQL_RETURN_NOT_OK(left_->Open());
    return right_->Open();
  }
  Status NextBatch(TupleBatch* out) override;
  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  BatchCursor left_cursor_;
  BatchCursor right_cursor_;
  PhysicalContext ctx_;
  ShardedTupleSet* shared_seen_;
  bool on_left_ = true;
  Tuple current_;  // the cursors swap each row into it
  TupleTable seen_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_SET_OPS_H_
