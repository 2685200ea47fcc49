#ifndef BRYQL_EXEC_PHYSICAL_FILTER_H_
#define BRYQL_EXEC_PHYSICAL_FILTER_H_

#include <utility>
#include <vector>

#include "algebra/predicate.h"
#include "exec/physical/operator.h"

namespace bryql {

class ShardedTupleSet;

/// σ_pred over a batched stream. Requests child batches no larger than the
/// requested output capacity, so selective downstream pulls (first-witness
/// tests) never over-read the input.
class FilterOp : public PhysicalOperator {
 public:
  FilterOp(PhysicalOpPtr child, PredicatePtr predicate, PhysicalContext ctx)
      : child_(std::move(child)), predicate_(std::move(predicate)),
        ctx_(ctx), in_(1) {}
  Status Open() override { return child_->Open(); }
  Status NextBatch(TupleBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  PhysicalOpPtr child_;
  PredicatePtr predicate_;
  PhysicalContext ctx_;
  TupleBatch in_;
  size_t pos_ = 0;
};

/// π_cols with streaming dedup (set semantics: duplicates collapse). Each
/// fresh output tuple is one dedup-set insertion and therefore one
/// materialization admission; a duplicate is never charged, at any batch
/// size.
///
/// With a shared seen-set (parallel workers) freshness is decided against
/// the global ShardedTupleSet, so the same tuple reached through two
/// workers is admitted exactly once — keeping the collective materialize
/// count equal to the serial run's.
class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(PhysicalOpPtr child, std::vector<size_t> columns,
            PhysicalContext ctx, ShardedTupleSet* shared_seen = nullptr)
      : child_(std::move(child)), columns_(std::move(columns)), ctx_(ctx),
        shared_seen_(shared_seen), in_(1) {}
  Status Open() override { return child_->Open(); }
  Status NextBatch(TupleBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  PhysicalOpPtr child_;
  std::vector<size_t> columns_;
  PhysicalContext ctx_;
  ShardedTupleSet* shared_seen_;
  TupleBatch in_;
  size_t pos_ = 0;
  TupleTable seen_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_FILTER_H_
