#ifndef BRYQL_EXEC_PHYSICAL_DIVISION_H_
#define BRYQL_EXEC_PHYSICAL_DIVISION_H_

#include <utility>

#include "exec/physical/operator.h"
#include "exec/physical/scan.h"
#include "storage/relation.h"

namespace bryql {

// Division, per-group division and group-count are blocking: each fully
// computes its result into RelationSourceOp::rel_ at Open, and streams it
// through RelationSourceOp::NextBatch.

/// dividend ÷ divisor (the paper's one-shot division strategy): tuples
/// over the first p−q columns paired in the dividend with *every* divisor
/// tuple. An empty divisor divides trivially — the result is the
/// projection of the dividend.
class DivisionOp : public RelationSourceOp {
 public:
  DivisionOp(PhysicalOpPtr left, PhysicalOpPtr right, size_t left_arity,
             size_t right_arity, PhysicalContext ctx)
      : left_(std::move(left)), right_(std::move(right)),
        left_arity_(left_arity), right_arity_(right_arity), ctx_(ctx) {}
  Status Open() override;
  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  size_t left_arity_;
  size_t right_arity_;
  PhysicalContext ctx_;
};

/// Per-group division: the divisor is grouped by its leading
/// `group_arity` columns; a (keep, group) pair of the dividend qualifies
/// when it pairs with *every* value of its group. Groups absent from the
/// divisor produce nothing (the translator adds the vacuous-truth guard
/// itself).
class GroupDivisionOp : public RelationSourceOp {
 public:
  GroupDivisionOp(PhysicalOpPtr left, PhysicalOpPtr right, size_t left_arity,
                  size_t right_arity, size_t group_arity, PhysicalContext ctx)
      : left_(std::move(left)), right_(std::move(right)),
        left_arity_(left_arity), right_arity_(right_arity),
        group_arity_(group_arity), ctx_(ctx) {}
  Status Open() override;
  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  size_t left_arity_;
  size_t right_arity_;
  size_t group_arity_;
  PhysicalContext ctx_;
};

/// γ: per-group row counts (set semantics — input rows are already
/// distinct), the workhorse of the QUEL-style counting strategy.
class GroupCountOp : public RelationSourceOp {
 public:
  GroupCountOp(PhysicalOpPtr child, size_t group_arity, PhysicalContext ctx)
      : child_(std::move(child)), group_arity_(group_arity), ctx_(ctx) {}
  Status Open() override;
  void Close() override { child_->Close(); }

 private:
  PhysicalOpPtr child_;
  size_t group_arity_;
  PhysicalContext ctx_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_DIVISION_H_
