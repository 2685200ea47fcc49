#ifndef BRYQL_EXEC_PHYSICAL_SCAN_H_
#define BRYQL_EXEC_PHYSICAL_SCAN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algebra/predicate.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"

namespace bryql {

class MorselSource;

/// Full scan over a borrowed relation (base relations and literals).
/// Every row read is admitted through the governor as a base-table scan.
///
/// With a MorselSource (parallel workers) the scan reads whatever row
/// ranges it can claim from the shared dispenser instead of [0, n);
/// across all workers the claims cover each row exactly once, so the
/// collective scan admissions equal the serial count.
class TableScanOp : public PhysicalOperator {
 public:
  TableScanOp(const Relation* rel, PhysicalContext ctx,
              MorselSource* morsels = nullptr)
      : rel_(rel), ctx_(ctx), morsels_(morsels),
        limit_(morsels == nullptr ? rel->size() : 0) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  const Relation* rel_;
  PhysicalContext ctx_;
  MorselSource* morsels_;
  size_t index_ = 0;
  size_t limit_;  // end of the current morsel (== rel->size() serially)
};

/// Hash-index bucket lookup with a residual filter. Only touched rows
/// count as scanned — the whole point of the index. A MorselSource, when
/// present, partitions the *match list* (not the base table) across
/// workers.
class IndexScanOp : public PhysicalOperator {
 public:
  IndexScanOp(const Relation* rel, std::span<const uint32_t> matches,
              PredicatePtr residual, PhysicalContext ctx,
              MorselSource* morsels = nullptr)
      : rel_(rel), matches_(matches), residual_(std::move(residual)),
        ctx_(ctx), morsels_(morsels),
        limit_(morsels == nullptr ? matches.size() : 0) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  const Relation* rel_;
  std::span<const uint32_t> matches_;  // rel_->Matches(...), read-only
  PredicatePtr residual_;
  PhysicalContext ctx_;
  MorselSource* morsels_;
  size_t index_ = 0;
  size_t limit_;
};

/// Streams an owned relation: a boolean sub-evaluation, or — as the base
/// of DivisionOp, GroupDivisionOp and GroupCountOp — the result a
/// blocking operator computes into `rel_` at Open. Reads from
/// intermediates are not counted as base-table scans: `scanned` counts
/// base-relation reads only.
class RelationSourceOp : public PhysicalOperator {
 public:
  explicit RelationSourceOp(Relation rel) : rel_(std::move(rel)) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) final;

 protected:
  RelationSourceOp() : rel_(0) {}
  Relation rel_;

 private:
  size_t index_ = 0;
};

/// Streams rows owned by someone else — in parallel workers, a relation
/// the coordinator materialized once and registered in ParallelShared.
/// Like RelationSourceOp, reads are not admissions (serial execution
/// streams the same intermediate without counting); a MorselSource
/// partitions the rows across the workers sharing them.
class BorrowedRelationScanOp : public PhysicalOperator {
 public:
  explicit BorrowedRelationScanOp(const Relation* rel,
                                  MorselSource* morsels = nullptr)
      : rel_(rel), morsels_(morsels),
        limit_(morsels == nullptr ? rel->size() : 0) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  const Relation* rel_;
  MorselSource* morsels_;
  size_t index_ = 0;
  size_t limit_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_SCAN_H_
