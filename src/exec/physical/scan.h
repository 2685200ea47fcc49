#ifndef BRYQL_EXEC_PHYSICAL_SCAN_H_
#define BRYQL_EXEC_PHYSICAL_SCAN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algebra/predicate.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"
#include "storage/zone_map.h"

namespace bryql {

class MorselSource;

/// A zone-map verdict for one segment: no row can match (kNone), every
/// row matches (kAll), or the rows must be looked at (kMaybe).
enum class Zone { kNone, kMaybe, kAll };

/// The verdict of `pred` on segment `seg`, from the zone maps alone. It is
/// conservative: kNone and kAll are claimed only when the bounds prove
/// them for every row, under the same Value order CompareValues uses
/// (a NaN in the column or the literal makes the verdict kMaybe). A null
/// predicate matches everything.
Zone ZoneTest(const ZoneMaps& zones, const Predicate* pred, size_t seg);

/// The one scan of a borrowed relation (a base relation or a literal),
/// with the selection over it, if any, fused in: σ_pred(scan) has no
/// separate Filter node. Rows are read in segments of kSegmentRows. Each
/// segment gets a verdict when the scan enters it: ZoneTest when the
/// relation has zone maps and the scan a predicate, otherwise kMaybe with
/// a predicate and kAll without one. A kNone segment is skipped, a kAll
/// segment emits its rows without evaluating anything, and a kMaybe
/// segment evaluates the predicate in place on each stored row
/// (Relation::Row) and copies only the rows that match. Zone maps are
/// read when the plan runs, so a plan never depends on them.
///
/// With zone maps and a predicate, every segment's rows, skipped or not,
/// pass AdmitScanBulk, so `scanned` budgets and counters do not depend on
/// zone maps: pruning saves comparisons, never admissions. Without either,
/// each row read passes AdmitScan. Evaluated rows cost one Predicate::Eval
/// each, as a Filter would charge. segments_scanned / segments_pruned
/// count the verdicts of scans that have both zone maps and a predicate.
///
/// A capacity-1 consumer (the NonEmpty first-witness pull) switches the
/// scan to row-at-a-time admission, preserving the first-witness
/// guarantee that exactly w+1 rows are admitted when the witness sits at
/// row w. Pruned segments are still admitted in bulk: they provably
/// cannot hold the witness, and a scan without zone maps reads straight
/// past them.
///
/// With a MorselSource (parallel workers) the scan reads whatever row
/// ranges it can claim from the shared dispenser instead of [0, n).
/// Claims are morsel-sized and morsel-aligned, and one morsel is one
/// segment (kSegmentRows == kMorselSize), so workers never split a
/// segment's verdict, and across all workers the claims cover each row
/// exactly once, so the collective admissions equal the serial count.
class ScanOp : public PhysicalOperator {
 public:
  ScanOp(const Relation* rel, PredicatePtr predicate, PhysicalContext ctx,
         MorselSource* morsels = nullptr)
      : rel_(rel), predicate_(std::move(predicate)),
        zones_(predicate_ == nullptr ? nullptr : rel->zone_maps()),
        ctx_(ctx), morsels_(morsels),
        limit_(morsels == nullptr ? rel->size() : 0) {}
  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  /// The verdict of segment `seg`, counted when zone maps gave it.
  Zone SegmentVerdict(size_t seg);

  const Relation* rel_;
  PredicatePtr predicate_;
  const ZoneMaps* zones_;  // null without zone maps or without predicate
  PhysicalContext ctx_;
  MorselSource* morsels_;
  size_t index_ = 0;     // next row to read
  size_t admitted_ = 0;  // end of the rows admitted so far
  size_t limit_;         // end of the current morsel (== rows serially)

  /// The verdict of the segment holding the admitted rows, taken once per
  /// segment.
  size_t zone_seg_ = static_cast<size_t>(-1);
  Zone zone_ = Zone::kMaybe;
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
