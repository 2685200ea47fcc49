#ifndef BRYQL_EXEC_PHYSICAL_COLUMNAR_SCAN_H_
#define BRYQL_EXEC_PHYSICAL_COLUMNAR_SCAN_H_

#include <utility>

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

/// Scan + filter fused over a relation with zone maps: per segment, the
/// zone verdict either skips the segment (kNone), emits its rows without
/// evaluating anything (kAll), or evaluates the predicate in place on
/// each stored row (Relation::Row) and copies only the rows that match.
/// The plan has no separate Filter node above this scan.
///
/// Budget parity with the row path is a hard invariant: every segment's
/// rows, pruned or evaluated, pass AdmitScanBulk, so `scanned` budgets
/// and counters match a TableScan + Filter execution of the same plan
/// exactly. Pruning saves comparisons, never admissions. On evaluated
/// segments the comparisons are the row path's, one Predicate::Eval per
/// row, so a zone scan's count is the row path's less the rows of pruned
/// and all-match segments.
///
/// A capacity-1 consumer (the NonEmpty first-witness pull) switches the
/// operator to row-at-a-time admission, preserving the first-witness
/// guarantee that exactly w+1 rows are admitted when the witness sits at
/// row w. Pruned segments are still admitted in bulk: they provably
/// cannot hold the witness, and the row path scans straight past them.
///
/// With a MorselSource (parallel workers), claims are morsel-sized and
/// morsel-aligned, and one morsel is one segment (kSegmentRows ==
/// kMorselSize), so workers never split a segment's zone verdict.
class ColumnarScanOp : public PhysicalOperator {
 public:
  /// `rel` must have zone maps.
  ColumnarScanOp(const Relation* rel, PredicatePtr predicate,
                 PhysicalContext ctx, MorselSource* morsels = nullptr)
      : rel_(rel), predicate_(std::move(predicate)), ctx_(ctx),
        morsels_(morsels), limit_(morsels == nullptr ? rel->size() : 0) {}

  Status Open() override { return Status::Ok(); }
  Status NextBatch(TupleBatch* out) override;

 private:
  const Relation* rel_;
  PredicatePtr predicate_;
  PhysicalContext ctx_;
  MorselSource* morsels_;
  size_t index_ = 0;     // next row to evaluate
  size_t admitted_ = 0;  // end of the rows admitted so far
  size_t limit_;         // end of the current morsel (== rows serially)

  /// The verdict of the segment holding the admitted rows, tested (and
  /// counted in segments_scanned / segments_pruned) once per segment.
  size_t zone_seg_ = static_cast<size_t>(-1);
  Zone zone_ = Zone::kMaybe;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_COLUMNAR_SCAN_H_
