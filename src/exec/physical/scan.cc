#include "exec/physical/scan.h"

#include <algorithm>
#include <cmath>

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

bool IsNanLiteral(const Value& v) {
  return v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble());
}

Zone Flip(Zone z) {
  if (z == Zone::kNone) return Zone::kAll;
  if (z == Zone::kAll) return Zone::kNone;
  return Zone::kMaybe;
}

/// Verdict for `v op lit` given v ∈ [lo, hi]. The three base ops are
/// derived from the Value order directly; kNe/kLe/kGe are the row-wise
/// negations of kEq/kGt/kLt, so their zone verdicts are the flips.
Zone IntervalVsValue(CompareOp op, const Value& lo, const Value& hi,
                     const Value& lit) {
  switch (op) {
    case CompareOp::kEq:
      if (lit < lo || hi < lit) return Zone::kNone;
      if (lo == lit && hi == lit) return Zone::kAll;
      return Zone::kMaybe;
    case CompareOp::kNe:
      return Flip(IntervalVsValue(CompareOp::kEq, lo, hi, lit));
    case CompareOp::kLt:  // v < lit
      if (hi < lit) return Zone::kAll;
      if (!(lo < lit)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kGt:  // v > lit  ⇔  lit < v
      if (lit < lo) return Zone::kAll;
      if (!(lit < hi)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kLe:  // v <= lit ⇔ !(v > lit)
      return Flip(IntervalVsValue(CompareOp::kGt, lo, hi, lit));
    case CompareOp::kGe:  // v >= lit ⇔ !(v < lit)
      return Flip(IntervalVsValue(CompareOp::kLt, lo, hi, lit));
  }
  return Zone::kMaybe;
}

/// Verdict for `va op vb` with va ∈ [a.min, a.max], vb ∈ [b.min, b.max],
/// paired row-wise.
Zone IntervalVsInterval(CompareOp op, const ZoneMap& a, const ZoneMap& b) {
  switch (op) {
    case CompareOp::kEq:
      if (a.max < b.min || b.max < a.min) return Zone::kNone;
      if (a.min == a.max && b.min == b.max && a.min == b.min) {
        return Zone::kAll;
      }
      return Zone::kMaybe;
    case CompareOp::kNe:
      return Flip(IntervalVsInterval(CompareOp::kEq, a, b));
    case CompareOp::kLt:  // va < vb
      if (a.max < b.min) return Zone::kAll;
      if (!(a.min < b.max)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kGt:  // va > vb ⇔ vb < va
      if (b.max < a.min) return Zone::kAll;
      if (!(b.min < a.max)) return Zone::kNone;
      return Zone::kMaybe;
    case CompareOp::kLe:
      return Flip(IntervalVsInterval(CompareOp::kGt, a, b));
    case CompareOp::kGe:
      return Flip(IntervalVsInterval(CompareOp::kLt, a, b));
  }
  return Zone::kMaybe;
}

}  // namespace

Zone ZoneTest(const ZoneMaps& zones, const Predicate* pred, size_t seg) {
  if (pred == nullptr) return Zone::kAll;
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      return Zone::kAll;
    case Predicate::Kind::kCompareColVal: {
      const ZoneMap& z = zones.zone(pred->lhs(), seg);
      if (z.count == 0) return Zone::kNone;
      if (z.unordered || IsNanLiteral(pred->value())) return Zone::kMaybe;
      return IntervalVsValue(pred->op(), z.min, z.max, pred->value());
    }
    case Predicate::Kind::kCompareColCol: {
      const ZoneMap& a = zones.zone(pred->lhs(), seg);
      const ZoneMap& b = zones.zone(pred->rhs_col(), seg);
      if (a.count == 0) return Zone::kNone;
      if (a.unordered || b.unordered) return Zone::kMaybe;
      return IntervalVsInterval(pred->op(), a, b);
    }
    case Predicate::Kind::kIsNull: {
      const ZoneMap& z = zones.zone(pred->lhs(), seg);
      if (z.nulls == 0) return Zone::kNone;
      if (z.nulls == z.count) return Zone::kAll;
      return Zone::kMaybe;
    }
    case Predicate::Kind::kIsNotNull: {
      const ZoneMap& z = zones.zone(pred->lhs(), seg);
      if (z.nulls == 0 && z.count > 0) return Zone::kAll;
      if (z.nulls == z.count) return Zone::kNone;
      return Zone::kMaybe;
    }
    case Predicate::Kind::kAnd: {
      bool all = true;
      for (const PredicatePtr& c : pred->children()) {
        const Zone z = ZoneTest(zones, c.get(), seg);
        if (z == Zone::kNone) return Zone::kNone;
        if (z != Zone::kAll) all = false;
      }
      return all ? Zone::kAll : Zone::kMaybe;
    }
    case Predicate::Kind::kOr: {
      bool none = true;
      for (const PredicatePtr& c : pred->children()) {
        const Zone z = ZoneTest(zones, c.get(), seg);
        if (z == Zone::kAll) return Zone::kAll;
        if (z != Zone::kNone) none = false;
      }
      return none ? Zone::kNone : Zone::kMaybe;
    }
    case Predicate::Kind::kNot:
      return Flip(ZoneTest(zones, pred->children()[0].get(), seg));
  }
  return Zone::kMaybe;
}

Zone ScanOp::SegmentVerdict(size_t seg) {
  if (zones_ == nullptr) {
    return predicate_ == nullptr ? Zone::kAll : Zone::kMaybe;
  }
  const Zone zone = ZoneTest(*zones_, predicate_.get(), seg);
  ++(zone == Zone::kNone ? ctx_.stats->segments_pruned
                         : ctx_.stats->segments_scanned);
  return zone;
}

Status ScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  // Rows are admitted one at a time without a zone verdict to admit a
  // segment by, and under a capacity-1 pull (the NonEmpty first-witness
  // mode), so the governor sees exactly the rows the witness test reads.
  const bool per_row = zones_ == nullptr || out->capacity() == 1;
  while (!out->full()) {
    if (index_ == admitted_) {
      // Admit the next row, or the rest of the current segment, or of the
      // next one.
      if (index_ >= limit_) {
        if (!Advance(morsels_, &index_, &limit_)) break;
        admitted_ = index_;
      }
      const size_t seg = index_ / kSegmentRows;
      if (seg != zone_seg_) {
        // Segments are entered in ascending order, each once, however
        // many capacity-1 pulls it takes to read one.
        zone_seg_ = seg;
        zone_ = SegmentVerdict(seg);
      }
      const bool pruned = zone_ == Zone::kNone;
      if (per_row && !pruned) {
        if (!ctx_.governor->AdmitScan()) return ctx_.governor->status();
        ++ctx_.stats->tuples_scanned;
        ++admitted_;
      } else {
        // The rest of the segment is admitted in bulk, pruned or not: a
        // scan without zone maps reads pruned rows too, and parity of
        // `scanned` is the invariant.
        const size_t end = std::min(limit_, (seg + 1) * kSegmentRows);
        if (!ctx_.governor->AdmitScanBulk(end - index_)) {
          return ctx_.governor->status();
        }
        ctx_.stats->tuples_scanned += end - index_;
        admitted_ = end;
        if (pruned) {
          index_ = end;
          continue;
        }
      }
    }
    const std::span<const Value> row = rel_->Row(index_++);
    if (zone_ == Zone::kAll ||
        predicate_->Eval(row, &ctx_.stats->comparisons)) {
      out->AddSlot()->Assign(row);
    }
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
