#include "exec/physical/hash_join.h"

#include <utility>

#include "exec/physical/parallel.h"

namespace bryql {

Status ProductOp::Open() {
  BRYQL_RETURN_NOT_OK(left_->Open());
  if (right_op_ == nullptr) return Status::Ok();  // borrowed, pre-drained
  BRYQL_RETURN_NOT_OK(right_op_->Open());
  return DrainToRelation(right_op_.get(), right_.arity(), ctx_, &right_);
}

Status ProductOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full() && !left_done_) {
    // A product's output is quadratic in its inputs; every combination
    // ticks so deadlines bite inside the loop.
    if (!ctx_.governor->Tick()) return ctx_.governor->status();
    if (right_index_ == 0) {
      bool have = false;
      BRYQL_RETURN_NOT_OK(
          cursor_.Next(&current_left_, &have, out->capacity()));
      if (!have) {
        left_done_ = true;
        break;
      }
    }
    if (right_index_ < right_view_->size()) {
      ConcatInto(current_left_.values(), right_view_->Row(right_index_++),
                 out->AddSlot());
      if (right_index_ == right_view_->size()) right_index_ = 0;
      continue;
    }
    right_index_ = 0;
    if (right_view_->empty()) {
      left_done_ = true;
      break;
    }
  }
  return Status::Ok();
}

HashJoinOp::HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                       std::vector<JoinKey> keys, JoinVariant variant,
                       PredicatePtr predicate, bool build_left,
                       size_t pad_arity, PhysicalContext ctx,
                       const SharedJoinBuild* shared_build)
    : left_(std::move(left)), right_(std::move(right)),
      keys_(std::move(keys)), variant_(variant),
      predicate_(std::move(predicate)), build_left_(build_left),
      pad_arity_(pad_arity), ctx_(ctx), shared_build_(shared_build),
      build_columns_(KeyColumns(keys_, /*left=*/build_left_)),
      probe_columns_(KeyColumns(keys_, /*left=*/!build_left_)),
      probe_cursor_(build_left ? right_.get() : left_.get()) {
  if (variant_ == JoinVariant::kInner ||
      variant_ == JoinVariant::kLeftOuter) {
    table_ = TupleTable(build_columns_);
  }
}

HashJoinOp::HashJoinOp(PhysicalOpPtr probe, const Relation* stored,
                       const PhysicalNode& node, PhysicalContext ctx)
    : left_(std::move(probe)), keys_(node.keys), variant_(node.variant),
      build_left_(false), pad_arity_(0), ctx_(ctx), shared_build_(nullptr),
      stored_(stored), by_index_(node.probe_by_index),
      index_column_(node.index_column), probe_cursor_(left_.get()) {
  probe_columns_.resize(keys_.size());
  for (const JoinKey& k : keys_) {
    probe_columns_[by_index_ ? 0 : k.right] = k.left;
  }
}

Status HashJoinOp::Open() {
  // The probe side opens first, the build side is drained second, in
  // the same order at every batch size, so nested blocking edges admit
  // resources in one fixed sequence and a budget trips on the same row.
  PhysicalOperator* probe = build_left_ ? right_.get() : left_.get();
  PhysicalOperator* build = build_left_ ? left_.get() : right_.get();
  BRYQL_RETURN_NOT_OK(probe->Open());
  // A shared build was built by the phase; a stored one is R itself.
  if (shared_build_ != nullptr || stored_ != nullptr) return Status::Ok();
  BRYQL_RETURN_NOT_OK(build->Open());
  switch (variant_) {
    case JoinVariant::kInner:
    case JoinVariant::kLeftOuter:
      return DrainToTable(build, ctx_, &table_);
    case JoinVariant::kSemi:
    case JoinVariant::kAnti:
    case JoinVariant::kMark:
      return DrainToKeySet(build, build_columns_, ctx_, &table_);
  }
  return Status::Internal("unknown join variant");
}

const TupleTable& HashJoinOp::ProbeTable(size_t* hash) {
  CountProbe();
  *hash = TupleTable::KeyHash(current_probe_, probe_columns_);
  return shared_build_ != nullptr ? shared_build_->TableFor(*hash) : table_;
}

bool HashJoinOp::FindMatches() {
  size_t hash = 0;
  matches_ = &ProbeTable(&hash);
  match_row_ = matches_->Find(current_probe_, probe_columns_, hash);
  return match_row_ != TupleTable::kNoRow;
}

bool HashJoinOp::ContainsKey() {
  if (stored_ != nullptr) {
    CountProbe();
    if (by_index_) {
      return !stored_->Matches(index_column_,
                               current_probe_.at(probe_columns_[0]))
                  .empty();
    }
    return stored_->ContainsKey(current_probe_, probe_columns_);
  }
  size_t hash = 0;
  return ProbeTable(&hash).ContainsKey(current_probe_, probe_columns_, hash);
}

Status HashJoinOp::NextBatch(TupleBatch* out) {
  out->Clear();
  switch (variant_) {
    case JoinVariant::kInner:
      return NextInner(out);
    case JoinVariant::kSemi:
    case JoinVariant::kAnti:
      return NextSemiAnti(out);
    case JoinVariant::kLeftOuter:
      return NextOuter(out);
    case JoinVariant::kMark:
      return NextMark(out);
  }
  return Status::Internal("unknown join variant");
}

Status HashJoinOp::NextInner(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    if (!ctx_.governor->Tick()) return ctx_.governor->status();
    if (match_row_ != TupleTable::kNoRow) {
      const std::span<const Value> partner = matches_->Row(match_row_);
      match_row_ = matches_->Next(match_row_);
      // Output columns are always left ++ right, whichever side built.
      // The candidate is built in the next output slot and given back if
      // the residual rejects it.
      Tuple* candidate = out->AddSlot();
      if (build_left_) {
        ConcatInto(partner, current_probe_.values(), candidate);
      } else {
        ConcatInto(current_probe_.values(), partner, candidate);
      }
      if (predicate_ != nullptr &&
          !predicate_->Eval(*candidate, &ctx_.stats->comparisons)) {
        out->PopSlot();
      }
      continue;
    }
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    FindMatches();
  }
  return Status::Ok();
}

Status HashJoinOp::NextSemiAnti(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    if (ContainsKey() != (variant_ == JoinVariant::kAnti)) {
      // The probe row is not needed again: swap it out, no copy.
      std::swap(*out->AddSlot(), current_probe_);
    }
  }
  return Status::Ok();
}

Status HashJoinOp::NextOuter(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    if (match_row_ != TupleTable::kNoRow) {
      ConcatInto(current_probe_.values(), matches_->Row(match_row_),
                 out->AddSlot());
      match_row_ = matches_->Next(match_row_);
      continue;
    }
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    // Definition 7 constraint: rows failing it are not probed and pad
    // directly with ∅.
    if (predicate_ != nullptr &&
        !predicate_->Eval(current_probe_, &ctx_.stats->comparisons)) {
      EmitPadded(out);
      continue;
    }
    if (FindMatches()) continue;
    EmitPadded(out);
  }
  return Status::Ok();
}

Status HashJoinOp::NextMark(TupleBatch* out) {
  while (!out->full() && !probe_done_) {
    bool have = false;
    BRYQL_RETURN_NOT_OK(
        probe_cursor_.Next(&current_probe_, &have, out->capacity()));
    if (!have) {
      probe_done_ = true;
      break;
    }
    bool marked = false;
    if (predicate_ == nullptr ||
        predicate_->Eval(current_probe_, &ctx_.stats->comparisons)) {
      marked = ContainsKey();
    }
    Tuple* slot = out->AddSlot();
    std::swap(*slot, current_probe_);
    slot->Append(marked ? Value::Mark() : Value::Null());
  }
  return Status::Ok();
}

void HashJoinOp::EmitPadded(TupleBatch* out) {
  // A padded probe row has no partner to pair with later: swap it out.
  Tuple* slot = out->AddSlot();
  std::swap(*slot, current_probe_);
  for (size_t i = 0; i < pad_arity_; ++i) slot->Append(Value::Null());
}

}  // namespace bryql
