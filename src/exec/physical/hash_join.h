#ifndef BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_
#define BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_

#include <utility>
#include <vector>

#include "algebra/physical_plan.h"
#include "algebra/predicate.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"

namespace bryql {

class SharedJoinBuild;

/// Cartesian product: the right side is fully drained at Open, the left
/// side streams. Every combination (emitted or not) ticks the governor so
/// deadlines bite inside the quadratic loop.
///
/// The borrowed-right constructor is the parallel form: the coordinator
/// has already drained the right side once (with the serial admissions),
/// and every worker's product iterates the same shared rows.
class ProductOp : public PhysicalOperator {
 public:
  ProductOp(PhysicalOpPtr left, PhysicalOpPtr right, size_t right_arity,
            PhysicalContext ctx)
      : left_(std::move(left)), right_op_(std::move(right)),
        right_(right_arity), right_view_(&right_), cursor_(left_.get()),
        ctx_(ctx) {}
  ProductOp(PhysicalOpPtr left, const Relation* borrowed_right,
            PhysicalContext ctx)
      : left_(std::move(left)), right_(0), right_view_(borrowed_right),
        cursor_(left_.get()), ctx_(ctx) {}
  Status Open() override;
  Status NextBatch(TupleBatch* out) override;
  void Close() override {
    left_->Close();
    if (right_op_ != nullptr) right_op_->Close();
  }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_op_;       // null in borrowed mode
  Relation right_;               // owned drain target (unused borrowed)
  const Relation* right_view_;   // what NextBatch actually iterates
  BatchCursor cursor_;
  PhysicalContext ctx_;
  Tuple current_left_;
  size_t right_index_ = 0;
  bool left_done_ = false;
};

/// The whole hash-join family of the paper behind one operator: inner
/// join, semi-join, complement-join (Definition 6, kAnti), unidirectional
/// outer join, and the space-saving constrained outer join (Definition 7,
/// kMark). The build side is drained into a TupleTable at Open (a
/// multimap of build rows for variants that need partner values, a key set
/// for pure membership tests); the probe side streams in batches, and
/// each probe row's key is hashed and compared in place. Partners come
/// out in build (insertion) order, so the output row order, and with it
/// which row a first-witness pull stops at, is fixed at every batch size.
///
/// `build_left` (inner joins only) puts the left input on the build side
/// when the lowering's cost model estimates it smaller; output column
/// order stays left ++ right regardless.
///
/// With a SharedJoinBuild (parallel workers) the build side was drained
/// once, concurrently, before this operator existed: Open skips the drain,
/// probes go to the shared table, and the build-side operator pointer is
/// null. Serial probes pay only a predicted-null branch.
///
/// A stored build (a kProbeJoin node) needs no drain either: the build
/// side is a stored relation R, which already is a key set. A contains
/// probe asks Relation::ContainsKey with the probe columns in R's column
/// order, hashed and compared in place as a drained key set is; an index
/// probe asks for a non-empty Relation::Matches on R's indexed column.
/// Either charges what the drained probe would (one hash probe, one
/// comparison per key), and nothing for R, which is never scanned.
class HashJoinOp : public PhysicalOperator {
 public:
  /// `predicate` is the residual condition for kInner (evaluated on the
  /// concatenated tuple) or the Definition 7 probe constraint for
  /// kLeftOuter/kMark (evaluated on the left tuple); it must be null for
  /// kSemi/kAnti. `pad_arity` is the right-side arity, used by kLeftOuter
  /// to pad partnerless tuples with nulls.
  HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
             std::vector<JoinKey> keys, JoinVariant variant,
             PredicatePtr predicate, bool build_left, size_t pad_arity,
             PhysicalContext ctx, const SharedJoinBuild* shared_build = nullptr);
  /// The stored build of `node`, a kProbeJoin whose one child `probe` is
  /// the probe side. `stored` must be the relation `node` was lowered for
  /// (PlanRuntime refuses a plan whose relation lost its index or changed
  /// arity).
  HashJoinOp(PhysicalOpPtr probe, const Relation* stored,
             const PhysicalNode& node, PhysicalContext ctx);
  Status Open() override;
  Status NextBatch(TupleBatch* out) override;
  void Close() override {
    if (left_ != nullptr) left_->Close();
    if (right_ != nullptr) right_->Close();
  }

 private:
  Status NextInner(TupleBatch* out);
  Status NextSemiAnti(TupleBatch* out);
  Status NextOuter(TupleBatch* out);
  Status NextMark(TupleBatch* out);
  /// Moves the partnerless probe row into `out`, padded with ∅.
  void EmitPadded(TupleBatch* out);
  /// Counts the probe of current_probe_.
  void CountProbe() {
    ++ctx_.stats->hash_probes;
    ctx_.stats->comparisons += keys_.size();
  }
  /// Counts the probe of current_probe_ and returns the table to look
  /// its key up in (the shared build's shard, or table_); `*hash` is the
  /// key's hash.
  const TupleTable& ProbeTable(size_t* hash);
  /// Points the partner walk at current_probe_'s partners; false if none.
  bool FindMatches();
  bool ContainsKey();

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<JoinKey> keys_;
  JoinVariant variant_;
  PredicatePtr predicate_;
  bool build_left_;
  size_t pad_arity_;
  PhysicalContext ctx_;
  const SharedJoinBuild* shared_build_;
  /// The stored build, or null. With `by_index_` its index on
  /// `index_column_` is probed with the probe row's probe_columns_[0];
  /// otherwise probe_columns_ names the probe column keyed to each of its
  /// columns, in its column order.
  const Relation* stored_ = nullptr;
  bool by_index_ = false;
  size_t index_column_ = 0;
  std::vector<size_t> build_columns_;  // the key columns of a build row
  std::vector<size_t> probe_columns_;  // the key columns of a probe row

  BatchCursor probe_cursor_;
  /// A multimap of build rows (kInner, kLeftOuter) or a set of build keys
  /// (kSemi, kAnti, kMark).
  TupleTable table_;
  Tuple current_probe_;
  /// The partner walk: the table holding current_probe_'s partners and
  /// the next one to emit (kNoRow when done).
  const TupleTable* matches_ = nullptr;
  uint32_t match_row_ = TupleTable::kNoRow;
  bool probe_done_ = false;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_HASH_JOIN_H_
