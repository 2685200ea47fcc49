#ifndef BRYQL_EXEC_PHYSICAL_OPERATOR_H_
#define BRYQL_EXEC_PHYSICAL_OPERATOR_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "algebra/expr.h"  // JoinKey
#include "common/batch.h"
#include "common/governor.h"
#include "common/result.h"
#include "exec/stats.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/tuple_table.h"

namespace bryql {

struct ParallelShared;

/// Per-run context shared by every operator of one instantiated plan:
/// catalog, counters, the run's ResourceGovernor, and the configured batch
/// size. Plain borrowed pointers — the runtime driving the plan owns (or
/// outlives) all of them.
///
/// `shared` is null in serial runs (the common case — every operator's
/// hot path is untouched) and points at the coordinator's ParallelShared
/// registry inside a parallel worker, where it redirects scans to morsel
/// dispensers, joins to pre-built shared tables, and dedup operators to
/// sharded global seen-sets. The redirection is decided once per node at
/// instantiation time (PlanRuntime::Build), never per tuple.
struct PhysicalContext {
  const Database* db = nullptr;
  ExecStats* stats = nullptr;
  ResourceGovernor* governor = nullptr;
  size_t batch_size = kDefaultBatchSize;
  const ParallelShared* shared = nullptr;
};

/// A physical operator instance: runtime state for one PhysicalNode of a
/// lowered plan. Operators move data in batches instead of one virtual
/// call per tuple:
///
///   Open()      — acquire inputs, build state (hash tables, sorted runs,
///                 division groups); opens children first.
///   NextBatch() — clear `out`, fill it with up to out->capacity() tuples.
///                 An OK status with an *empty* batch means exhausted.
///                 Operators honour the requested capacity and request no
///                 more than that from their children, so a capacity-1
///                 pull (the non-emptiness test) admits no row past the
///                 first witness.
///   Close()     — release state; optional.
///
/// Resource governance is independent of the batch size: each base read
/// passes AdmitScan and each intermediate insertion AdmitMaterialize,
/// once per row at every capacity, and inner loops Tick, so a plan makes
/// the same admissions and counts the same work whether it runs at batch
/// size 1 or 1024. Because NextBatch returns Status, a tripped governor
/// surfaces directly as the governor's latched Status instead of
/// masquerading as exhaustion.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;
  virtual Status Open() = 0;
  virtual Status NextBatch(TupleBatch* out) = 0;
  virtual void Close() {}
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOperator>;

/// The key columns of one side of an equi-join ("i = j" in the paper's
/// conj notation): the left columns of `keys` when `left`, else the right.
inline std::vector<size_t> KeyColumns(const std::vector<JoinKey>& keys,
                                      bool left) {
  std::vector<size_t> columns;
  columns.reserve(keys.size());
  for (const JoinKey& k : keys) columns.push_back(left ? k.left : k.right);
  return columns;
}

/// (a, b) written into `out`, reusing its storage — the in-place form of
/// Tuple::Concat for warm batch slots. Either side may be a stored
/// TupleTable row.
inline void ConcatInto(std::span<const Value> a, std::span<const Value> b,
                       Tuple* out) {
  out->Clear();
  for (const Value& v : a) out->Append(v);
  for (const Value& v : b) out->Append(v);
}

/// Adapts a batched child to one-tuple-at-a-time pulls, buffering one
/// batch internally. `capacity` is forwarded to the child per refill, so a
/// capacity-1 consumer induces capacity-1 pulls all the way down.
///
/// Next() swaps the row into `*out`: the caller owns it from then on, and
/// it survives any later refill, which writes over the tuple the caller
/// gave back. The caller's buffer should be long-lived (a member, not a
/// per-call local), so the tuple it hands back keeps warm storage.
class BatchCursor {
 public:
  explicit BatchCursor(PhysicalOperator* child) : child_(child), buf_(1) {}

  /// Fetches the next tuple into `*out`; `*have` is false at exhaustion.
  Status Next(Tuple* out, bool* have, size_t capacity) {
    if (pos_ >= buf_.size()) {
      buf_.set_capacity(capacity);
      BRYQL_RETURN_NOT_OK(child_->NextBatch(&buf_));
      pos_ = 0;
      if (buf_.empty()) {
        *have = false;
        return Status::Ok();
      }
    }
    // Swap, not copy: no value is copied, and the slot gets the caller's
    // previous row, whose storage the next refill reuses.
    std::swap(*out, buf_[pos_++]);
    *have = true;
    return Status::Ok();
  }

 private:
  PhysicalOperator* child_;
  TupleBatch buf_;
  size_t pos_ = 0;
};

/// Drain helpers used by blocking edges of a plan (hash builds, sort
/// inputs, division inputs). Each admits and hits its failpoint once per
/// row, so a run trips the governor on the same tuple at every batch
/// size.

/// Fully drains `child` into a relation: every tuple is admitted as a
/// materialization, fresh insertions are counted ("exec.materialize.insert"
/// failpoint).
Status DrainToRelation(PhysicalOperator* child, size_t arity,
                       const PhysicalContext& ctx, Relation* out);

/// Drains `child` into a multimap TupleTable (keyed on the build side's
/// join columns). Every tuple is admitted and counted ("exec.hash.insert"
/// failpoint) — a hash build keeps duplicates as partner values.
Status DrainToTable(PhysicalOperator* child, const PhysicalContext& ctx,
                    TupleTable* out);

/// Drains `child` into a set of join keys, the values at `key_columns` of
/// each tuple: fresh keys are admitted and counted, duplicates only tick
/// ("exec.hash.insert" failpoint).
Status DrainToKeySet(PhysicalOperator* child,
                     const std::vector<size_t>& key_columns,
                     const PhysicalContext& ctx, TupleTable* out);

/// Drains `child` into a set of whole tuples: fresh tuples are admitted
/// and counted, duplicates only tick ("exec.materialize.insert" failpoint).
Status DrainToSet(PhysicalOperator* child, const PhysicalContext& ctx,
                  TupleTable* out);

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_OPERATOR_H_
