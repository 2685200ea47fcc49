#ifndef BRYQL_EXEC_PHYSICAL_PROBE_JOIN_H_
#define BRYQL_EXEC_PHYSICAL_PROBE_JOIN_H_

#include <vector>

#include "algebra/physical_plan.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"

namespace bryql {

/// The paper's semi-join and complement-join (Definition 6) against a
/// stored relation, probed in place: Relation::Contains on the key tuple,
/// or a non-empty Relation::Matches on the indexed column. It charges
/// what it reads: its probe child's scans, and one hash probe per probe
/// row. The stored relation is never scanned, so nothing is charged for
/// it. Capacity-1 pulls stay first-witness. In parallel runs every worker
/// probes the const relation.
///
/// `rel` must be the relation `node` was lowered for (PlanRuntime
/// refuses a plan whose relation lost its index or changed arity).
class ProbeJoinOp : public PhysicalOperator {
 public:
  ProbeJoinOp(PhysicalOpPtr probe, const Relation* rel,
              const PhysicalNode& node, PhysicalContext ctx);
  Status Open() override;
  Status NextBatch(TupleBatch* out) override;
  void Close() override { probe_->Close(); }

 private:
  bool HasPartner(const Tuple& t);

  PhysicalOpPtr probe_;
  const Relation* rel_;
  PhysicalContext ctx_;
  bool anti_;
  bool by_index_;
  size_t num_keys_;
  /// Index: the probe column looked up in rel_'s index on index_column_.
  size_t probe_column_ = 0;
  size_t index_column_ = 0;
  /// Contains: the probe column keyed to each column of rel_, in rel_'s
  /// order, unless the probe tuple already is the key.
  std::vector<size_t> key_columns_;
  bool probe_is_key_ = false;
  BatchCursor cursor_;
  Tuple current_;
  Tuple key_;
  bool done_ = false;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_PROBE_JOIN_H_
