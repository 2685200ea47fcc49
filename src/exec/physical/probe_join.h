#ifndef BRYQL_EXEC_PHYSICAL_PROBE_JOIN_H_
#define BRYQL_EXEC_PHYSICAL_PROBE_JOIN_H_

#include <vector>

#include "algebra/physical_plan.h"
#include "exec/physical/operator.h"
#include "storage/relation.h"

namespace bryql {

/// True when `rel` can answer `node`'s (a kProbeJoin) probes in place.
/// Relation::Matches is empty for an unindexed column, so a plan whose
/// index has since gone (a stale plan, or a relation replaced by Put)
/// must run the hash join over its build child instead.
bool ProbesInPlace(const PhysicalNode& node, const Relation& rel);

/// What the hash join would have admitted building `node`'s build side
/// over `rel`: |rel| scanned, and |rel| (contains) or twice the distinct
/// values of the indexed column (index: the projection's dedup set, then
/// the key set) materialized.
struct BuildCharge {
  size_t scanned = 0;
  size_t materialized = 0;
};
BuildCharge SkippedBuildCharge(const PhysicalNode& node, const Relation& rel);

/// Admits `charge` through `governor` (scans first, as the hash build
/// does) and adds it to `stats`.
Status ApplyCharge(const BuildCharge& charge, ResourceGovernor* governor,
                   ExecStats* stats);

/// The paper's semi-join and complement-join (Definition 6) against a
/// stored relation, probed in place: Relation::Contains on the key tuple,
/// or a non-empty Relation::Matches on the indexed column. The build side
/// is never drained; Open applies `charge`, what the hash build would
/// have admitted, so counters and budget verdicts match the hash plan.
/// Probes count as hash probes, and capacity-1 pulls stay first-witness.
///
/// In parallel runs the coordinator charges once and every worker gets a
/// zero charge, probing the const relation only.
class ProbeJoinOp : public PhysicalOperator {
 public:
  ProbeJoinOp(PhysicalOpPtr probe, const Relation* rel,
              const PhysicalNode& node, BuildCharge charge,
              PhysicalContext ctx);
  Status Open() override;
  Status NextBatch(TupleBatch* out) override;
  void Close() override { probe_->Close(); }

 private:
  bool HasPartner(const Tuple& t);

  PhysicalOpPtr probe_;
  const Relation* rel_;
  BuildCharge charge_;
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
