#ifndef BRYQL_EXEC_PHYSICAL_RUNTIME_H_
#define BRYQL_EXEC_PHYSICAL_RUNTIME_H_

#include "algebra/physical_plan.h"
#include "common/batch.h"
#include "common/governor.h"
#include "common/result.h"
#include "exec/physical/operator.h"
#include "exec/stats.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace bryql {

/// Instantiates a lowered PhysicalNode tree into a fresh operator tree and
/// drives it. A PlanRuntime is per-run state: the same (cached) plan can be
/// handed to many runtimes, each with its own governor and stats sink.
///
/// Instantiation follows one protocol whatever the batch size: the
/// "exec.iterator.open" failpoint and a plan-depth admission fire per node,
/// "exec.scan.open" per base-table scan, and every operator is wrapped in a
/// timing decorator feeding ExecStats::operator_stats.
class PlanRuntime {
 public:
  /// `shared` is null for a serial run; the ParallelRuntime passes its
  /// registry here when instantiating per-worker trees, which redirects
  /// scans/builds/dedup state to the shared structures (see
  /// PhysicalContext::shared).
  PlanRuntime(const Database* db, size_t batch_size, ExecStats* stats,
              ResourceGovernor* governor,
              const ParallelShared* shared = nullptr)
      : ctx_{db, stats, governor, batch_size == 0 ? 1 : batch_size,
             shared} {}

  /// Materializes the plan's full answer.
  Result<Relation> Run(const PhysicalPlanPtr& plan);

  /// Evaluates a boolean plan (kNonEmpty / kBoolNot / kBoolAnd / kBoolOr)
  /// with short-circuiting; a non-boolean plan must have arity 0 and is
  /// true iff its answer is non-empty. The non-emptiness test pulls a
  /// single capacity-1 batch — the paper's first-witness semantics.
  Result<bool> RunBool(const PhysicalPlanPtr& plan);

  /// Instantiates the operator tree without driving it — the parallel
  /// runtime's entry point (each worker drives its own tree).
  Result<PhysicalOpPtr> Instantiate(const PhysicalPlanPtr& plan) {
    return Build(plan, 0);
  }

 private:
  Result<PhysicalOpPtr> Build(const PhysicalPlanPtr& node, size_t depth);

  PhysicalContext ctx_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_RUNTIME_H_
