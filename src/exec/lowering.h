#ifndef BRYQL_EXEC_LOWERING_H_
#define BRYQL_EXEC_LOWERING_H_

#include "algebra/expr.h"
#include "algebra/physical_plan.h"
#include "common/result.h"
#include "exec/executor.h"
#include "storage/database.h"

namespace bryql {

/// Lowers a logical algebra expression to an executable physical plan.
///
/// This is the layer where physical decisions become explicit,
/// inspectable plan structure, made once per plan instead of at
/// evaluation time:
///
///   * access paths — σ_{col=value}(scan) over an indexed column becomes
///     an IndexScan with the remaining conjuncts as a residual filter,
///     and any other σ_pred(scan) a TableScan with the predicate fused
///     in (zone-pruned when the relation has zone maps as it runs);
///   * join algorithm — the whole join family (inner, semi,
///     complement/anti, outer, mark) lowers to HashJoin, and
///     difference/intersection lower to whole-tuple-key semi/anti joins
///     of the same family; a semi/anti join whose build side is a stored
///     relation (or an indexed π_c of one) takes that relation as its
///     build, undrained, as a ProbeJoin;
///   * build-side placement — inner hash joins build on whichever input
///     the cost model estimates strictly smaller (ties build right);
///   * cost annotations — every node carries the cost model's row/cost
///     estimates, surfaced by the physical EXPLAIN.
///
/// The resulting plan is immutable and holds no catalog pointers (base
/// relations are referenced by name), so it can live in a plan cache and
/// be instantiated against the database many times by PlanRuntime.
///
/// Validation matches Executor::Evaluate: `expr` must be well-formed
/// (Expr::Arity succeeds on every node); depth limits are the caller's
/// concern because they are a property of the governor, not the plan.
///
/// No ExecOptions field shapes a plan (batch size is read when the plan
/// runs); `options` is kept only because existing callers pass it.
Result<PhysicalPlanPtr> LowerPlan(const Database& db,
                                  const ExecOptions& options,
                                  const ExprPtr& expr);

}  // namespace bryql

#endif  // BRYQL_EXEC_LOWERING_H_
