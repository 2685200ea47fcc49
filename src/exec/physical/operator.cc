#include "exec/physical/operator.h"

#include "common/failpoints.h"

namespace bryql {

Status DrainToRelation(PhysicalOperator* child, size_t arity,
                       const PhysicalContext& ctx, Relation* out) {
  *out = Relation(arity);
  TupleBatch batch(ctx.batch_size);
  while (true) {
    BRYQL_RETURN_NOT_OK(child->NextBatch(&batch));
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      BRYQL_FAILPOINT("exec.materialize.insert");
      if (!ctx.governor->AdmitMaterialize()) return ctx.governor->status();
      BRYQL_ASSIGN_OR_RETURN(bool fresh, out->Insert(batch[i]));
      if (fresh) ++ctx.stats->tuples_materialized;
    }
  }
  return ctx.governor->status();
}

Status DrainToTable(PhysicalOperator* child, const PhysicalContext& ctx,
                    TupleTable* out) {
  TupleBatch batch(ctx.batch_size);
  while (true) {
    BRYQL_RETURN_NOT_OK(child->NextBatch(&batch));
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      BRYQL_FAILPOINT("exec.hash.insert");
      if (!ctx.governor->AdmitMaterialize()) return ctx.governor->status();
      ++ctx.stats->tuples_materialized;
      out->Add(batch[i]);
    }
  }
  return ctx.governor->status();
}

Status DrainToKeySet(PhysicalOperator* child,
                     const std::vector<size_t>& key_columns,
                     const PhysicalContext& ctx, TupleTable* out) {
  TupleBatch batch(ctx.batch_size);
  while (true) {
    BRYQL_RETURN_NOT_OK(child->NextBatch(&batch));
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      BRYQL_FAILPOINT("exec.hash.insert");
      if (out->InsertKey(batch[i], key_columns)) {
        if (!ctx.governor->AdmitMaterialize()) return ctx.governor->status();
        ++ctx.stats->tuples_materialized;
      } else if (!ctx.governor->Tick()) {
        return ctx.governor->status();
      }
    }
  }
  return ctx.governor->status();
}

Status DrainToSet(PhysicalOperator* child, const PhysicalContext& ctx,
                  TupleTable* out) {
  TupleBatch batch(ctx.batch_size);
  while (true) {
    BRYQL_RETURN_NOT_OK(child->NextBatch(&batch));
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      BRYQL_FAILPOINT("exec.materialize.insert");
      if (out->Insert(batch[i])) {
        if (!ctx.governor->AdmitMaterialize()) return ctx.governor->status();
        ++ctx.stats->tuples_materialized;
      } else if (!ctx.governor->Tick()) {
        return ctx.governor->status();
      }
    }
  }
  return ctx.governor->status();
}

}  // namespace bryql
