#include "exec/physical/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/failpoints.h"
#include "common/thread_pool.h"
#include "exec/physical/runtime.h"

namespace bryql {

namespace {

/// Upper bound on partitions per query: each worker instantiates its own
/// operator tree, so an adversarial num_threads must not translate into
/// unbounded allocation. Far above any useful degree on real hardware.
constexpr size_t kMaxWorkers = 64;

/// The witness-vs-budget race (see class comment): under a finite tuple
/// budget the serial engine deterministically either finds the witness or
/// trips, depending on scan order; racing workers would make that verdict
/// scheduling-dependent.
bool HasFiniteTupleBudget(const QueryOptions& options) {
  return options.max_scanned_tuples != 0 ||
         options.max_materialized_tuples != 0;
}

}  // namespace

ParallelRuntime::ParallelRuntime(const Database* db, size_t batch_size,
                                 ExecStats* stats,
                                 ResourceGovernor* governor,
                                 size_t num_threads)
    : db_(db), batch_size_(batch_size == 0 ? 1 : batch_size), stats_(stats),
      governor_(governor),
      workers_(std::max<size_t>(1, std::min(num_threads, kMaxWorkers))) {}

Status ParallelRuntime::RunPhase(
    const PhysicalPlanPtr& spine_root,
    const std::function<Status(size_t, PhysicalOperator*, PhysicalContext&,
                               SharedBudget*)>& consume) {
  SharedBudget budget(*governor_);
  std::vector<ExecStats> worker_stats(workers_);
  RunOnWorkers(ThreadPool::Shared(), workers_, [&](size_t w) {
    ResourceGovernor shard(&budget);
    PlanRuntime runtime(db_, batch_size_, &worker_stats[w], &shard,
                        &shared_);
    Status status = [&]() -> Status {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr op,
                             runtime.Instantiate(spine_root));
      BRYQL_RETURN_NOT_OK(op->Open());
      PhysicalContext ctx{db_, &worker_stats[w], &shard, batch_size_,
                          &shared_};
      Status consumed = consume(w, op.get(), ctx, &budget);
      op->Close();
      return consumed;
    }();
    // The final chunk of this worker's counts, and the budget check a
    // mid-chunk stop would otherwise have skipped.
    Status reconciled = shard.Reconcile();
    if (status.ok()) status = reconciled;
    if (!status.ok() && !shard.early_stopped()) budget.Trip(status);
  });
  // Per-worker stats merge: totals add up; operator_stats concatenates,
  // so a parallel report lists each spine operator once per worker.
  for (const ExecStats& ws : worker_stats) stats_->Add(ws);
  governor_->AbsorbShared(budget);
  return governor_->status();
}

Result<Relation> ParallelRuntime::MaterializeSerial(
    const PhysicalPlanPtr& node, bool counted) {
  PlanRuntime runtime(db_, batch_size_, stats_, governor_);
  if (counted) return runtime.Run(node);
  BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr op, runtime.Instantiate(node));
  BRYQL_RETURN_NOT_OK(op->Open());
  Relation rel(node->arity);
  TupleBatch batch(batch_size_);
  Status status;
  while (status.ok()) {
    status = op->NextBatch(&batch);
    if (!status.ok() || batch.empty()) break;
    for (size_t i = 0; i < batch.size() && status.ok(); ++i) {
      status = rel.Insert(batch[i]).status();
    }
  }
  op->Close();
  BRYQL_RETURN_NOT_OK(status);
  BRYQL_RETURN_NOT_OK(governor_->status());
  return rel;
}

Status ParallelRuntime::BuildJoinShared(const PhysicalPlanPtr& node) {
  const PhysicalPlanPtr& build_child =
      node->build_left ? node->children[0] : node->children[1];
  BRYQL_RETURN_NOT_OK(PrepareSpine(build_child));
  const bool table_mode = node->variant == JoinVariant::kInner ||
                          node->variant == JoinVariant::kLeftOuter;
  auto owned = std::make_unique<SharedJoinBuild>(
      table_mode, KeyColumns(node->keys, /*left=*/node->build_left));
  SharedJoinBuild* build = owned.get();
  shared_.builds.emplace(node.get(), std::move(owned));
  // The parallel counterpart of DrainToTable / DrainToKeySet: same
  // admission rules, same failpoint, the inserts just land in the shared
  // sharded structure — so build-side materialize totals match serial.
  return RunPhase(
      build_child,
      [&](size_t, PhysicalOperator* op, PhysicalContext& ctx,
          SharedBudget*) -> Status {
        TupleBatch batch(ctx.batch_size);
        while (true) {
          BRYQL_RETURN_NOT_OK(op->NextBatch(&batch));
          if (batch.empty()) break;
          for (size_t i = 0; i < batch.size(); ++i) {
            BRYQL_FAILPOINT("exec.hash.insert");
            if (table_mode) {
              if (!ctx.governor->AdmitMaterialize()) {
                return ctx.governor->status();
              }
              ++ctx.stats->tuples_materialized;
              build->Add(batch[i]);
            } else if (build->InsertKey(batch[i])) {
              if (!ctx.governor->AdmitMaterialize()) {
                return ctx.governor->status();
              }
              ++ctx.stats->tuples_materialized;
            } else if (!ctx.governor->Tick()) {
              return ctx.governor->status();
            }
          }
        }
        return ctx.governor->status();
      });
}

Status ParallelRuntime::PrepareSpine(const PhysicalPlanPtr& node) {
  switch (node->kind) {
    case PhysicalKind::kTableScan: {
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             db_->Get(node->relation_name));
      shared_.morsels.emplace(
          node.get(), std::make_unique<MorselSource>(rel->size()));
      return Status::Ok();
    }
    case PhysicalKind::kLiteralScan: {
      shared_.morsels.emplace(node.get(), std::make_unique<MorselSource>(
                                              node->literal->size()));
      return Status::Ok();
    }
    case PhysicalKind::kIndexScan: {
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             db_->Get(node->relation_name));
      shared_.morsels.emplace(
          node.get(),
          std::make_unique<MorselSource>(
              rel->Matches(node->index_column, node->index_value).size()));
      return Status::Ok();
    }
    case PhysicalKind::kFilter:
      return PrepareSpine(node->children[0]);
    case PhysicalKind::kProject: {
      shared_.seen_sets.emplace(node.get(),
                                std::make_unique<ShardedTupleSet>());
      return PrepareSpine(node->children[0]);
    }
    case PhysicalKind::kUnion: {
      shared_.seen_sets.emplace(node.get(),
                                std::make_unique<ShardedTupleSet>());
      BRYQL_RETURN_NOT_OK(PrepareSpine(node->children[0]));
      return PrepareSpine(node->children[1]);
    }
    case PhysicalKind::kProduct: {
      // Serial ProductOp drains its right side with admissions at Open;
      // here the coordinator pays those admissions exactly once and every
      // worker borrows the result.
      BRYQL_ASSIGN_OR_RETURN(
          Relation right,
          MaterializeSerial(node->children[1], /*counted=*/true));
      shared_.relations.emplace(node->children[1].get(),
                                std::make_unique<Relation>(std::move(right)));
      return PrepareSpine(node->children[0]);
    }
    case PhysicalKind::kHashJoin: {
      BRYQL_RETURN_NOT_OK(BuildJoinShared(node));
      return PrepareSpine(node->build_left ? node->children[1]
                                           : node->children[0]);
    }
    case PhysicalKind::kProbeJoin:
      // No build: workers probe the const relation.
      return PrepareSpine(node->children[0]);
    case PhysicalKind::kDivision:
    case PhysicalKind::kGroupDivision:
    case PhysicalKind::kGroupCount: {
      // Blocking operators terminate the spine: computed once, serially
      // (their Opens do their own internal admissions, identical to the
      // serial run), and their *output* is shared uncounted — serial
      // execution streams it to the parent without admissions too.
      BRYQL_ASSIGN_OR_RETURN(Relation rel,
                             MaterializeSerial(node, /*counted=*/false));
      auto owned = std::make_unique<Relation>(std::move(rel));
      shared_.morsels.emplace(
          node.get(), std::make_unique<MorselSource>(owned->size()));
      shared_.relations.emplace(node.get(), std::move(owned));
      return Status::Ok();
    }
    case PhysicalKind::kNonEmpty:
    case PhysicalKind::kBoolNot:
    case PhysicalKind::kBoolAnd:
    case PhysicalKind::kBoolOr: {
      // A boolean subtree in relational context, evaluated through the
      // parallel boolean machinery into the shared 0-ary relation.
      BRYQL_ASSIGN_OR_RETURN(bool value, RunBool(node));
      Relation rel(0);
      if (value) {
        BRYQL_RETURN_NOT_OK(rel.Insert(Tuple{}).status());
      }
      auto owned = std::make_unique<Relation>(std::move(rel));
      shared_.morsels.emplace(
          node.get(), std::make_unique<MorselSource>(owned->size()));
      shared_.relations.emplace(node.get(), std::move(owned));
      return Status::Ok();
    }
  }
  return Status::Internal("unknown physical kind");
}

Result<Relation> ParallelRuntime::Run(const PhysicalPlanPtr& plan) {
  if (plan->kind == PhysicalKind::kNonEmpty ||
      plan->kind == PhysicalKind::kBoolNot ||
      plan->kind == PhysicalKind::kBoolAnd ||
      plan->kind == PhysicalKind::kBoolOr) {
    BRYQL_ASSIGN_OR_RETURN(bool value, RunBool(plan));
    Relation rel(0);
    if (value) {
      BRYQL_RETURN_NOT_OK(rel.Insert(Tuple{}).status());
    }
    return rel;
  }
  BRYQL_RETURN_NOT_OK(PrepareSpine(plan));
  // The final order-insensitive merge: every worker drains its partition
  // of the spine with DrainToRelation's admission rules (admit every
  // tuple, count fresh ones), freshness decided by a dedup set shared
  // across workers so the totals match serial exactly. Fresh rows are
  // collected per worker and assembled after the barrier.
  ShardedTupleSet result_set;
  std::vector<std::vector<Tuple>> worker_rows(workers_);
  BRYQL_RETURN_NOT_OK(RunPhase(
      plan,
      [&](size_t w, PhysicalOperator* op, PhysicalContext& ctx,
          SharedBudget*) -> Status {
        TupleBatch batch(ctx.batch_size);
        while (true) {
          BRYQL_RETURN_NOT_OK(op->NextBatch(&batch));
          if (batch.empty()) break;
          for (size_t i = 0; i < batch.size(); ++i) {
            BRYQL_FAILPOINT("exec.materialize.insert");
            if (!ctx.governor->AdmitMaterialize()) {
              return ctx.governor->status();
            }
            if (result_set.Insert(batch[i])) {
              ++ctx.stats->tuples_materialized;
              worker_rows[w].push_back(batch[i]);
            }
          }
        }
        return ctx.governor->status();
      }));
  Relation rel(plan->arity);
  for (std::vector<Tuple>& rows : worker_rows) {
    for (Tuple& t : rows) {
      BRYQL_RETURN_NOT_OK(rel.Insert(std::move(t)).status());
    }
  }
  return rel;
}

Result<bool> ParallelRuntime::RunBool(const PhysicalPlanPtr& plan) {
  switch (plan->kind) {
    case PhysicalKind::kNonEmpty: {
      if (HasFiniteTupleBudget(governor_->options())) {
        // Deterministic fallback: racing workers against a finite budget
        // would make witness-vs-trip scheduling-dependent.
        PlanRuntime runtime(db_, batch_size_, stats_, governor_);
        return runtime.RunBool(plan);
      }
      const PhysicalPlanPtr& child = plan->children[0];
      BRYQL_RETURN_NOT_OK(PrepareSpine(child));
      // The first-witness race: each worker pulls a single capacity-1
      // batch from its partition; the winner raises the phase's stop
      // flag, which every peer's governor shard observes at its next
      // poll and unwinds without an error.
      std::atomic<bool> found{false};
      BRYQL_RETURN_NOT_OK(RunPhase(
          child,
          [&](size_t, PhysicalOperator* op, PhysicalContext& ctx,
              SharedBudget* budget) -> Status {
            TupleBatch batch(1);
            BRYQL_RETURN_NOT_OK(op->NextBatch(&batch));
            // A tripped governor must not masquerade as "empty".
            BRYQL_RETURN_NOT_OK(ctx.governor->status());
            if (!batch.empty()) {
              found.store(true, std::memory_order_relaxed);
              budget->RequestStop();
            }
            return Status::Ok();
          }));
      return found.load(std::memory_order_relaxed);
    }
    case PhysicalKind::kBoolNot: {
      BRYQL_ASSIGN_OR_RETURN(bool v, RunBool(plan->children[0]));
      return !v;
    }
    case PhysicalKind::kBoolAnd: {
      for (const PhysicalPlanPtr& child : plan->children) {
        BRYQL_ASSIGN_OR_RETURN(bool v, RunBool(child));
        if (!v) return false;  // short-circuit
      }
      return true;
    }
    case PhysicalKind::kBoolOr: {
      for (const PhysicalPlanPtr& child : plan->children) {
        BRYQL_ASSIGN_OR_RETURN(bool v, RunBool(child));
        if (v) return true;  // short-circuit
      }
      return false;
    }
    default: {
      if (plan->arity != 0) {
        return Status::InvalidArgument(
            "boolean evaluation of a plan of arity " +
            std::to_string(plan->arity));
      }
      BRYQL_ASSIGN_OR_RETURN(Relation rel, Run(plan));
      return !rel.empty();
    }
  }
}

}  // namespace bryql
