#include "exec/physical/runtime.h"

#include <chrono>
#include <exception>
#include <new>
#include <string>
#include <utility>

#include "common/failpoints.h"
#include "exec/physical/division.h"
#include "exec/physical/filter.h"
#include "exec/physical/hash_join.h"
#include "exec/physical/parallel.h"
#include "exec/physical/scan.h"
#include "exec/physical/set_ops.h"

namespace bryql {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Decorator feeding ExecStats::operator_stats, and the engine's
/// exception-isolation barrier: every Open/NextBatch/Close dispatch runs
/// inside try/catch, so a throwing operator — std::bad_alloc under memory
/// pressure, a std::exception escaping operator code, or the
/// "exec.physical.throw" failpoint simulating either — surfaces as a
/// well-formed kInternal naming the operator instead of unwinding out of
/// PlanRuntime::Run (or, worse, out of a ThreadPool worker closure, which
/// would terminate the process). It holds an *index* into the stats
/// vector, not a pointer — the vector grows while the plan is being
/// instantiated.
///
/// Clocking rule: Open and every NextBatch of a plan root (depth 0) are
/// timed, and so is any pull asking for more than one row. A capacity-1
/// pull below the root — the first-witness test reading its probe side
/// row by row — is only counted: two clock reads cost more than the row
/// it moves, and its time is already inside the root's clock.
class TimedOp : public PhysicalOperator {
 public:
  TimedOp(PhysicalOpPtr inner, std::string label, ExecStats* stats,
          size_t index, size_t depth, ResourceGovernor* governor)
      : inner_(std::move(inner)), label_(std::move(label)), stats_(stats),
        index_(index), is_root_(depth == 0), governor_(governor) {}
  Status Open() override {
    const uint64_t start = NowNs();
    Status status = Guarded([&] {
      BRYQL_FAILPOINT_THROW("exec.physical.throw");
      return inner_->Open();
    });
    stats_->operator_stats[index_].open_ns += NowNs() - start;
    return status;
  }
  Status NextBatch(TupleBatch* out) override {
    const bool clocked = is_root_ || out->capacity() > 1;
    const uint64_t start = clocked ? NowNs() : 0;
    Status status = Guarded([&] {
      BRYQL_FAILPOINT_THROW("exec.physical.throw");
      return inner_->NextBatch(out);
    });
    OperatorStats& os = stats_->operator_stats[index_];
    if (clocked) {
      os.next_ns += NowNs() - start;
    } else {
      ++os.unclocked_batches;
    }
    ++os.batches;
    os.rows += out->size();
    return status;
  }
  void Close() override {
    // Close is void; a throw here is contained by latching the governor,
    // so the run still finishes with a non-OK Status instead of a crash.
    Status status = Guarded([&] {
      inner_->Close();
      return Status::Ok();
    });
    if (!status.ok() && governor_ != nullptr) governor_->Trip(status);
  }

 private:
  template <typename Fn>
  Status Guarded(const Fn& fn) {
    // ContainedException (still kInternal) rather than Internal: the tag
    // marks the retryable barrier class for the service layer, while a
    // deterministic invariant breach stays a plain, non-retried Internal.
    try {
      return fn();
    } catch (const std::bad_alloc&) {
      return Status::ContainedException("operator '" + label_ +
                                        "' ran out of memory (bad_alloc)");
    } catch (const std::exception& e) {
      return Status::ContainedException("operator '" + label_ +
                                        "' threw: " + e.what());
    } catch (...) {
      return Status::ContainedException("operator '" + label_ +
                                        "' threw a non-standard exception");
    }
  }

  PhysicalOpPtr inner_;
  std::string label_;
  ExecStats* stats_;
  size_t index_;
  bool is_root_;
  ResourceGovernor* governor_;
};

/// The stored relation `node` (a scan or probe join) reads, refused
/// unless it is still what the plan was lowered for: its arity (the key
/// count of a contains probe), and the index it reads through. Zone maps
/// are not part of it: a scan consults them when it runs. Every stored
/// relation enters a plan at such a node, so a plan runs only on the
/// catalog it was lowered for. QueryProcessor
/// re-prepares stale plans from their text, so only a physical plan run
/// by hand gets here; running on would answer wrongly (Matches is empty
/// for an unindexed column) or read past the end of a row.
Result<const Relation*> LoweredRelation(const Database& db,
                                        const PhysicalNode& node) {
  BRYQL_ASSIGN_OR_RETURN(const Relation* rel, db.Get(node.relation_name));
  const bool by_index =
      node.kind == PhysicalKind::kIndexScan || node.probe_by_index;
  const size_t arity =
      node.kind == PhysicalKind::kProbeJoin ? node.keys.size() : node.arity;
  std::string lost;
  if (!node.probe_by_index && rel->arity() != arity) {
    lost = "arity " + std::to_string(arity);
  } else if (by_index && !rel->HasIndex(node.index_column)) {
    lost = "an index on column " + std::to_string(node.index_column);
  } else {
    return rel;
  }
  return Status::InvalidArgument("stale plan: relation '" +
                                 node.relation_name + "' no longer has " +
                                 lost + ", which the plan was lowered for");
}

}  // namespace

Result<PhysicalOpPtr> PlanRuntime::Build(const PhysicalPlanPtr& node,
                                         size_t depth) {
  // Operator instantiation: fault-injection site, plan-depth admission,
  // and a deadline/cancellation poll before any child work starts, once
  // per node whatever the batch size.
  BRYQL_FAILPOINT("exec.iterator.open");
  GovernorDepthGuard depth_guard(ctx_.governor);
  if (!depth_guard.ok()) return ctx_.governor->status();
  BRYQL_RETURN_NOT_OK(ctx_.governor->CheckNow());
  ++ctx_.stats->operators;
  const size_t op_index = ctx_.stats->operator_stats.size();
  ctx_.stats->operator_stats.push_back(
      OperatorStats{node->Label(), depth});

  PhysicalOpPtr op;
  // Parallel workers: a node the coordinator already materialized (a
  // blocking operator, a boolean subtree, …) is replaced wholesale by a
  // scan over the shared result — morsel-partitioned, with no admissions,
  // exactly like the serial operator's RelationSourceOp output would be.
  if (ctx_.shared != nullptr) {
    if (const Relation* rel = ctx_.shared->FindRelation(node.get())) {
      op = PhysicalOpPtr(new BorrowedRelationScanOp(
          rel, ctx_.shared->FindMorsels(node.get())));
      return PhysicalOpPtr(new TimedOp(std::move(op), node->Label(),
                                       ctx_.stats, op_index, depth,
                                       ctx_.governor));
    }
  }
  // In serial runs every Find* below is a null `shared` short-circuit;
  // the decisions are per *node*, so the per-tuple hot paths are shared
  // between both modes unchanged.
  MorselSource* morsels =
      ctx_.shared == nullptr ? nullptr : ctx_.shared->FindMorsels(node.get());
  switch (node->kind) {
    case PhysicalKind::kTableScan: {
      BRYQL_FAILPOINT("exec.scan.open");
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             LoweredRelation(*ctx_.db, *node));
      op = PhysicalOpPtr(new ScanOp(rel, node->predicate, ctx_, morsels));
      break;
    }
    case PhysicalKind::kLiteralScan: {
      op = PhysicalOpPtr(
          new ScanOp(node->literal.get(), nullptr, ctx_, morsels));
      break;
    }
    case PhysicalKind::kIndexScan: {
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             LoweredRelation(*ctx_.db, *node));
      ++ctx_.stats->hash_probes;
      op = PhysicalOpPtr(new IndexScanOp(
          rel, rel->Matches(node->index_column, node->index_value),
          node->predicate, ctx_, morsels));
      break;
    }
    case PhysicalKind::kFilter: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr child,
                             Build(node->children[0], depth + 1));
      op = PhysicalOpPtr(
          new FilterOp(std::move(child), node->predicate, ctx_));
      break;
    }
    case PhysicalKind::kProject: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr child,
                             Build(node->children[0], depth + 1));
      ShardedTupleSet* seen =
          ctx_.shared == nullptr ? nullptr : ctx_.shared->FindSeen(node.get());
      op = PhysicalOpPtr(
          new ProjectOp(std::move(child), node->columns, ctx_, seen));
      break;
    }
    case PhysicalKind::kProduct: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left,
                             Build(node->children[0], depth + 1));
      // Parallel workers: the coordinator drained the right side once
      // (with the serial per-tuple admissions) and registered it; every
      // worker's product borrows those rows instead of re-draining —
      // which would multiply the admission count by the worker count.
      if (ctx_.shared != nullptr) {
        if (const Relation* rel =
                ctx_.shared->FindRelation(node->children[1].get())) {
          op = PhysicalOpPtr(new ProductOp(std::move(left), rel, ctx_));
          break;
        }
      }
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right,
                             Build(node->children[1], depth + 1));
      op = PhysicalOpPtr(new ProductOp(std::move(left), std::move(right),
                                       node->children[1]->arity, ctx_));
      break;
    }
    case PhysicalKind::kProbeJoin: {
      BRYQL_ASSIGN_OR_RETURN(const Relation* rel,
                             LoweredRelation(*ctx_.db, *node));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr probe,
                             Build(node->children[0], depth + 1));
      op = PhysicalOpPtr(new HashJoinOp(std::move(probe), rel, *node, ctx_));
      break;
    }
    case PhysicalKind::kHashJoin: {
      // Parallel workers: a pre-built SharedJoinBuild replaces the build
      // side wholesale — only the probe child is instantiated, and the
      // build-side slot stays null.
      const SharedJoinBuild* shared_build =
          ctx_.shared == nullptr ? nullptr : ctx_.shared->FindBuild(node.get());
      if (shared_build != nullptr) {
        const size_t probe_index = node->build_left ? 1 : 0;
        BRYQL_ASSIGN_OR_RETURN(
            PhysicalOpPtr probe, Build(node->children[probe_index], depth + 1));
        PhysicalOpPtr left = probe_index == 0 ? std::move(probe) : nullptr;
        PhysicalOpPtr right = probe_index == 1 ? std::move(probe) : nullptr;
        op = PhysicalOpPtr(new HashJoinOp(
            std::move(left), std::move(right), node->keys, node->variant,
            node->predicate, node->build_left, node->pad_arity, ctx_,
            shared_build));
        break;
      }
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left,
                             Build(node->children[0], depth + 1));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right,
                             Build(node->children[1], depth + 1));
      op = PhysicalOpPtr(new HashJoinOp(
          std::move(left), std::move(right), node->keys, node->variant,
          node->predicate, node->build_left, node->pad_arity, ctx_));
      break;
    }
    case PhysicalKind::kDivision: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left,
                             Build(node->children[0], depth + 1));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right,
                             Build(node->children[1], depth + 1));
      op = PhysicalOpPtr(new DivisionOp(std::move(left), std::move(right),
                                        node->children[0]->arity,
                                        node->children[1]->arity, ctx_));
      break;
    }
    case PhysicalKind::kGroupDivision: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left,
                             Build(node->children[0], depth + 1));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right,
                             Build(node->children[1], depth + 1));
      op = PhysicalOpPtr(new GroupDivisionOp(
          std::move(left), std::move(right), node->children[0]->arity,
          node->children[1]->arity, node->group_arity, ctx_));
      break;
    }
    case PhysicalKind::kGroupCount: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr child,
                             Build(node->children[0], depth + 1));
      op = PhysicalOpPtr(
          new GroupCountOp(std::move(child), node->group_arity, ctx_));
      break;
    }
    case PhysicalKind::kUnion: {
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr left,
                             Build(node->children[0], depth + 1));
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr right,
                             Build(node->children[1], depth + 1));
      ShardedTupleSet* seen =
          ctx_.shared == nullptr ? nullptr : ctx_.shared->FindSeen(node.get());
      op = PhysicalOpPtr(
          new UnionOp(std::move(left), std::move(right), ctx_, seen));
      break;
    }
    case PhysicalKind::kNonEmpty:
    case PhysicalKind::kBoolNot:
    case PhysicalKind::kBoolAnd:
    case PhysicalKind::kBoolOr: {
      // A boolean subtree in relational context evaluates to the 0-ary
      // relation {()} (true) or {} (false).
      BRYQL_ASSIGN_OR_RETURN(bool value, RunBool(node));
      Relation rel(0);
      if (value) {
        BRYQL_RETURN_NOT_OK(rel.Insert(Tuple{}).status());
      }
      op = PhysicalOpPtr(new RelationSourceOp(std::move(rel)));
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown physical kind");
  return PhysicalOpPtr(new TimedOp(std::move(op), node->Label(), ctx_.stats,
                                   op_index, depth, ctx_.governor));
}

Result<Relation> PlanRuntime::Run(const PhysicalPlanPtr& plan) {
  BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr op, Build(plan, 0));
  BRYQL_RETURN_NOT_OK(op->Open());
  Relation rel(plan->arity);
  Status drained = DrainToRelation(op.get(), plan->arity, ctx_, &rel);
  op->Close();
  BRYQL_RETURN_NOT_OK(drained);
  // A fault contained during Close (exception barrier) latches the
  // governor rather than interrupting the drain; don't report a clean
  // answer over it.
  BRYQL_RETURN_NOT_OK(ctx_.governor->status());
  return rel;
}

Result<bool> PlanRuntime::RunBool(const PhysicalPlanPtr& plan) {
  switch (plan->kind) {
    case PhysicalKind::kNonEmpty: {
      // The paper's non-emptiness test: pull a single witness.
      BRYQL_ASSIGN_OR_RETURN(PhysicalOpPtr op,
                             Build(plan->children[0], 0));
      BRYQL_RETURN_NOT_OK(op->Open());
      TupleBatch batch(1);
      Status status = op->NextBatch(&batch);
      op->Close();
      BRYQL_RETURN_NOT_OK(status);
      // A tripped governor must not masquerade as "empty".
      BRYQL_RETURN_NOT_OK(ctx_.governor->status());
      return !batch.empty();
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
