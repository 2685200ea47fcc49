#ifndef BRYQL_CORE_QUERY_PROCESSOR_H_
#define BRYQL_CORE_QUERY_PROCESSOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <variant>

#include "algebra/expr.h"
#include "algebra/physical_plan.h"
#include "calculus/parser.h"
#include "calculus/views.h"
#include "common/governor.h"
#include "common/result.h"
#include "core/plan_cache.h"
#include "exec/executor.h"
#include "exec/stats.h"
#include "rewrite/rewriter.h"
#include "storage/database.h"
#include "translate/translator.h"

namespace bryql {

/// End-to-end evaluation strategies (DESIGN.md experiment index).
enum class Strategy {
  /// The paper's method: canonical form + improved translation
  /// (complement-joins, constrained outer-joins, no division).
  kBry,
  /// The paper's method with the literal case-5 division translation
  /// where applicable (ablation E10).
  kBryDivision,
  /// Universal quantifications by count comparison — the Quel baseline
  /// the paper's introduction criticizes.
  kQuelCounting,
  /// The paper's method with disjunctive filters as unions (ablation E6).
  kBryUnionFilters,
  /// The conventional reduction [COD 72, PAL 72, JS 82, CG 85]:
  /// prenex form, cartesian product of ranges, divisions for ∀.
  kClassical,
  /// The Figure 1 one-tuple-at-a-time nested loops, straight on the
  /// calculus.
  kNestedLoop,
};

const char* StrategyName(Strategy strategy);

/// The answer to a query: a truth value for closed queries, a relation for
/// open ones.
struct Answer {
  bool closed = false;
  bool truth = false;   // meaningful when closed
  Relation relation{0};  // meaningful when open

  std::string ToString() const;
};

/// Everything produced along the way, for EXPLAIN-style reporting and the
/// benchmarks.
struct Execution {
  /// The strategy that produced this execution. A degraded service reply
  /// names the engine that answered, which may differ from the request's.
  Strategy strategy = Strategy::kBry;
  Query query;
  FormulaPtr canonical;      // null for kNestedLoop on the raw formula
  ExprPtr plan;              // null for kNestedLoop
  PhysicalPlanPtr physical;  // lowered plan; null for kNestedLoop
  size_t rewrite_steps = 0;
  /// True when this run reused a cached PreparedQuery and therefore did
  /// no parse/rewrite/translate/lower work.
  bool plan_cache_hit = false;
  Answer answer;
  ExecStats stats;
};

/// A fully prepared query: everything that does not depend on the data —
/// parse, canonical form, logical plan, lowered physical plan — computed
/// once and immutable thereafter. Obtained from QueryProcessor::Prepare
/// and reusable across any number of Execute calls (and across threads:
/// execution state lives in per-run operator trees, never in the plan).
struct PreparedQuery {
  std::string text;
  Strategy strategy = Strategy::kBry;
  Query query;
  FormulaPtr canonical;      // null for kClassical (no canonical phase)
  ExprPtr plan;              // null for kNestedLoop
  PhysicalPlanPtr physical;  // null for kNestedLoop
  size_t rewrite_steps = 0;
  /// Catalog version the plans were prepared against. Execute
  /// re-prepares from `text` when the catalog has moved: arities and
  /// access paths may have changed.
  uint64_t db_version = 0;
};

/// Preparation-work counters, one per pipeline phase. They advance only
/// when the corresponding work actually runs, so a plan-cache hit is
/// observable as a Run that advances none of them.
struct PrepareCounters {
  size_t parses = 0;
  size_t normalizations = 0;
  size_t translations = 0;
  size_t lowerings = 0;
};

/// The two-phase query processor of the paper: normalization into
/// canonical form (§2) followed by translation into relational algebra
/// (§3) and evaluation, with pluggable strategies for comparison.
///
/// Repeated queries take a prepared fast path: Run consults a bounded LRU
/// plan cache keyed on (query text, strategy, plan-shaping options), so
/// the second run of a query skips parse → rewrite → translate → lower
/// entirely and goes straight to plan instantiation. Prepare/Execute
/// expose the same split to callers that want to hold on to a plan.
class QueryProcessor {
 public:
  /// `db` must outlive the processor. `plan_cache_capacity` bounds the
  /// LRU plan cache (tests shrink it to force churn).
  explicit QueryProcessor(
      const Database* db,
      size_t plan_cache_capacity = PlanCache::kDefaultCapacity)
      : db_(db), cache_(plan_cache_capacity) {}

  /// Registers views (Definition 1); atoms over view names are expanded
  /// before normalization. `views` must outlive the processor.
  /// Invalidates the plan cache (cached plans baked the old expansions in).
  void SetViews(const ViewSet* views) {
    views_ = views;
    cache_.Clear();
  }

  /// Evaluates otherwise-unrestricted queries under the Domain Closure
  /// Assumption (§2.1) by inserting `dom` range atoms where quantified or
  /// target variables lack a range. Off by default: unrestricted queries
  /// are rejected with kUnsupported. Invalidates the plan cache.
  void EnableDomainClosure(bool on = true) {
    domain_closure_ = on;
    cache_.Clear();
  }

  /// Physical execution knobs used by every subsequent run (batch size).
  /// They are read when a plan runs, never when it is lowered, so cached
  /// plans stay valid.
  void SetExecOptions(const ExecOptions& options) { exec_options_ = options; }
  const ExecOptions& exec_options() const { return exec_options_; }

  /// Parses and runs `text` under `strategy`, governed by `options`:
  /// parsing honours max_query_bytes / max_formula_depth, normalization
  /// honours max_rewrite_steps, and every evaluation strategy honours the
  /// deadline, the tuple budgets and the cancellation token. Violations
  /// surface as kResourceExhausted / kDeadlineExceeded / kCancelled; the
  /// default options impose no deadline and no tuple budgets, only the
  /// structural guards that keep adversarial inputs from crashing.
  ///
  /// Preparation is served from the plan cache when possible (see
  /// Execution::plan_cache_hit); one governor spans all phases either way.
  Result<Execution> Run(const std::string& text,
                        Strategy strategy = Strategy::kBry,
                        const QueryOptions& options = {}) const;

  /// Runs an already-parsed query. Parse-phase limits in `options` do not
  /// apply (there is nothing left to parse); max_formula_depth still does.
  /// Bypasses the plan cache (there is no text to key on).
  Result<Execution> RunQuery(const Query& query,
                             Strategy strategy = Strategy::kBry,
                             const QueryOptions& options = {}) const;

  /// Produces the canonical form and plans without executing (EXPLAIN).
  Result<Execution> Explain(const std::string& text,
                            Strategy strategy = Strategy::kBry,
                            const QueryOptions& options = {}) const;

  /// Prepares `text` for repeated execution: parse → normalize →
  /// translate → lower, served from the plan cache when possible. The
  /// result is immutable and valid indefinitely; Execute revalidates it
  /// against the catalog version.
  Result<PreparedQueryPtr> Prepare(const std::string& text,
                                   Strategy strategy = Strategy::kBry,
                                   const QueryOptions& options = {}) const;

  /// Executes a prepared query. No parse/rewrite/translate/lower work
  /// happens here unless the catalog version moved since preparation;
  /// then the handle's text is prepared through the plan cache, exactly
  /// as Run would, so only the first such Execute after a move pays for
  /// it.
  Result<Execution> Execute(const PreparedQueryPtr& prepared,
                            const QueryOptions& options = {}) const;

  /// Plan-cache observability (hits / misses / evictions, current size).
  PlanCacheStats cache_stats() const { return cache_.stats(); }
  size_t cache_size() const { return cache_.size(); }

  /// Drops every cached plan; the next Run/Prepare of any query pays the
  /// full preparation pipeline again. Counters in cache_stats() survive.
  void ClearPlanCache() const { cache_.Clear(); }

  /// A snapshot of the phase-work counters since construction. Increments
  /// are mutex-guarded, so concurrent Run/Prepare calls never lose a
  /// count; the snapshot is consistent (taken under the same lock).
  PrepareCounters prepare_counters() const {
    std::lock_guard<std::mutex> lock(counter_mutex_);
    return prepare_counters_;
  }

 private:
  /// Advances one preparation-phase counter (thread-safe).
  void CountPhase(size_t PrepareCounters::*field) const {
    std::lock_guard<std::mutex> lock(counter_mutex_);
    ++(prepare_counters_.*field);
  }

  /// Normalization + translation on a parsed query (no cache, no parse).
  Result<Execution> BuildExecution(const Query& query, Strategy strategy,
                                   const QueryOptions& options,
                                   ResourceGovernor* governor) const;
  Result<PreparedQueryPtr> PrepareInternal(const std::string& text,
                                           Strategy strategy,
                                           const QueryOptions& options,
                                           ResourceGovernor* governor,
                                           bool* cache_hit) const;
  /// Parse → normalize → translate → lower, stamped with the current
  /// catalog version. No cache.
  Result<PreparedQueryPtr> PrepareFromText(const std::string& text,
                                           Strategy strategy,
                                           const QueryOptions& options,
                                           ResourceGovernor* governor) const;
  Result<Execution> ExecuteInternal(const PreparedQuery& prepared,
                                    ResourceGovernor* governor) const;
  std::string CacheKey(const std::string& text, Strategy strategy,
                       const QueryOptions& options) const;

  const Database* db_;
  const ViewSet* views_ = nullptr;
  bool domain_closure_ = false;
  ExecOptions exec_options_;
  mutable PlanCache cache_;
  mutable std::mutex counter_mutex_;
  mutable PrepareCounters prepare_counters_;
};

}  // namespace bryql

#endif  // BRYQL_CORE_QUERY_PROCESSOR_H_
