#include "core/query_processor.h"

#include "algebra/simplifier.h"
#include "calculus/analysis.h"
#include "calculus/range_analysis.h"
#include "nestedloop/nested_loop.h"
#include "rewrite/domain_closure.h"
#include "translate/classical_translator.h"

namespace bryql {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kBry:
      return "bry";
    case Strategy::kBryDivision:
      return "bry-division";
    case Strategy::kQuelCounting:
      return "quel-counting";
    case Strategy::kBryUnionFilters:
      return "bry-union-filters";
    case Strategy::kClassical:
      return "classical";
    case Strategy::kNestedLoop:
      return "nested-loop";
  }
  return "?";
}

std::string Answer::ToString() const {
  if (closed) return truth ? "true" : "false";
  return relation.ToString();
}

namespace {

TranslateOptions OptionsFor(Strategy strategy) {
  TranslateOptions options;
  if (strategy == Strategy::kBryDivision) {
    options.universal = TranslateOptions::Universal::kDivision;
  }
  if (strategy == Strategy::kQuelCounting) {
    options.universal = TranslateOptions::Universal::kCountComparison;
  }
  if (strategy == Strategy::kBryUnionFilters) {
    options.disjunction = TranslateOptions::Disjunction::kUnionOfFilters;
  }
  return options;
}

ParseLimits ParseLimitsFor(const QueryOptions& options) {
  ParseLimits limits;
  limits.max_bytes = options.max_query_bytes;
  limits.max_depth = options.max_formula_depth;
  return limits;
}

/// Answers `query`, whose canonical formula is `canonical`, with the
/// Figure 1 nested loop.
Status AnswerByNestedLoop(const Database* db, ResourceGovernor* governor,
                          const Query& query, const FormulaPtr& canonical,
                          Execution* exec) {
  NestedLoopEvaluator eval(db, governor);
  if (query.closed()) {
    BRYQL_ASSIGN_OR_RETURN(exec->answer.truth, eval.EvaluateClosed(canonical));
    exec->answer.closed = true;
  } else {
    BRYQL_ASSIGN_OR_RETURN(exec->answer.relation,
                           eval.EvaluateOpen(Query{query.targets, canonical}));
  }
  exec->stats = eval.stats();
  return Status::Ok();
}

/// Runs a lowered plan on the batched engine; a closed query's plan is
/// a boolean non-emptiness test.
Status AnswerByPlan(Executor* executor, bool closed,
                    const PhysicalPlanPtr& plan, Execution* exec) {
  if (closed) {
    BRYQL_ASSIGN_OR_RETURN(exec->answer.truth,
                           executor->ExecutePhysicalBool(plan));
    exec->answer.closed = true;
  } else {
    BRYQL_ASSIGN_OR_RETURN(exec->answer.relation,
                           executor->ExecutePhysical(plan));
  }
  exec->stats = executor->stats();
  return Status::Ok();
}

}  // namespace

Result<Execution> QueryProcessor::BuildExecution(
    const Query& raw_query, Strategy strategy, const QueryOptions& options,
    ResourceGovernor* governor) const {
  // Depth is measured iteratively before any recursive pass (view
  // expansion, normalization, translation) walks the formula, so a
  // pathologically deep input is rejected instead of overflowing the
  // stack inside one of those passes.
  if (options.max_formula_depth != 0 &&
      FormulaDepth(raw_query.formula) > options.max_formula_depth) {
    return Status::ResourceExhausted(
        "formula depth " + std::to_string(FormulaDepth(raw_query.formula)) +
        " exceeds max_formula_depth (" +
        std::to_string(options.max_formula_depth) + ")");
  }
  Query query = raw_query;
  if (views_ != nullptr) {
    BRYQL_ASSIGN_OR_RETURN(query, views_->Expand(query));
    if (options.max_formula_depth != 0 &&
        FormulaDepth(query.formula) > options.max_formula_depth) {
      return Status::ResourceExhausted(
          "formula depth after view expansion exceeds max_formula_depth (" +
          std::to_string(options.max_formula_depth) + ")");
    }
  }
  RewriteOptions rewrite_options;
  rewrite_options.max_steps = options.max_rewrite_steps;
  rewrite_options.governor = governor;
  Execution exec;
  exec.strategy = strategy;
  exec.query = query;
  std::set<std::string> targets(query.targets.begin(), query.targets.end());
  if (strategy == Strategy::kClassical) {
    // The conventional methods reduce the raw query directly (prenex
    // form); no canonical form phase.
    CountPhase(&PrepareCounters::translations);
    ClassicalTranslator classical(db_);
    if (query.closed()) {
      BRYQL_ASSIGN_OR_RETURN(exec.plan,
                             classical.TranslateClosed(query.formula));
    } else {
      BRYQL_ASSIGN_OR_RETURN(TranslatedQuery t,
                             classical.TranslateOpen(query));
      exec.plan = t.expr;
    }
    return exec;
  }
  CountPhase(&PrepareCounters::normalizations);
  BRYQL_ASSIGN_OR_RETURN(NormalizeResult norm,
                         NormalizeQuery(query, rewrite_options));
  exec.canonical = norm.formula;
  exec.rewrite_steps = norm.steps();
  if (domain_closure_ && !CheckRestrictedQuery(exec.canonical, targets).ok()) {
    BRYQL_ASSIGN_OR_RETURN(exec.canonical,
                           ApplyDomainClosure(exec.canonical, targets));
  }
  // Figure 1 interprets the calculus directly; the canonical form is
  // still what it answers, so all strategies answer the same question
  // (the interpreter handles ∀ natively, so this is not required, but it
  // keeps the comparison apples-to-apples on the same formula).
  if (strategy == Strategy::kNestedLoop) return exec;
  CountPhase(&PrepareCounters::translations);
  Translator translator(db_, OptionsFor(strategy));
  if (query.closed()) {
    BRYQL_ASSIGN_OR_RETURN(exec.plan,
                           translator.TranslateClosed(exec.canonical));
  } else {
    Query canonical_query{query.targets, exec.canonical};
    BRYQL_ASSIGN_OR_RETURN(TranslatedQuery t,
                           translator.TranslateOpen(canonical_query));
    exec.plan = t.expr;
  }
  // Plan cleanup: drop identity projections, merge selections, fold
  // statically empty inputs. Never changes results.
  BRYQL_ASSIGN_OR_RETURN(exec.plan, SimplifyPlan(exec.plan, *db_));
  return exec;
}

std::string QueryProcessor::CacheKey(const std::string& text,
                                     Strategy strategy,
                                     const QueryOptions& options) const {
  // Everything that shapes the prepared artifacts must be in the key:
  // the strategy and translation-affecting processor state, and the
  // structural limits (a plan prepared under lax limits must not satisfy
  // a stricter run). Batch size and thread count are deliberately absent
  // — they pick how a plan is *driven*, not what it is, and Execute
  // consults them directly. Views are handled by invalidation (SetViews
  // clears the cache); the catalog by the version each entry records.
  std::string key = StrategyName(strategy);
  key += '\x1f';
  key += domain_closure_ ? '1' : '0';
  key += '\x1f';
  key += std::to_string(options.max_formula_depth);
  key += ':';
  key += std::to_string(options.max_rewrite_steps);
  key += ':';
  key += std::to_string(options.max_query_bytes);
  key += '\x1f';
  key += text;
  return key;
}

Result<PreparedQueryPtr> QueryProcessor::PrepareInternal(
    const std::string& text, Strategy strategy, const QueryOptions& options,
    ResourceGovernor* governor, bool* cache_hit) const {
  // A cache-bypass run (degradation rung: "the cached plan may be the
  // problem") prepares cold and leaves the cache untouched either way.
  const bool use_cache = !options.bypass_plan_cache;
  const std::string key =
      use_cache ? CacheKey(text, strategy, options) : std::string();
  // An entry prepared before the catalog moved (relation replaced, index
  // built) is a miss: arities and access paths may have changed, so the
  // text is prepared again, and the fresh entry replaces the stale one.
  if (use_cache) {
    if (PreparedQueryPtr cached = cache_.Get(key, db_->version())) {
      *cache_hit = true;
      return cached;
    }
  }
  *cache_hit = false;
  BRYQL_ASSIGN_OR_RETURN(PreparedQueryPtr prepared,
                         PrepareFromText(text, strategy, options, governor));
  if (use_cache) cache_.Put(key, prepared);
  return prepared;
}

Result<PreparedQueryPtr> QueryProcessor::PrepareFromText(
    const std::string& text, Strategy strategy, const QueryOptions& options,
    ResourceGovernor* governor) const {
  CountPhase(&PrepareCounters::parses);
  BRYQL_ASSIGN_OR_RETURN(Query query,
                         ParseQuery(text, ParseLimitsFor(options)));
  BRYQL_ASSIGN_OR_RETURN(Execution exec,
                         BuildExecution(query, strategy, options, governor));
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->text = text;
  prepared->strategy = strategy;
  prepared->query = exec.query;
  prepared->canonical = exec.canonical;
  prepared->plan = exec.plan;
  prepared->rewrite_steps = exec.rewrite_steps;
  if (exec.plan != nullptr) {
    CountPhase(&PrepareCounters::lowerings);
    Executor executor(db_, exec_options_, governor);
    BRYQL_ASSIGN_OR_RETURN(prepared->physical, executor.Lower(exec.plan));
  }
  prepared->db_version = db_->version();
  return PreparedQueryPtr(std::move(prepared));
}

Result<Execution> QueryProcessor::ExecuteInternal(
    const PreparedQuery& prepared, ResourceGovernor* governor) const {
  Execution exec;
  exec.strategy = prepared.strategy;
  exec.query = prepared.query;
  exec.canonical = prepared.canonical;
  exec.plan = prepared.plan;
  exec.physical = prepared.physical;
  exec.rewrite_steps = prepared.rewrite_steps;
  if (prepared.strategy == Strategy::kNestedLoop) {
    BRYQL_RETURN_NOT_OK(AnswerByNestedLoop(db_, governor, prepared.query,
                                           prepared.canonical, &exec));
    return exec;
  }
  Executor executor(db_, exec_options_, governor);
  BRYQL_RETURN_NOT_OK(AnswerByPlan(&executor, prepared.query.closed(),
                                   prepared.physical, &exec));
  return exec;
}

Result<Execution> QueryProcessor::RunQuery(const Query& query,
                                           Strategy strategy,
                                           const QueryOptions& options) const {
  // One governor per run: the deadline clock starts here and every phase
  // (normalize, translate, evaluate) draws down the same budgets.
  ResourceGovernor governor(options);
  BRYQL_ASSIGN_OR_RETURN(Execution exec,
                         BuildExecution(query, strategy, options, &governor));
  if (strategy == Strategy::kNestedLoop) {
    BRYQL_RETURN_NOT_OK(
        AnswerByNestedLoop(db_, &governor, query, exec.canonical, &exec));
    return exec;
  }
  Executor executor(db_, exec_options_, &governor);
  BRYQL_ASSIGN_OR_RETURN(PhysicalPlanPtr physical, executor.Lower(exec.plan));
  BRYQL_RETURN_NOT_OK(AnswerByPlan(&executor, query.closed(), physical, &exec));
  return exec;
}

Result<Execution> QueryProcessor::Run(const std::string& text,
                                      Strategy strategy,
                                      const QueryOptions& options) const {
  // One governor spans preparation (on a cache miss) and execution, so
  // the deadline and budgets cover the whole run exactly as they did
  // before the prepared fast path existed.
  ResourceGovernor governor(options);
  bool cache_hit = false;
  BRYQL_ASSIGN_OR_RETURN(
      PreparedQueryPtr prepared,
      PrepareInternal(text, strategy, options, &governor, &cache_hit));
  BRYQL_ASSIGN_OR_RETURN(Execution exec,
                         ExecuteInternal(*prepared, &governor));
  exec.plan_cache_hit = cache_hit;
  return exec;
}

Result<PreparedQueryPtr> QueryProcessor::Prepare(
    const std::string& text, Strategy strategy,
    const QueryOptions& options) const {
  ResourceGovernor governor(options);
  bool cache_hit = false;
  return PrepareInternal(text, strategy, options, &governor, &cache_hit);
}

Result<Execution> QueryProcessor::Execute(const PreparedQueryPtr& prepared,
                                          const QueryOptions& options) const {
  if (prepared == nullptr) {
    return Status::InvalidArgument("Execute on a null PreparedQuery");
  }
  ResourceGovernor governor(options);
  if (prepared->db_version == db_->version()) {
    return ExecuteInternal(*prepared, &governor);
  }
  // The catalog moved under the handle: prepare its text through the
  // plan cache, as Run does, so a handle held across a catalog move pays
  // parse → lower once, not on every Execute.
  bool cache_hit = false;
  BRYQL_ASSIGN_OR_RETURN(PreparedQueryPtr current,
                         PrepareInternal(prepared->text, prepared->strategy,
                                         options, &governor, &cache_hit));
  BRYQL_ASSIGN_OR_RETURN(Execution exec, ExecuteInternal(*current, &governor));
  exec.plan_cache_hit = cache_hit;
  return exec;
}

Result<Execution> QueryProcessor::Explain(const std::string& text,
                                          Strategy strategy,
                                          const QueryOptions& options) const {
  BRYQL_ASSIGN_OR_RETURN(Query query,
                         ParseQuery(text, ParseLimitsFor(options)));
  ResourceGovernor governor(options);
  BRYQL_ASSIGN_OR_RETURN(Execution exec,
                         BuildExecution(query, strategy, options, &governor));
  if (exec.plan != nullptr) {
    // EXPLAIN shows the physical plan too — what will actually run.
    Executor executor(db_, exec_options_, &governor);
    BRYQL_ASSIGN_OR_RETURN(exec.physical, executor.Lower(exec.plan));
  }
  return exec;
}

}  // namespace bryql
