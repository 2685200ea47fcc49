#ifndef BRYQL_ALGEBRA_COST_MODEL_H_
#define BRYQL_ALGEBRA_COST_MODEL_H_

#include <string>

#include "algebra/expr.h"
#include "common/result.h"
#include "storage/database.h"

namespace bryql {

/// Estimated size and work of a plan.
struct CostEstimate {
  /// Estimated output cardinality.
  double rows = 0;
  /// Estimated total work (tuples touched across the whole subtree).
  double cost = 0;
};

/// A deliberately simple cost model in the spirit of the paper's closing
/// remark (§4): because the improved translation relies "basically on a
/// unique operator" — the join and its variants (semi-, complement-,
/// outer-, constrained outer-join) — one build-plus-probe formula covers
/// almost every operator:
///
///   cost(op over L, R) = cost(L) + cost(R) + rows(R)   [build]
///                                          + rows(L)   [probe]
///                                          + rows(out)  [emit]
///
/// Cardinalities use textbook independence assumptions: equality
/// selections keep 1/10, other comparisons 1/3; an equi-join with k key
/// pairs keeps |L|·|R| / max(|L|,|R|) (foreign-key heuristic); semi-joins
/// keep half of L, complement-joins the other half; divisions keep
/// rows(L)/max(rows(R),1).
///
/// Base cardinalities come from the catalog, so estimates are exact at
/// the leaves and heuristic above them. The model is *not* used to pick
/// plans (the translation is syntax-directed, like the paper's); it
/// powers EXPLAIN output and the cost-model validation tests, which check
/// that it ranks the paper's plan pairs the same way the measured
/// comparison counts do.
class CostModel {
 public:
  /// `db` must outlive the model.
  explicit CostModel(const Database* db) : db_(db) {}

  /// Estimates `expr` bottom-up. Fails on malformed plans (same
  /// validation as Expr::Arity).
  Result<CostEstimate> Estimate(const ExprPtr& expr) const;

  /// EXPLAIN-style tree annotated with per-node row/cost estimates.
  Result<std::string> Annotate(const ExprPtr& expr) const;

 private:
  const Database* db_;
};

}  // namespace bryql

#endif  // BRYQL_ALGEBRA_COST_MODEL_H_
