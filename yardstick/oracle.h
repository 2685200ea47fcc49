// How the harness judges an answer: the reference semantics and answer
// equality. Shared with metrics_test.cc, which checks that a wrong
// expectation is caught.

#ifndef YARDSTICK_ORACLE_H_
#define YARDSTICK_ORACLE_H_

#include "calculus/parser.h"
#include "core/query_processor.h"
#include "nestedloop/nested_loop.h"
#include "rewrite/rewriter.h"

namespace yardstick {

inline size_t AnswerCount(const bryql::Answer& answer) {
  return answer.closed ? (answer.truth ? 1 : 0) : answer.relation.size();
}

inline bool SameAnswer(const bryql::Answer& a, const bryql::Answer& b) {
  if (a.closed != b.closed) return false;
  return a.closed ? a.truth == b.truth : a.relation == b.relation;
}

/// The reference semantics: the Figure 1 interpreter on the parsed
/// formula, with no translator or lowering in between. Formulas it cannot
/// take raw are normalized first, as the nested-loop strategy does.
inline bryql::Result<bryql::Answer> Reference(const bryql::Database& db,
                                              const bryql::Query& query,
                                              bryql::ExecStats* stats =
                                                  nullptr) {
  using namespace bryql;
  auto evaluate = [&](const Query& q, Answer* out) -> Status {
    NestedLoopEvaluator nl(&db);
    out->closed = q.closed();
    if (q.closed()) {
      BRYQL_ASSIGN_OR_RETURN(out->truth, nl.EvaluateClosed(q.formula));
    } else {
      BRYQL_ASSIGN_OR_RETURN(out->relation, nl.EvaluateOpen(q));
    }
    if (stats != nullptr) *stats = nl.stats();
    return Status::Ok();
  };
  Answer answer;
  if (evaluate(query, &answer).ok()) return answer;
  BRYQL_ASSIGN_OR_RETURN(NormalizeResult norm, NormalizeQuery(query, {}));
  BRYQL_RETURN_NOT_OK(evaluate(Query{query.targets, norm.formula}, &answer));
  return answer;
}

}  // namespace yardstick

#endif  // YARDSTICK_ORACLE_H_
