// The probe-join differential, shared by probe_join_test (serial) and
// parallel_exec_test (threaded, so the TSan phase runs it). Every query
// below lowers to at least one ProbeJoin. Each runs as planned and as its
// literal twin: the same algebra with each probed relation replaced by an
// inline Literal copy, which lowers to the hash join. Answers must equal
// the nested-loop interpreter's. Probes and comparisons must equal the
// twin's; scanned, materialized and operators must equal the twin's less
// the hash builds the probe joins skip (SkippedBuilds). Budget verdicts
// follow the plan's own counts.

#ifndef BRYQL_TESTS_PROBE_JOIN_CASES_H_
#define BRYQL_TESTS_PROBE_JOIN_CASES_H_

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/query_processor.h"
#include "exec/executor.h"
#include "workload/university.h"

namespace bryql {
namespace probe_join_cases {

/// Contains and index probes, semi and anti, open and under NonEmpty.
inline const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "forall x y: attends(x, y) -> student(x)",
      "exists x d: enrolled(x, d) & ~department(d)",
      "exists x y: attends(x, y) & student(x)",
      "exists x d: enrolled(x, d) & department(d)",
      "forall x: student(x) -> (exists d: enrolled(x, d))",
      "forall y s: lecture(y, s) -> (s = db | (exists x: attends(x, y)))",
      "exists x: student(x) & (exists d: enrolled(x, d))",
      "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }",
      "{ x | student(x) & ~professor(x) }",
      "{ x, d | enrolled(x, d) & department(d) }",
      "{ x, y | attends(x, y) & attends(y, x) }",
      "{ x | professor(x) & (exists y: speaks(x, y)) }",
      "{ y, s | lecture(y, s) & ~(exists x: attends(x, y)) }",
  };
  return queries;
}

/// Indexed on every column; the zone-map runs use a copy with zone maps.
inline Database MakeDatabase(uint64_t seed) {
  UniversityConfig config;
  config.students = 60;
  config.professors = 12;
  config.lectures = 18;
  config.seed = seed;
  Database db = MakeUniversity(config);
  db.BuildAllIndexes();
  return db;
}

inline ExprPtr Rebuild(const ExprPtr& e, const std::vector<ExprPtr>& kids) {
  switch (e->kind()) {
    case ExprKind::kScan:
    case ExprKind::kLiteral:
      return e;
    case ExprKind::kSelect:
      return Expr::Select(kids[0], e->predicate());
    case ExprKind::kProject:
      return Expr::Project(kids[0], e->columns());
    case ExprKind::kProduct:
      return Expr::Product(kids[0], kids[1]);
    case ExprKind::kJoin:
      return Expr::Join(kids[0], kids[1], e->keys(), e->predicate());
    case ExprKind::kSemiJoin:
      return Expr::SemiJoin(kids[0], kids[1], e->keys());
    case ExprKind::kAntiJoin:
      return Expr::AntiJoin(kids[0], kids[1], e->keys());
    case ExprKind::kOuterJoin:
      return Expr::OuterJoin(kids[0], kids[1], e->keys(), e->constraint());
    case ExprKind::kMarkJoin:
      return Expr::MarkJoin(kids[0], kids[1], e->keys(), e->constraint());
    case ExprKind::kDivision:
      return Expr::Division(kids[0], kids[1]);
    case ExprKind::kGroupDivision:
      return Expr::GroupDivision(kids[0], kids[1], e->group_arity());
    case ExprKind::kGroupCount:
      return Expr::GroupCount(kids[0], e->group_arity());
    case ExprKind::kUnion:
      return Expr::Union(kids[0], kids[1]);
    case ExprKind::kDifference:
      return Expr::Difference(kids[0], kids[1]);
    case ExprKind::kIntersect:
      return Expr::Intersect(kids[0], kids[1]);
    case ExprKind::kNonEmpty:
      return Expr::NonEmpty(kids[0]);
    case ExprKind::kBoolNot:
      return Expr::BoolNot(kids[0]);
    case ExprKind::kBoolAnd:
      return Expr::BoolAnd(kids);
    case ExprKind::kBoolOr:
      return Expr::BoolOr(kids);
  }
  return e;
}

/// `e` with each build side the lowering would probe in place — a Scan,
/// or a one-column Project of a Scan — reading a Literal copy of the
/// stored relation instead.
inline ExprPtr LiteralTwin(const ExprPtr& e, const Database& db) {
  auto literal = [&](const ExprPtr& scan) {
    return Expr::Literal(**db.Get(scan->relation_name()));
  };
  std::vector<ExprPtr> kids;
  for (const ExprPtr& child : e->children()) {
    kids.push_back(LiteralTwin(child, db));
  }
  if (e->kind() == ExprKind::kSemiJoin || e->kind() == ExprKind::kAntiJoin) {
    const ExprPtr& build = e->right();
    if (build->kind() == ExprKind::kScan) {
      kids[1] = literal(build);
    } else if (build->kind() == ExprKind::kProject &&
               build->columns().size() == 1 &&
               build->child()->kind() == ExprKind::kScan) {
      kids[1] = Expr::Project(literal(build->child()), build->columns());
    }
  }
  return Rebuild(e, kids);
}

/// Calls `fn(node, under_non_empty)` for every ProbeJoin in `plan`.
inline void ForEachProbeJoin(
    const PhysicalPlanPtr& plan, bool under_non_empty,
    const std::function<void(const PhysicalNode&, bool)>& fn) {
  if (plan->kind == PhysicalKind::kProbeJoin) fn(*plan, under_non_empty);
  for (const PhysicalPlanPtr& child : plan->children) {
    ForEachProbeJoin(child,
                     under_non_empty || plan->kind == PhysicalKind::kNonEmpty,
                     fn);
  }
}

struct Outcome {
  Status status;
  Answer answer;
  ExecStats stats;
};

inline Outcome Execute(const Database& db, const PhysicalPlanPtr& plan,
                       const ExecOptions& exec, const QueryOptions& options) {
  ResourceGovernor governor(options);
  Executor executor(&db, exec, &governor);
  Outcome out;
  if (plan->arity == 0) {
    Result<bool> truth = executor.ExecutePhysicalBool(plan);
    out.status = truth.status();
    out.answer.closed = true;
    out.answer.truth = truth.ok() && *truth;
  } else {
    Result<Relation> rel = executor.ExecutePhysical(plan);
    out.status = rel.status();
    if (rel.ok()) out.answer.relation = std::move(*rel);
  }
  out.stats = executor.stats();
  return out;
}

inline void ExpectSameAnswer(const Answer& want, const Answer& got,
                             const std::string& label) {
  ASSERT_EQ(want.closed, got.closed) << label;
  if (want.closed) {
    EXPECT_EQ(want.truth, got.truth) << label;
  } else {
    EXPECT_EQ(want.relation, got.relation) << label;
  }
}

/// What the literal twin's hash builds cost that the probe joins of
/// `plan` skip. Each ProbeJoin over R saves |R| scanned, m materialized
/// (m = |R| for contains; for index, twice the distinct values of R's
/// indexed column: the projection's dedup set, then the key set) and the
/// build's operators (Literal, or Project over Literal), once per
/// instance in `stats`. Serially each instance is one opened node. In
/// parallel the spine is instantiated once per worker while the twin
/// still builds once per node, so scanned and materialized count each
/// node of an instantiated label once.
struct BuildCost {
  size_t scanned = 0;
  size_t materialized = 0;
  size_t operators = 0;
};

inline BuildCost SkippedBuilds(const Database& db, const PhysicalPlanPtr& plan,
                               const ExecStats& stats, bool serial) {
  struct Probed {
    size_t nodes = 0;
    size_t instances = 0;
    BuildCost build;
  };
  std::map<std::string, Probed> by_label;
  ForEachProbeJoin(plan, false, [&](const PhysicalNode& node, bool) {
    Probed& probed = by_label[node.Label()];
    ++probed.nodes;
    const Relation& rel = **db.Get(node.relation_name);
    probed.build.scanned = rel.size();
    probed.build.materialized = rel.size();
    probed.build.operators = node.probe_by_index ? 2 : 1;
    if (node.probe_by_index) {
      Relation distinct(1);
      for (const RowView row : rel.rows()) {
        (void)distinct.Insert(Tuple({row.at(node.index_column)}));
      }
      probed.build.materialized = 2 * distinct.size();
    }
  });
  for (const OperatorStats& op : stats.operator_stats) {
    auto it = by_label.find(op.label);
    if (it != by_label.end()) ++it->second.instances;
  }
  BuildCost cost;
  for (const auto& [label, probed] : by_label) {
    const size_t opened = serial                ? probed.instances
                          : probed.instances > 0 ? probed.nodes
                                                 : 0;
    cost.scanned += opened * probed.build.scanned;
    cost.materialized += opened * probed.build.materialized;
    cost.operators += probed.instances * probed.build.operators;
  }
  return cost;
}

/// `got` (the probe plan) against `want` (its literal twin) as the file
/// comment states.
inline void ExpectChargesWhatItReads(const BuildCost& skipped,
                                     const ExecStats& want,
                                     const ExecStats& got,
                                     const std::string& label) {
  EXPECT_EQ(want.tuples_scanned - skipped.scanned, got.tuples_scanned)
      << label;
  EXPECT_EQ(want.tuples_materialized - skipped.materialized,
            got.tuples_materialized)
      << label;
  EXPECT_EQ(want.operators - skipped.operators, got.operators) << label;
  EXPECT_EQ(want.hash_probes, got.hash_probes) << label;
  EXPECT_EQ(want.comparisons, got.comparisons) << label;
  EXPECT_EQ(want.segments_scanned, got.segments_scanned) << label;
  EXPECT_EQ(want.segments_pruned, got.segments_pruned) << label;
}

struct Limit {
  std::string label;
  QueryOptions options;
  /// Tuple caps: the capped counter, and the cap.
  size_t ExecStats::*counter = nullptr;
  size_t cap = 0;
};

/// Scan and materialize caps {3, 25, 400}, an expired deadline and a
/// cancelled token. `token` must outlive the returned options.
inline std::vector<Limit> Limits(size_t threads,
                                 const CancellationToken* token) {
  std::vector<Limit> limits;
  for (size_t cap : {3u, 25u, 400u}) {
    Limit scan{"scan<=" + std::to_string(cap), {}, &ExecStats::tuples_scanned,
               cap};
    scan.options.max_scanned_tuples = cap;
    limits.push_back(scan);
    Limit mat{"materialize<=" + std::to_string(cap), {},
              &ExecStats::tuples_materialized, cap};
    mat.options.max_materialized_tuples = cap;
    limits.push_back(mat);
  }
  Limit deadline{"deadline", {}};
  deadline.options.deadline = std::chrono::nanoseconds(1);
  limits.push_back(deadline);
  Limit cancel{"cancel", {}};
  cancel.options.cancellation = token;
  limits.push_back(cancel);
  for (Limit& limit : limits) limit.options.num_threads = threads;
  return limits;
}

/// The whole differential at one thread count, with and without zone
/// maps and at batch sizes 1 and 1024. With zone maps, a probe plan must
/// also match the same plan without them: the same scanned, materialized
/// and probes, and no more comparisons. Counters are compared wherever
/// execution is deterministic: always serially, and for open queries in
/// parallel (closed queries race workers to the first witness). A tuple
/// cap trips exactly when the plan's serial uncapped count exceeds it; a
/// finite cap runs witness tests serially, so this holds at every thread
/// count.
inline void ExpectParity(uint64_t seed, size_t threads) {
  const Database row_db = MakeDatabase(seed);
  Database zone_db = row_db;
  zone_db.EnableColumnarAll();
  QueryProcessor qp(&row_db);
  CancellationToken cancelled;
  cancelled.Cancel();
  bool seen[2][2][2] = {};  // [by_index][anti][under NonEmpty]

  for (const std::string& text : Queries()) {
    Result<Execution> oracle = qp.Run(text, Strategy::kNestedLoop);
    ASSERT_TRUE(oracle.ok()) << text << ": " << oracle.status();
    Result<Execution> explained = qp.Explain(text);
    ASSERT_TRUE(explained.ok()) << text << ": " << explained.status();
    const ExprPtr twin_expr = LiteralTwin(explained->plan, row_db);
    std::map<size_t, ExecStats> row_stats;  // by batch size

    for (bool zones : {false, true}) {
      const Database& db = zones ? zone_db : row_db;
      for (size_t batch : {1u, 1024u}) {
        ExecOptions exec;
        exec.batch_size = batch;
        const std::string label =
            text + " [threads=" + std::to_string(threads) +
            (zones ? " zones" : " row") +
            " batch=" + std::to_string(batch) + "]";
        Executor lowerer(&db, exec);
        Result<PhysicalPlanPtr> probe = lowerer.Lower(explained->plan);
        Result<PhysicalPlanPtr> twin = lowerer.Lower(twin_expr);
        ASSERT_TRUE(probe.ok() && twin.ok()) << label;
        size_t probe_joins = 0;
        ForEachProbeJoin(*probe, false,
                         [&](const PhysicalNode& node, bool closed) {
                           ++probe_joins;
                           seen[node.probe_by_index]
                               [node.variant == JoinVariant::kAnti][closed] =
                                   true;
                         });
        EXPECT_GT(probe_joins, 0u) << label;
        ForEachProbeJoin(*twin, false, [&](const PhysicalNode&, bool) {
          ADD_FAILURE() << "literal twin lowered to a ProbeJoin: " << label;
        });

        QueryOptions unlimited;
        unlimited.num_threads = threads;
        Outcome got = Execute(db, *probe, exec, unlimited);
        Outcome want = Execute(db, *twin, exec, unlimited);
        ASSERT_TRUE(got.status.ok()) << label << ": " << got.status;
        ASSERT_TRUE(want.status.ok()) << label << ": " << want.status;
        ExpectSameAnswer(oracle->answer, got.answer, label);
        ExpectSameAnswer(oracle->answer, want.answer, label);
        if (threads == 0 || !got.answer.closed) {
          ExpectChargesWhatItReads(
              SkippedBuilds(db, *probe, got.stats, threads == 0), want.stats,
              got.stats, label);
          if (!zones) {
            row_stats[batch] = got.stats;
          } else {
            const ExecStats& row = row_stats[batch];
            EXPECT_EQ(got.stats.tuples_scanned, row.tuples_scanned) << label;
            EXPECT_EQ(got.stats.tuples_materialized, row.tuples_materialized)
                << label;
            EXPECT_EQ(got.stats.hash_probes, row.hash_probes) << label;
            EXPECT_LE(got.stats.comparisons, row.comparisons) << label;
          }
        }
        const ExecStats serial =
            threads == 0 ? got.stats
                         : Execute(db, *probe, exec, QueryOptions{}).stats;

        for (const Limit& limit : Limits(threads, &cancelled)) {
          const std::string limited = label + " " + limit.label;
          Outcome g = Execute(db, *probe, exec, limit.options);
          if (g.status.ok()) {
            ExpectSameAnswer(oracle->answer, g.answer, limited);
          }
          if (limit.counter != nullptr) {
            const size_t count = serial.*limit.counter;
            EXPECT_EQ(g.status.code(), count > limit.cap
                                           ? StatusCode::kResourceExhausted
                                           : StatusCode::kOk)
                << limited << ": " << g.status << " at count " << count;
            if (threads == 0 && g.status.ok()) {
              EXPECT_EQ(g.stats.ToString(), got.stats.ToString()) << limited;
            }
            continue;
          }
          Outcome w = Execute(db, *twin, exec, limit.options);
          EXPECT_EQ(w.status.code(), g.status.code())
              << limited << ": " << w.status << " vs " << g.status;
        }
      }
    }
  }
  for (int by_index = 0; by_index < 2; ++by_index) {
    for (int anti = 0; anti < 2; ++anti) {
      for (int closed = 0; closed < 2; ++closed) {
        EXPECT_TRUE(seen[by_index][anti][closed])
            << (by_index ? "index" : "contains") << (anti ? " anti" : " semi")
            << (closed ? " under NonEmpty" : " open") << " never lowered";
      }
    }
  }
}

/// A plan lowered to an index probe, run after its relation was replaced
/// by an index-less copy, is refused: Matches on the missing index would
/// answer "no partner" for every row. A fresh Run re-prepares against
/// the new catalog and answers.
inline void ExpectStaleIndexRefused(size_t threads) {
  Database db = MakeDatabase(3);
  QueryProcessor qp(&db);
  const std::string text = "forall x: student(x) -> (exists d: enrolled(x, d))";
  Result<Execution> explained = qp.Explain(text);
  ASSERT_TRUE(explained.ok()) << explained.status();
  bool by_index = false;
  ForEachProbeJoin(explained->physical, false,
                   [&](const PhysicalNode& node, bool) {
                     by_index = by_index || node.probe_by_index;
                   });
  ASSERT_TRUE(by_index) << explained->physical->ToString();
  Result<Execution> oracle = qp.Run(text, Strategy::kNestedLoop);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->answer.truth);

  const RowRange rows = (*db.Get("enrolled"))->rows();
  Result<Relation> copy =
      Relation::FromRows(std::vector<Tuple>(rows.begin(), rows.end()));
  ASSERT_TRUE(copy.ok());
  ASSERT_FALSE(copy->HasIndex(0));
  db.Put("enrolled", std::move(*copy));

  QueryOptions options;
  options.num_threads = threads;
  Outcome stale = Execute(db, explained->physical, ExecOptions{}, options);
  EXPECT_EQ(stale.status.code(), StatusCode::kInvalidArgument)
      << stale.status;
  EXPECT_NE(stale.status.message().find("'enrolled'"), std::string::npos)
      << stale.status;

  // Re-lowered against the new catalog, the plan hash-joins outright.
  Result<Execution> fresh = qp.Run(text, Strategy::kBry, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(fresh->answer.truth);
  ForEachProbeJoin(fresh->physical, false,
                   [&](const PhysicalNode& node, bool) {
                     EXPECT_FALSE(node.probe_by_index)
                         << fresh->physical->ToString();
                   });
}

}  // namespace probe_join_cases
}  // namespace bryql

#endif  // BRYQL_TESTS_PROBE_JOIN_CASES_H_
