// The probe join: a semi- or complement-join whose build side is a stored
// relation probes that relation in place (Relation::Contains or a column
// index) instead of hashing it. Lowering shapes, the serial differential
// against the nested-loop oracle and the hash-joined literal twin, and
// the refusal of a stale index plan. The threaded runs of the same
// differential live in parallel_exec_test.

#include <gtest/gtest.h>

#include <string>

#include "exec/lowering.h"
#include "probe_join_cases.h"

namespace bryql {
namespace {

Relation Pairs(size_t n) {
  Relation rel(2);
  for (size_t i = 0; i < n; ++i) {
    (void)rel.Insert(Tuple({Value::Int(static_cast<int64_t>(i)),
                            Value::Int(static_cast<int64_t>(i % 7))}));
  }
  return rel;
}

/// p(a, b) and r(a, b); r indexed on column 1 only.
Database TwoTables() {
  Database db;
  db.Put("p", Pairs(20));
  db.Put("r", Pairs(30));
  EXPECT_TRUE(db.BuildIndex("r", 1).ok());
  return db;
}

PhysicalPlanPtr Lower(const Database& db, const ExprPtr& expr) {
  auto plan = LowerPlan(db, ExecOptions{}, expr);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ok() ? *plan : nullptr;
}

TEST(ProbeJoinLoweringTest, KeysCoveringEveryColumnProbeContains) {
  Database db = TwoTables();
  auto plan = Lower(db, Expr::AntiJoin(Expr::Scan("p"), Expr::Scan("r"),
                                       {{0, 1}, {1, 0}}));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kProbeJoin);
  EXPECT_FALSE(plan->probe_by_index);
  EXPECT_EQ(plan->relation_name, "r");
  EXPECT_EQ(plan->Label(), "ProbeJoin(anti, r, contains, keys=[0=1, 1=0])");
  // The build is never lowered: the one child is the probe side.
  ASSERT_EQ(plan->children.size(), 1u);
  EXPECT_EQ(plan->children[0]->Label(), "TableScan p");
}

TEST(ProbeJoinLoweringTest, PartialOrRepeatedKeysKeepTheHashJoin) {
  Database db = TwoTables();
  const std::vector<std::vector<JoinKey>> key_sets = {
      {{0, 0}},          // column 1 of r unkeyed
      {{0, 0}, {1, 0}},  // column 0 twice, column 1 never
  };
  for (const std::vector<JoinKey>& keys : key_sets) {
    auto plan = Lower(db, Expr::SemiJoin(Expr::Scan("p"), Expr::Scan("r"),
                                         keys));
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->kind, PhysicalKind::kHashJoin) << plan->Label();
  }
}

TEST(ProbeJoinLoweringTest, ProjectionOfAnIndexedColumnProbesTheIndex) {
  Database db = TwoTables();
  auto plan = Lower(db, Expr::SemiJoin(Expr::Scan("p"),
                                       Expr::Project(Expr::Scan("r"), {1}),
                                       {{0, 0}}));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kProbeJoin);
  EXPECT_TRUE(plan->probe_by_index);
  EXPECT_EQ(plan->index_column, 1u);
  EXPECT_EQ(plan->Label(), "ProbeJoin(semi, r, index, keys=[0=1])");

  // Column 0 of r has no index, or no single key: the hash join stays.
  auto unindexed = Lower(db, Expr::SemiJoin(Expr::Scan("p"),
                                            Expr::Project(Expr::Scan("r"),
                                                          {0}),
                                            {{0, 0}}));
  ASSERT_NE(unindexed, nullptr);
  EXPECT_EQ(unindexed->kind, PhysicalKind::kHashJoin);
  auto keyless = Lower(db, Expr::SemiJoin(Expr::Scan("p"),
                                          Expr::Project(Expr::Scan("r"), {1}),
                                          {}));
  ASSERT_NE(keyless, nullptr);
  EXPECT_EQ(keyless->kind, PhysicalKind::kHashJoin);
}

TEST(ProbeJoinLoweringTest, OtherBuildsKeepTheirHashJoin) {
  Database db = TwoTables();
  const ExprPtr builds[] = {
      // An index scan, a filter, a literal: not a stored relation.
      Expr::Project(Expr::Select(Expr::Scan("r"),
                                 Predicate::ColVal(CompareOp::kEq, 1,
                                                   Value::Int(3))),
                    {0}),
      Expr::Project(Expr::Select(Expr::Scan("r"),
                                 Predicate::ColVal(CompareOp::kLt, 0,
                                                   Value::Int(3))),
                    {0}),
      Expr::Literal(Pairs(5)),
  };
  for (const ExprPtr& build : builds) {
    std::vector<JoinKey> keys = {{0, 0}};
    if (build->kind() == ExprKind::kLiteral) keys.push_back({1, 1});
    auto plan = Lower(db, Expr::AntiJoin(Expr::Scan("p"), build, keys));
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->kind, PhysicalKind::kHashJoin) << plan->ToString();
  }
}

/// The probe join charges what it reads: the 20 rows of p scanned, one
/// probe each, and the 20 answers materialized. r is never scanned.
TEST(ProbeJoinTest, ChargesOnlyWhatItReads) {
  Database db = TwoTables();
  ExprPtr expr = Expr::SemiJoin(Expr::Scan("p"),
                                Expr::Project(Expr::Scan("r"), {1}), {{1, 0}});
  Executor executor(&db);
  Result<Relation> rel = executor.Evaluate(expr);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->size(), 20u);
  EXPECT_EQ(executor.stats().tuples_scanned, 20u);
  EXPECT_EQ(executor.stats().tuples_materialized, 20u);
  EXPECT_EQ(executor.stats().hash_probes, 20u);
  EXPECT_EQ(executor.stats().operators, 2u);  // probe join, scan p
}

/// An arity-0 relation is keyed by the empty key: {()} passes every probe
/// tuple through a semi-join, {} passes none.
TEST(ProbeJoinTest, NullaryRelationGatesEveryProbe) {
  Database db = TwoTables();
  for (bool holds : {true, false}) {
    Relation flag(0);
    if (holds) {
      ASSERT_TRUE(flag.Insert(Tuple{}).ok());
    }
    db.Put("flag", flag);
    for (bool anti : {false, true}) {
      ExprPtr expr =
          anti ? Expr::AntiJoin(Expr::Scan("p"), Expr::Scan("flag"), {})
               : Expr::SemiJoin(Expr::Scan("p"), Expr::Scan("flag"), {});
      auto plan = Lower(db, expr);
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(plan->kind, PhysicalKind::kProbeJoin);
      Executor executor(&db);
      Result<Relation> rel = executor.ExecutePhysical(plan);
      ASSERT_TRUE(rel.ok()) << rel.status();
      EXPECT_EQ(rel->size(), holds != anti ? 20u : 0u)
          << "holds=" << holds << " anti=" << anti;
    }
  }
}

/// A plan run after one of its relations changed arity is refused, not
/// run: the contains probe would find no partner for a key of the old
/// width, and the probe side's scan would hand its parent rows too short
/// for the keys.
TEST(ProbeJoinTest, PlanOverARelationOfAnotherArityIsRefused) {
  for (const char* replaced : {"r", "p"}) {
    Database db = TwoTables();
    auto plan = Lower(db, Expr::SemiJoin(Expr::Scan("p"), Expr::Scan("r"),
                                         {{0, 0}, {1, 1}}));
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->kind, PhysicalKind::kProbeJoin);
    Relation other(std::string(replaced) == "r" ? 3 : 1);
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(other.Insert(Tuple(std::vector<Value>(other.arity(),
                                                        Value::Int(i))))
                      .ok());
    }
    db.Put(replaced, std::move(other));
    for (size_t threads : {0u, 2u}) {
      QueryOptions options;
      options.num_threads = threads;
      ResourceGovernor governor(options);
      Executor executor(&db, ExecOptions{}, &governor);
      Result<Relation> rel = executor.ExecutePhysical(plan);
      ASSERT_FALSE(rel.ok()) << replaced << " threads=" << threads;
      EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(rel.status().message().find(std::string("relation '") +
                                            replaced + "' no longer has arity"),
                std::string::npos)
          << rel.status();
    }
  }
}

class ProbeJoinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProbeJoinDifferentialTest, SerialMatchesOracleAndHashTwin) {
  probe_join_cases::ExpectParity(GetParam(), /*threads=*/0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeJoinDifferentialTest,
                         ::testing::Values(1u, 2u));

TEST(ProbeJoinTest, IndexLessReplacementIsRefused) {
  probe_join_cases::ExpectStaleIndexRefused(/*threads=*/0);
}

}  // namespace
}  // namespace bryql
