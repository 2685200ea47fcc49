// Lowering pass: the logical Expr tree compiles into an explicit physical
// plan — access-path selection, join-algorithm choice, build-side
// placement — and the physical EXPLAIN renders those choices.

#include "exec/lowering.h"

#include <gtest/gtest.h>

#include <string>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "core/query_processor.h"
#include "exec/executor.h"
#include "storage/builder.h"
#include "storage/database.h"
#include "workload/university.h"

namespace bryql {
namespace {

Relation BigPairs(size_t n) {
  Relation rel(2);
  for (size_t i = 0; i < n; ++i) {
    rel.Insert(Tuple({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(i % 10))}));
  }
  return rel;
}

/// small (10 rows) and big (100 rows) relations; big carries an index on
/// column 0 so access-path tests have something to pick.
Database TwoTables() {
  Database db;
  db.Put("small", BigPairs(10));
  db.Put("big", BigPairs(100));
  EXPECT_TRUE(db.BuildIndex("big", 0).ok());
  return db;
}

PhysicalPlanPtr Lower(const Database& db, const ExprPtr& expr) {
  auto plan = LowerPlan(db, ExecOptions{}, expr);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ok() ? *plan : nullptr;
}

TEST(LoweringTest, ScanLowersToTableScan) {
  Database db = TwoTables();
  auto plan = Lower(db, Expr::Scan("big"));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kTableScan);
  EXPECT_EQ(plan->relation_name, "big");
  EXPECT_EQ(plan->arity, 2u);
  EXPECT_DOUBLE_EQ(plan->est_rows, 100.0);
}

TEST(LoweringTest, IndexedEqualityBecomesIndexScan) {
  Database db = TwoTables();
  auto plan = Lower(db, Expr::Select(Expr::Scan("big"),
                                     Predicate::ColVal(CompareOp::kEq, 0,
                                                       Value::Int(7))));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kIndexScan);
  EXPECT_EQ(plan->relation_name, "big");
  EXPECT_EQ(plan->index_column, 0u);
  EXPECT_EQ(plan->index_value, Value::Int(7));
  EXPECT_EQ(plan->predicate, nullptr);  // the equality was the whole pred
  EXPECT_TRUE(plan->children.empty());
}

TEST(LoweringTest, IndexScanKeepsResidualConjuncts) {
  Database db = TwoTables();
  std::vector<PredicatePtr> parts;
  parts.push_back(Predicate::ColVal(CompareOp::kLt, 1, Value::Int(5)));
  parts.push_back(Predicate::ColVal(CompareOp::kEq, 0, Value::Int(7)));
  auto plan = Lower(db, Expr::Select(Expr::Scan("big"),
                                     Predicate::And(std::move(parts))));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kIndexScan);
  EXPECT_EQ(plan->index_column, 0u);
  ASSERT_NE(plan->predicate, nullptr);  // the `$1 < 5` residual survives
}

TEST(LoweringTest, UnindexedSelectionFusesIntoTheScan) {
  Database db = TwoTables();
  auto plan = Lower(db, Expr::Select(Expr::Scan("small"),
                                     Predicate::ColVal(CompareOp::kEq, 0,
                                                       Value::Int(7))));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kTableScan);
  EXPECT_TRUE(plan->children.empty());
  EXPECT_EQ(plan->relation_name, "small");
  ASSERT_NE(plan->predicate, nullptr);
  EXPECT_EQ(plan->Label(), "TableScan small [$0 = 7]");
}

TEST(LoweringTest, CostModelPutsSmallerInputOnBuildSide) {
  Database db = TwoTables();
  std::vector<JoinKey> keys = {{0, 0}};
  auto small_left =
      Lower(db, Expr::Join(Expr::Scan("small"), Expr::Scan("big"), keys,
                           nullptr));
  ASSERT_NE(small_left, nullptr);
  EXPECT_EQ(small_left->kind, PhysicalKind::kHashJoin);
  EXPECT_TRUE(small_left->build_left);

  auto small_right =
      Lower(db, Expr::Join(Expr::Scan("big"), Expr::Scan("small"), keys,
                           nullptr));
  ASSERT_NE(small_right, nullptr);
  EXPECT_FALSE(small_right->build_left);

  // Symmetric inputs: ties keep the conventional build-right.
  auto tie = Lower(db, Expr::Join(Expr::Scan("big"), Expr::Scan("big"),
                                  keys, nullptr));
  ASSERT_NE(tie, nullptr);
  EXPECT_FALSE(tie->build_left);
}

TEST(LoweringTest, DifferenceLowersToWholeTupleAntiJoin) {
  Database db = TwoTables();
  auto plan =
      Lower(db, Expr::Difference(Expr::Scan("small"), Expr::Scan("big")));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kHashJoin);
  EXPECT_EQ(plan->variant, JoinVariant::kAnti);
  ASSERT_EQ(plan->keys.size(), 2u);  // keys on the whole 2-ary tuple
  EXPECT_EQ(plan->keys[0].left, 0u);
  EXPECT_EQ(plan->keys[0].right, 0u);
  EXPECT_EQ(plan->keys[1].left, 1u);
  EXPECT_EQ(plan->keys[1].right, 1u);
}

TEST(LoweringTest, IntersectLowersToWholeTupleSemiJoin) {
  Database db = TwoTables();
  auto plan =
      Lower(db, Expr::Intersect(Expr::Scan("small"), Expr::Scan("big")));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PhysicalKind::kHashJoin);
  EXPECT_EQ(plan->variant, JoinVariant::kSemi);
  EXPECT_EQ(plan->keys.size(), 2u);
}

TEST(LoweringTest, OuterJoinRecordsPadArity) {
  Database db = TwoTables();
  auto plan = Lower(db, Expr::OuterJoin(Expr::Scan("small"),
                                        Expr::Scan("big"), {{0, 0}},
                                        nullptr));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->variant, JoinVariant::kLeftOuter);
  EXPECT_EQ(plan->pad_arity, 2u);  // right arity worth of ∅ padding
  EXPECT_EQ(plan->arity, 4u);
}

TEST(LoweringTest, EveryNodeCarriesCostAnnotations) {
  Database db = TwoTables();
  auto plan = Lower(db, Expr::Project(
                            Expr::Join(Expr::Scan("small"),
                                       Expr::Scan("big"), {{0, 0}}, nullptr),
                            {0}));
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->est_cost, 0.0);
  EXPECT_EQ(plan->Size(), 4u);
  const std::string explain = plan->ToString();
  EXPECT_NE(explain.find("Project"), std::string::npos);
  EXPECT_NE(explain.find("HashJoin"), std::string::npos);
  EXPECT_NE(explain.find("rows~"), std::string::npos);
  EXPECT_NE(explain.find("cost~"), std::string::npos);
}

TEST(LoweringTest, ExecutorLowerHonoursPlanDepthLimit) {
  Database db = TwoTables();
  ExprPtr deep = Expr::Scan("small");
  for (int i = 0; i < 8; ++i) {
    deep = Expr::Select(deep, Predicate::True());
  }
  QueryOptions limits;
  limits.max_plan_depth = 4;
  ResourceGovernor governor(limits);
  Executor executor(&db, {}, &governor);
  auto plan = executor.Lower(deep);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

/// The end-to-end EXPLAIN surface: Explain fills Execution::physical
/// without executing anything.
TEST(LoweringTest, ExplainProducesPhysicalPlan) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = 3;
  Database db = MakeUniversity(config);
  QueryProcessor qp(&db);
  auto exec = qp.Explain(
      "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }");
  ASSERT_TRUE(exec.ok()) << exec.status();
  ASSERT_NE(exec->physical, nullptr);
  EXPECT_EQ(exec->stats.tuples_scanned, 0u);  // nothing executed
  const std::string explain = exec->physical->ToString();
  EXPECT_NE(explain.find("TableScan"), std::string::npos);
  EXPECT_NE(explain.find("arity="), std::string::npos);
}

}  // namespace
}  // namespace bryql
