// Unit and integration coverage for zone maps over a relation's rows:
// their layout and maintenance under Insert and Relation copies, the
// soundness of ZoneTest's verdicts against Predicate::Eval, zone-map
// pruning through the executor, the lowering's access-path choice, the
// refusal of a stale plan, and budget/witness/counter parity with the row
// path, which is the same data in a database without zone maps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "algebra/predicate.h"
#include "common/governor.h"
#include "core/query_processor.h"
#include "exec/executor.h"
#include "exec/physical/scan.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace bryql {
namespace {

Relation MakeEvents(size_t n) {
  // (id ascending, category string, score double) — ascending ids make
  // segment zone maps disjoint, the pruning-friendly shape.
  Relation rel(3);
  const char* cats[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(*rel.Insert(Tuple({Value::Int(static_cast<int64_t>(i)),
                                  Value::String(cats[i % 4]),
                                  Value::Double(0.5 * (i % 100))}))
                    );
  }
  return rel;
}

TEST(ZoneMapsTest, LayoutSegmentsAndZones) {
  Relation rel = MakeEvents(kSegmentRows * 2 + 100);
  rel.BuildZoneMaps();
  const ZoneMaps* zones = rel.zone_maps();
  ASSERT_NE(zones, nullptr);
  EXPECT_EQ(zones->zone(0, 0).count, kSegmentRows);
  EXPECT_EQ(zones->zone(2, 2).count, 100u);  // the last segment is partial

  // Ascending ids: segment 1's id zone is exactly [1024, 2047].
  const ZoneMap& z = zones->zone(0, 1);
  EXPECT_EQ(z.count, kSegmentRows);
  EXPECT_EQ(z.nulls, 0u);
  EXPECT_FALSE(z.unordered);
  EXPECT_EQ(z.min, Value::Int(static_cast<int64_t>(kSegmentRows)));
  EXPECT_EQ(z.max, Value::Int(static_cast<int64_t>(2 * kSegmentRows - 1)));

  // The category column's bounds follow string order.
  EXPECT_EQ(zones->zone(1, 2).min, Value::String("alpha"));
  EXPECT_EQ(zones->zone(1, 2).max, Value::String("gamma"));
}

TEST(ZoneMapsTest, InsertMaintainsZonesIncrementally) {
  Relation rel = MakeEvents(10);
  rel.BuildZoneMaps();
  ASSERT_EQ(rel.zone_maps()->zone(0, 0).count, 10u);
  ASSERT_TRUE(*rel.Insert(Tuple({Value::Int(100), Value::Null(),
                                Value::Double(std::nan(""))})));
  EXPECT_EQ(rel.zone_maps()->zone(1, 0).count, 11u);
  EXPECT_EQ(rel.zone_maps()->zone(0, 0).max, Value::Int(100));
  EXPECT_EQ(rel.zone_maps()->zone(1, 0).nulls, 1u);
  EXPECT_TRUE(rel.zone_maps()->zone(2, 0).unordered);
  EXPECT_FALSE(rel.zone_maps()->zone(0, 0).unordered);
  // A duplicate is rejected by the row table and must not reach the zone
  // maps either.
  ASSERT_FALSE(*rel.Insert(Tuple({Value::Int(9), Value::String("beta"),
                                 Value::Double(4.5)})));
  EXPECT_EQ(rel.zone_maps()->zone(0, 0).count, rel.size());
}

TEST(ZoneMapsTest, RelationCopyDeepCopiesZones) {
  Relation rel = MakeEvents(5);
  rel.BuildZoneMaps();
  Relation copy = rel;
  ASSERT_NE(copy.zone_maps(), nullptr);
  EXPECT_NE(copy.zone_maps(), rel.zone_maps());
  ASSERT_TRUE(*rel.Insert(Tuple({Value::Int(99), Value::String("x"),
                                Value::Double(0)})));
  EXPECT_EQ(rel.zone_maps()->zone(0, 0).count, 6u);
  EXPECT_EQ(copy.zone_maps()->zone(0, 0).count, 5u);
  EXPECT_EQ(copy.zone_maps()->zone(0, 0).max, Value::Int(4));
}

/// Random values drawn from a pool small enough that predicates hit.
Value RandomValue(std::mt19937_64* rng) {
  switch ((*rng)() % 7) {
    case 0:
      return Value::Int(static_cast<int64_t>((*rng)() % 20));
    case 1:
      return Value::Double(0.5 * static_cast<double>((*rng)() % 20));
    case 2:
      return Value::String(std::string(1, 'a' + ((*rng)() % 5)));
    case 3:
      return Value::Null();
    case 4:
      return Value::Int(-static_cast<int64_t>((*rng)() % 5));
    case 5:
      return Value::Mark();
    default:
      return Value::Double(std::nan(""));  // the adversarial case
  }
}

PredicatePtr RandomPredicate(std::mt19937_64* rng, size_t arity, int depth) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  if (depth > 0 && (*rng)() % 3 == 0) {
    switch ((*rng)() % 3) {
      case 0:
        return Predicate::Not(RandomPredicate(rng, arity, depth - 1));
      case 1: {
        std::vector<PredicatePtr> kids;
        kids.push_back(RandomPredicate(rng, arity, depth - 1));
        kids.push_back(RandomPredicate(rng, arity, depth - 1));
        return Predicate::And(std::move(kids));
      }
      default: {
        std::vector<PredicatePtr> kids;
        kids.push_back(RandomPredicate(rng, arity, depth - 1));
        kids.push_back(RandomPredicate(rng, arity, depth - 1));
        return Predicate::Or(std::move(kids));
      }
    }
  }
  switch ((*rng)() % 4) {
    case 0:
      return Predicate::ColCol(ops[(*rng)() % 6], (*rng)() % arity,
                               (*rng)() % arity);
    case 1:
      return Predicate::IsNull((*rng)() % arity);
    case 2:
      return Predicate::IsNotNull((*rng)() % arity);
    default:
      return Predicate::ColVal(ops[(*rng)() % 6], (*rng)() % arity,
                               RandomValue(rng));
  }
}

/// ZoneTest's verdicts against Predicate::Eval on every row: a kNone
/// segment holds no match and a kAll segment holds only matches. Columns
/// mix Int, Double, String, NaN, ∅ and ⊥; the leading ascending id column
/// and the short relations make both claims occur, so the check is not
/// vacuous.
TEST(ZoneVerdictTest, SoundOnMixedKindsRandomized) {
  std::mt19937_64 rng(20260807);
  size_t none = 0, all = 0;
  for (int round = 0; round < 30; ++round) {
    const size_t arity = 2 + rng() % 2;
    const size_t n = 1 + rng() % (2 * kSegmentRows);
    Relation rel(arity);
    for (size_t i = 0; i < n; ++i) {
      std::vector<Value> vals;
      vals.reserve(arity);
      // A unique leading id keeps Insert's dedup out of the way.
      vals.push_back(Value::Int(static_cast<int64_t>(i)));
      for (size_t c = 1; c < arity; ++c) vals.push_back(RandomValue(&rng));
      ASSERT_TRUE(*rel.Insert(Tuple(std::move(vals))));
    }
    rel.BuildZoneMaps();
    const ZoneMaps& zones = *rel.zone_maps();

    for (int p = 0; p < 20; ++p) {
      PredicatePtr pred = RandomPredicate(&rng, arity, 2);
      for (size_t begin = 0; begin < n; begin += kSegmentRows) {
        const size_t seg = begin / kSegmentRows;
        const Zone zone = ZoneTest(zones, pred.get(), seg);
        if (zone == Zone::kMaybe) continue;
        ++(zone == Zone::kAll ? all : none);
        for (size_t i = begin; i < std::min(n, begin + kSegmentRows); ++i) {
          ASSERT_EQ(pred->Eval(rel.Row(i), nullptr), zone == Zone::kAll)
              << "zone verdict lies: " << pred->ToString() << " seg "
              << seg << " row " << i << ": " << rel.rows()[i].ToString();
        }
      }
    }
  }
  EXPECT_GT(none, 0u);
  EXPECT_GT(all, 0u);
}

TEST(GovernorBulkTest, AdmitScanBulkMatchesPerRowAdmissions) {
  QueryOptions options;
  options.max_scanned_tuples = 2500;
  ResourceGovernor bulk(options), per_row(options);
  EXPECT_TRUE(bulk.AdmitScanBulk(1024));
  EXPECT_TRUE(bulk.AdmitScanBulk(1024));
  for (int i = 0; i < 2048; ++i) ASSERT_TRUE(per_row.AdmitScan());
  EXPECT_EQ(bulk.scanned(), per_row.scanned());
  // The third segment crosses the budget: both trip with the same code.
  EXPECT_FALSE(bulk.AdmitScanBulk(1024));
  bool tripped = true;
  for (int i = 0; i < 1024 && tripped; ++i) tripped = per_row.AdmitScan();
  EXPECT_FALSE(tripped);
  EXPECT_EQ(bulk.status().code(), per_row.status().code());
  EXPECT_TRUE(bulk.tripped());
}

class ColumnarExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.Put("events", MakeEvents(8 * kSegmentRows));
    row_db_ = db_;  // the row path: the same rows without zone maps
    ASSERT_TRUE(db_.EnableColumnar("events").ok());
  }

  /// The comparisons a row scan spends on the segments whose zone verdict
  /// is not kMaybe: what the zone scan saves.
  size_t SkippedComparisons(const Predicate& pred) {
    const Relation& rel = **db_.Get("events");
    const ZoneMaps& zones = *rel.zone_maps();
    size_t skipped = 0;
    for (size_t begin = 0; begin < rel.size(); begin += kSegmentRows) {
      if (ZoneTest(zones, &pred, begin / kSegmentRows) == Zone::kMaybe) {
        continue;
      }
      for (size_t i = begin; i < std::min(rel.size(), begin + kSegmentRows);
           ++i) {
        pred.Eval(rel.Row(i), &skipped);
      }
    }
    return skipped;
  }

  Database db_;
  Database row_db_;
};

TEST_F(ColumnarExecTest, FusedScanPrunesByZoneMaps) {
  Executor ex(&db_);
  // Selective range over the ascending id column: 7 of 8 segments are
  // provably empty for it and must be pruned.
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kLt, 0, Value::Int(100)));
  auto plan = ex.Lower(expr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*plan)->Label(), "TableScan events [$0 < 100]");
  auto result = ex.ExecutePhysical(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 100u);
  EXPECT_EQ(ex.stats().segments_pruned, 7u);
  EXPECT_EQ(ex.stats().segments_scanned, 1u);
  // Pruning never discounts the scan budget: all rows were admitted.
  EXPECT_EQ(ex.stats().tuples_scanned, 8 * kSegmentRows);
  // ...but it does discount the work: only the surviving segment's rows
  // were compared, once each.
  EXPECT_EQ(ex.stats().comparisons, kSegmentRows);
}

TEST_F(ColumnarExecTest, AllMatchSegmentsEmitWithoutComparisons) {
  Executor ex(&db_);
  auto result = ex.Evaluate(Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kGe, 0, Value::Int(0))));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 8 * kSegmentRows);
  EXPECT_EQ(ex.stats().segments_scanned, 8u);
  EXPECT_EQ(ex.stats().comparisons, 0u);
}

TEST_F(ColumnarExecTest, LoweringDoesNotDependOnZoneMaps) {
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kLt, 0, Value::Int(100)));
  Executor zone(&db_);
  Executor row(&row_db_);
  auto zone_plan = zone.Lower(expr);
  auto row_plan = row.Lower(expr);
  ASSERT_TRUE(zone_plan.ok()) << zone_plan.status();
  ASSERT_TRUE(row_plan.ok()) << row_plan.status();
  EXPECT_EQ((*row_plan)->ToString(), (*zone_plan)->ToString());
  // Without zone maps the fused scan compares every row and counts no
  // segment.
  auto result = row.ExecutePhysical(*row_plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 100u);
  EXPECT_EQ(row.stats().segments_scanned + row.stats().segments_pruned, 0u);
  EXPECT_EQ(row.stats().comparisons, 8 * kSegmentRows);
}

TEST_F(ColumnarExecTest, IndexedEqualityStillBeatsColumnar) {
  ASSERT_TRUE(db_.BuildIndex("events", 0).ok());
  Executor ex(&db_);
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kEq, 0, Value::Int(7)));
  auto plan = ex.Lower(expr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE((*plan)->ToString().find("IndexScan"), std::string::npos)
      << (*plan)->ToString();
}

TEST_F(ColumnarExecTest, PlanRunsUnprunedOnceZoneMapsAreGone) {
  Executor ex(&db_);
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kGe, 0, Value::Int(8100)));
  auto plan = ex.Lower(expr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Replace the relation with one that has no zone maps: the plan does
  // not depend on them, so it runs, reads every row and answers alike.
  db_.Put("events", MakeEvents(8 * kSegmentRows));
  for (size_t threads : {0u, 2u}) {
    QueryOptions options;
    options.num_threads = threads;
    ResourceGovernor governor(options);
    Executor unpruned(&db_, ExecOptions{}, &governor);
    auto result = unpruned.ExecutePhysical(*plan);
    ASSERT_TRUE(result.ok()) << "threads=" << threads << " "
                             << result.status();
    EXPECT_EQ(result->size(), 8 * kSegmentRows - 8100);
    EXPECT_EQ(unpruned.stats().segments_scanned, 0u);
    EXPECT_EQ(unpruned.stats().segments_pruned, 0u);
    EXPECT_EQ(unpruned.stats().comparisons, 8 * kSegmentRows);
  }
}

TEST_F(ColumnarExecTest, RowAndColumnarAgreeOnCountersAndAnswers) {
  std::vector<PredicatePtr> preds;
  preds.push_back(Predicate::ColVal(CompareOp::kLt, 0, Value::Int(50)));
  preds.push_back(
      Predicate::ColVal(CompareOp::kEq, 1, Value::String("beta")));
  {
    std::vector<PredicatePtr> both;
    both.push_back(Predicate::ColVal(CompareOp::kGe, 2, Value::Double(20)));
    both.push_back(
        Predicate::ColVal(CompareOp::kNe, 1, Value::String("alpha")));
    preds.push_back(Predicate::And(std::move(both)));
  }
  {
    std::vector<PredicatePtr> either;
    either.push_back(Predicate::ColVal(CompareOp::kGe, 0, Value::Int(6000)));
    either.push_back(
        Predicate::ColVal(CompareOp::kEq, 1, Value::String("delta")));
    preds.push_back(Predicate::Or(std::move(either)));
  }
  for (const PredicatePtr& pred : preds) {
    ExprPtr expr = Expr::Select(Expr::Scan("events"), pred);
    Executor columnar(&db_);
    Executor row(&row_db_);
    auto a = columnar.Evaluate(expr);
    auto b = row.Evaluate(expr);
    ASSERT_TRUE(a.ok() && b.ok()) << pred->ToString();
    EXPECT_EQ(*a, *b) << pred->ToString();
    EXPECT_EQ(columnar.stats().tuples_scanned, row.stats().tuples_scanned)
        << pred->ToString();
    EXPECT_EQ(columnar.stats().tuples_materialized,
              row.stats().tuples_materialized)
        << pred->ToString();
    EXPECT_EQ(columnar.stats().comparisons + SkippedComparisons(*pred),
              row.stats().comparisons)
        << pred->ToString();
  }
}

TEST_F(ColumnarExecTest, FirstWitnessAdmissionParity) {
  // The witness for id >= w sits at row w: both paths must admit exactly
  // w+1 rows before stopping.
  for (int64_t w : {0, 5, 2000, 5000}) {
    ExprPtr expr = Expr::NonEmpty(Expr::Select(
        Expr::Scan("events"),
        Predicate::ColVal(CompareOp::kGe, 0, Value::Int(w))));
    Executor columnar(&db_);
    Executor row(&row_db_);
    auto a = columnar.EvaluateBool(expr);
    auto b = row.EvaluateBool(expr);
    ASSERT_TRUE(a.ok() && b.ok()) << "witness " << w;
    EXPECT_TRUE(*a && *b);
    EXPECT_EQ(columnar.stats().tuples_scanned,
              static_cast<size_t>(w) + 1)
        << "witness " << w;
    EXPECT_EQ(columnar.stats().tuples_scanned, row.stats().tuples_scanned)
        << "witness " << w;
  }
}

TEST_F(ColumnarExecTest, ScanBudgetTripsWithSameCode) {
  QueryOptions options;
  options.max_scanned_tuples = 1000;
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kLt, 0, Value::Int(100)));
  ResourceGovernor g1(options), g2(options);
  Executor columnar(&db_, ExecOptions{}, &g1);
  Executor row(&row_db_, ExecOptions{}, &g2);
  auto a = columnar.Evaluate(expr);
  auto b = row.Evaluate(expr);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.status().code(), b.status().code());
}

}  // namespace
}  // namespace bryql
