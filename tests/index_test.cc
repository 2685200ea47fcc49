// Secondary hash indexes: correctness, incremental maintenance, and use
// by both evaluation engines (index lookups replace scans, visible in the
// scan counters; answers never change).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/query_processor.h"
#include "exec/executor.h"
#include "nestedloop/nested_loop.h"
#include "storage/builder.h"

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

TEST(RelationIndexTest, BuildAndLookup) {
  Relation rel = BigPairs(100);
  EXPECT_FALSE(rel.HasIndex(1));
  rel.BuildIndex(1);
  ASSERT_TRUE(rel.HasIndex(1));
  EXPECT_EQ(rel.Matches(1, Value::Int(3)).size(), 10u);
  EXPECT_TRUE(rel.Matches(1, Value::Int(42)).empty());
}

TEST(RelationIndexTest, MaintainedAcrossInserts) {
  Relation rel(1);
  rel.BuildIndex(0);
  rel.Insert(Ints({5}));
  rel.Insert(Ints({5}));  // duplicate: no index entry added
  rel.Insert(Ints({7}));
  EXPECT_EQ(rel.Matches(0, Value::Int(5)).size(), 1u);
  EXPECT_EQ(rel.Matches(0, Value::Int(7)).size(), 1u);
}

TEST(RelationIndexTest, InsertAfterBuildIndexIsProbeVisible) {
  // Pin the maintenance contract: rows inserted *after* BuildIndex must
  // be reachable through the per-column indexes immediately, with row
  // positions that point at the new rows — the invariant both engines'
  // index access paths (and now the columnar chooser's rival, the
  // IndexScan) depend on.
  Relation rel = BigPairs(100);
  rel.BuildIndex(0);
  rel.BuildIndex(1);
  ASSERT_TRUE(*rel.Insert(Tuple({Value::Int(1000), Value::Int(3)})));
  ASSERT_TRUE(*rel.Insert(Tuple({Value::Int(1001), Value::Int(3)})));

  const auto& hits = rel.Matches(0, Value::Int(1000));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(rel.rows()[hits[0]].at(0), Value::Int(1000));
  // Column 1 already had 10 rows with value 3; the two inserts join them.
  EXPECT_EQ(rel.Matches(1, Value::Int(3)).size(), 12u);

  // The incrementally maintained index must equal a from-scratch rebuild.
  Relation rebuilt = rel;
  rebuilt.BuildIndex(1);
  for (int v = 0; v < 10; ++v) {
    EXPECT_TRUE(std::ranges::equal(rel.Matches(1, Value::Int(v)),
                                   rebuilt.Matches(1, Value::Int(v))))
        << v;
  }
}

TEST(RelationIndexTest, RowPositionsAreValid) {
  Relation rel = BigPairs(50);
  rel.BuildIndex(0);
  for (const size_t pos : rel.Matches(0, Value::Int(7))) {
    EXPECT_EQ(rel.rows()[pos].at(0), Value::Int(7));
  }
}

// --- the flat index against a reference map ----------------------------

/// Every kind a column index must key: Int, Double (integral ones equal to
/// the Int of the same number, so Int(2) and Double(2.0) share a key),
/// String, NaN, ∅ and ⊥, from a pool small enough that keys repeat.
Value PoolValue(std::mt19937_64* rng) {
  const int64_t k = static_cast<int64_t>((*rng)() % 12);
  switch ((*rng)() % 8) {
    case 0:
    case 1:
      return Value::Int(k);
    case 2:
      return Value::Double(static_cast<double>(k));
    case 3:
      return Value::Double(static_cast<double>(k) + 0.5);
    case 4:
      return Value::String("s" + std::to_string(k));
    case 5:
      return Value::Double(std::nan(""));
    case 6:
      return Value::Null();
    default:
      return Value::Mark();
  }
}

/// Values to look up: the whole pool, and values no row holds.
std::vector<Value> Probes() {
  std::vector<Value> probes = {Value::Null(), Value::Mark(),
                               Value::Double(std::nan("")),
                               Value::String("absent")};
  for (int64_t k = -1; k <= 12; ++k) {
    probes.push_back(Value::Int(k));
    probes.push_back(Value::Double(static_cast<double>(k)));
    probes.push_back(Value::Double(static_cast<double>(k) + 0.5));
    probes.push_back(Value::String("s" + std::to_string(k)));
  }
  return probes;
}

/// Checks the index on `column` against a std::map from value to the
/// ascending row ids holding it, built from rows(), looking up every key
/// of the map and every value of Probes(). NaN equals nothing,
/// so NaN rows stay out of the map: no lookup finds them.
void ExpectIndexMatchesRows(const Relation& rel, size_t column) {
  ASSERT_TRUE(rel.HasIndex(column));
  std::map<Value, std::vector<uint32_t>> reference;
  for (size_t r = 0; r < rel.size(); ++r) {
    const Value& v = rel.rows()[r].at(column);
    if (v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble())) continue;
    reference[v].push_back(static_cast<uint32_t>(r));
  }
  std::vector<Value> probes = Probes();
  for (const auto& [value, rows] : reference) probes.push_back(value);
  for (const Value& probe : probes) {
    const std::span<const uint32_t> hits = rel.Matches(column, probe);
    const bool is_nan =
        probe.kind() == ValueKind::kDouble && std::isnan(probe.AsDouble());
    auto it = is_nan ? reference.end() : reference.find(probe);
    if (it == reference.end()) {
      EXPECT_TRUE(hits.empty()) << probe.ToString();
    } else {
      EXPECT_TRUE(std::ranges::equal(hits, it->second))
          << probe.ToString() << ": " << hits.size() << " hits, "
          << it->second.size() << " expected";
    }
  }
}

/// Inserts `n` random pairs (column 0 from the pool, column 1 small, so
/// some pairs repeat and are rejected as duplicates).
void InsertRandom(Relation* rel, std::mt19937_64* rng, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Tuple t({PoolValue(rng), Value::Int(static_cast<int64_t>((*rng)() % 6))});
    ASSERT_TRUE(rel->Insert(std::move(t)).ok());
  }
}

TEST(FlatIndexDifferentialTest, InsertsWithDuplicates) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Relation rel(2);
    ASSERT_TRUE(rel.BuildIndex(0).ok());
    ASSERT_TRUE(rel.BuildIndex(1).ok());
    size_t attempted = 0;
    for (size_t step : {1, 2, 5, 20, 100, 400}) {
      InsertRandom(&rel, &rng, step);
      attempted += step;
      ExpectIndexMatchesRows(rel, 0);
      ExpectIndexMatchesRows(rel, 1);
    }
    EXPECT_LT(rel.size(), attempted) << "the pool must produce duplicates";
  }
}

TEST(FlatIndexDifferentialTest, CopiesDivergeIndependently) {
  for (uint64_t seed : {5, 6, 7}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Relation source(2);
    InsertRandom(&source, &rng, 300);
    ASSERT_TRUE(source.BuildIndex(0).ok());  // counting-pass layout
    InsertRandom(&source, &rng, 50);         // then relocations
    Relation copy = source;
    ExpectIndexMatchesRows(copy, 0);

    // Snapshot the copy's lists, then grow only the source.
    std::vector<std::vector<uint32_t>> before;
    for (const Value& probe : Probes()) {
      const std::span<const uint32_t> hits = copy.Matches(0, probe);
      before.emplace_back(hits.begin(), hits.end());
    }
    const size_t copy_size = copy.size();
    InsertRandom(&source, &rng, 200);
    ExpectIndexMatchesRows(source, 0);
    ASSERT_EQ(copy.size(), copy_size);
    ExpectIndexMatchesRows(copy, 0);
    const std::vector<Value> probes = Probes();
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(copy.Matches(0, probes[i]), before[i]))
          << probes[i].ToString();
    }

    // Now the copy alone, with other rows.
    Relation copy_of_source = source;
    InsertRandom(&copy, &rng, 200);
    ExpectIndexMatchesRows(copy, 0);
    ExpectIndexMatchesRows(source, 0);
    EXPECT_EQ(source, copy_of_source);
  }
}

TEST(FlatIndexDifferentialTest, RebuildEqualsIncremental) {
  for (uint64_t seed : {8, 9}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Relation rel(2);
    ASSERT_TRUE(rel.BuildIndex(0).ok());
    InsertRandom(&rel, &rng, 500);
    Relation rebuilt = rel;
    ASSERT_TRUE(rebuilt.BuildIndex(0).ok());
    for (const Value& probe : Probes()) {
      EXPECT_TRUE(std::ranges::equal(rel.Matches(0, probe),
                                     rebuilt.Matches(0, probe)))
          << probe.ToString();
    }
    // Inserting into a rebuilt index fills its headroom, then relocates
    // its lists.
    InsertRandom(&rebuilt, &rng, 300);
    ExpectIndexMatchesRows(rebuilt, 0);
  }
}

TEST(FlatIndexDifferentialTest, MovedFromAndEmptyRelations) {
  std::mt19937_64 rng(10);
  Relation empty(2);
  ASSERT_TRUE(empty.BuildIndex(0).ok());
  EXPECT_TRUE(empty.Matches(0, Value::Int(1)).empty());
  ExpectIndexMatchesRows(empty, 0);
  Relation empty_copy = empty;
  InsertRandom(&empty_copy, &rng, 40);
  ExpectIndexMatchesRows(empty_copy, 0);
  EXPECT_TRUE(empty.Matches(0, empty_copy.rows()[0].at(0)).empty());

  Relation source(2);
  ASSERT_TRUE(source.BuildIndex(0).ok());
  InsertRandom(&source, &rng, 200);
  Relation moved = std::move(source);
  ExpectIndexMatchesRows(moved, 0);
  // The moved-from relation is empty and unindexed, and usable again.
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(source.HasIndex(0));
  EXPECT_TRUE(source.Matches(0, Value::Int(1)).empty());
  ASSERT_TRUE(source.BuildIndex(0).ok());
  InsertRandom(&source, &rng, 100);
  ExpectIndexMatchesRows(source, 0);
  ExpectIndexMatchesRows(moved, 0);
}

TEST(FlatIndexDifferentialTest, HotKeyRelocatesManyTimes) {
  // Each hot row is followed by a fresh key, so the hot list never ends
  // the arena and every doubling moves it; then a run of hot rows alone,
  // where it does end the arena and grows in place.
  Relation rel(2);
  ASSERT_TRUE(rel.BuildIndex(0).ok());
  const Value hot = Value::String("hot");
  int64_t id = 0;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(*rel.Insert(Tuple({hot, Value::Int(id++)})));
    ASSERT_TRUE(*rel.Insert(Tuple({Value::Int(id), Value::Int(id)})));
    ++id;
    if ((i & (i + 1)) == 0) ExpectIndexMatchesRows(rel, 0);  // i = 2^k - 1
  }
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(*rel.Insert(Tuple({hot, Value::Int(id++)})));
  }
  ExpectIndexMatchesRows(rel, 0);
  EXPECT_EQ(rel.Matches(0, hot).size(), 6000u);
  // A copy keeps the layout; inserting into it moves the hot list again.
  Relation copy = rel;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(*copy.Insert(Tuple({Value::Int(-1 - i), Value::Int(0)})));
    ASSERT_TRUE(*copy.Insert(Tuple({hot, Value::Int(-1 - i)})));
  }
  ExpectIndexMatchesRows(copy, 0);
  ExpectIndexMatchesRows(rel, 0);
  EXPECT_EQ(copy.Matches(0, hot).size(), 6100u);
}

TEST(DatabaseIndexTest, BuildIndexValidation) {
  Database db;
  db.Put("r", BigPairs(10));
  EXPECT_TRUE(db.BuildIndex("r", 0).ok());
  EXPECT_FALSE(db.BuildIndex("r", 5).ok());
  EXPECT_FALSE(db.BuildIndex("ghost", 0).ok());
  db.BuildAllIndexes();
  EXPECT_TRUE((*db.Get("r"))->HasIndex(1));
}

TEST(ExecutorIndexTest, SelectOverScanUsesIndex) {
  Database db;
  db.Put("r", BigPairs(1000));
  ASSERT_TRUE(db.BuildIndex("r", 1).ok());
  ExprPtr plan = Expr::Select(
      Expr::Scan("r"), Predicate::ColVal(CompareOp::kEq, 1, Value::Int(4)));
  Executor exec(&db);
  auto rel = exec.Evaluate(plan);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 100u);
  // Only the bucket rows were touched, not all 1000.
  EXPECT_EQ(exec.stats().tuples_scanned, 100u);
}

TEST(ExecutorIndexTest, ResidualConjunctsStillApply) {
  Database db;
  db.Put("r", BigPairs(1000));
  ASSERT_TRUE(db.BuildIndex("r", 1).ok());
  ExprPtr plan = Expr::Select(
      Expr::Scan("r"),
      Predicate::And({Predicate::ColVal(CompareOp::kEq, 1, Value::Int(4)),
                      Predicate::ColVal(CompareOp::kLt, 0,
                                        Value::Int(500))}));
  Executor exec(&db);
  auto rel = exec.Evaluate(plan);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 50u);
  EXPECT_EQ(exec.stats().tuples_scanned, 100u);  // bucket size
}

TEST(ExecutorIndexTest, UnindexedColumnFallsBackToScan) {
  Database db;
  db.Put("r", BigPairs(1000));
  ASSERT_TRUE(db.BuildIndex("r", 1).ok());
  ExprPtr plan = Expr::Select(
      Expr::Scan("r"), Predicate::ColVal(CompareOp::kEq, 0, Value::Int(4)));
  Executor exec(&db);
  auto rel = exec.Evaluate(plan);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_EQ(exec.stats().tuples_scanned, 1000u);
}

/// An IndexScan lowered before its relation was replaced by an unindexed
/// copy is refused, serially and in parallel: Matches on the missing
/// index is empty, so running it would answer {}. A fresh Run prepares
/// against the new catalog (a table scan plus filter) and answers.
TEST(ExecutorIndexTest, StaleIndexScanIsRefused) {
  Database db;
  db.Put("r", BigPairs(1000));
  ASSERT_TRUE(db.BuildIndex("r", 1).ok());
  Executor lowerer(&db);
  auto plan = lowerer.Lower(Expr::Select(
      Expr::Scan("r"), Predicate::ColVal(CompareOp::kEq, 1, Value::Int(4))));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ((*plan)->kind, PhysicalKind::kIndexScan);
  db.Put("r", BigPairs(1000));
  for (size_t threads : {0u, 2u}) {
    QueryOptions options;
    options.num_threads = threads;
    ResourceGovernor governor(options);
    Executor stale(&db, ExecOptions{}, &governor);
    auto rel = stale.ExecutePhysical(*plan);
    ASSERT_FALSE(rel.ok()) << "threads=" << threads;
    EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument)
        << rel.status();
    EXPECT_NE(rel.status().message().find("'r'"), std::string::npos)
        << rel.status();

    QueryProcessor qp(&db);
    auto fresh = qp.Run("{ a | r(a, 4) }", Strategy::kBry, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(fresh->answer.relation.size(), 100u);
  }
}

TEST(ExecutorIndexTest, SameAnswersWithAndWithoutIndexes) {
  Database plain, indexed;
  plain.Put("r", BigPairs(500));
  indexed.Put("r", BigPairs(500));
  indexed.BuildAllIndexes();
  ExprPtr plan = Expr::Project(
      Expr::Select(Expr::Scan("r"),
                   Predicate::ColVal(CompareOp::kEq, 1, Value::Int(7))),
      {0});
  Executor a(&plain), b(&indexed);
  auto ra = a.Evaluate(plan);
  auto rb = b.Evaluate(plan);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra, *rb);
  EXPECT_LT(b.stats().tuples_scanned, a.stats().tuples_scanned);
}

TEST(NestedLoopIndexTest, BoundArgumentUsesIndex) {
  Database db;
  db.Put("attends", StringPairs({{"ann", "l1"},
                                 {"ann", "l2"},
                                 {"bob", "l1"},
                                 {"cal", "l3"}}));
  db.Put("student", UnaryStrings({"ann", "bob", "cal"}));
  Database indexed = db;
  indexed.BuildAllIndexes();
  auto query = ParseQuery("{ y | attends(ann, y) }");
  ASSERT_TRUE(query.ok());
  NestedLoopEvaluator plain(&db), fast(&indexed);
  auto ra = plain.EvaluateOpen(*query);
  auto rb = fast.EvaluateOpen(*query);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra, *rb);
  EXPECT_EQ(ra->size(), 2u);
  EXPECT_EQ(plain.stats().tuples_scanned, 4u);  // full scan
  EXPECT_EQ(fast.stats().tuples_scanned, 2u);   // index bucket only
}

TEST(NestedLoopIndexTest, JoinVariableProbesThroughIndex) {
  Database db;
  Relation student(1), attends(2);
  for (int i = 0; i < 50; ++i) {
    std::string name = "s" + std::to_string(i);
    student.Insert(Tuple({Value::String(name)}));
    attends.Insert(Tuple({Value::String(name),
                          Value::String("l" + std::to_string(i % 5))}));
  }
  db.Put("student", student);
  db.Put("attends", attends);
  Database indexed = db;
  indexed.BuildAllIndexes();
  auto query = ParseQuery("{ x | student(x) & (exists y: attends(x, y)) }");
  ASSERT_TRUE(query.ok());
  NestedLoopEvaluator plain(&db), fast(&indexed);
  auto ra = plain.EvaluateOpen(*query);
  auto rb = fast.EvaluateOpen(*query);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra, *rb);
  EXPECT_LT(fast.stats().tuples_scanned, plain.stats().tuples_scanned);
}

TEST(IndexEndToEndTest, StrategiesAgreeOnIndexedDatabase) {
  Database db;
  db.Put("student", UnaryStrings({"ann", "bob", "cal"}));
  db.Put("lecture", StringPairs({{"l1", "db"}, {"l2", "db"}}));
  db.Put("attends",
         StringPairs({{"ann", "l1"}, {"ann", "l2"}, {"bob", "l1"}}));
  db.BuildAllIndexes();
  QueryProcessor qp(&db);
  const char* text =
      "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }";
  auto reference = qp.Run(text, Strategy::kNestedLoop);
  ASSERT_TRUE(reference.ok());
  for (Strategy s : {Strategy::kBry, Strategy::kClassical}) {
    auto got = qp.Run(text, s);
    ASSERT_TRUE(got.ok()) << StrategyName(s) << ": " << got.status();
    EXPECT_EQ(got->answer.relation, reference->answer.relation);
  }
  EXPECT_EQ(reference->answer.relation, UnaryStrings({"ann"}));
}

}  // namespace
}  // namespace bryql
