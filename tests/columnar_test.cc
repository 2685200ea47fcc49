// Unit and integration coverage for the columnar layer: ColumnStore
// layout (segments, dictionary, zone maps), the vectorized
// PredicateKernel against Predicate::Eval as oracle, zone-map pruning
// through the executor, the lowering's access-path choice, the refusal of
// a stale plan, budget/witness parity with the row engine, and the
// store's maintenance under Insert and Relation copies.

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
#include "storage/columnar/column_store.h"
#include "storage/columnar/predicate_kernel.h"
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

TEST(ColumnStoreTest, LayoutSegmentsAndZones) {
  Relation rel = MakeEvents(kSegmentRows * 2 + 100);
  rel.BuildColumnStore();
  const ColumnStore* store = rel.column_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->arity(), 3u);
  EXPECT_EQ(store->rows(), rel.size());
  EXPECT_EQ(store->segments(), 3u);
  EXPECT_EQ(store->SegmentSize(0), kSegmentRows);
  EXPECT_EQ(store->SegmentSize(2), 100u);

  // Ascending ids: segment 1's id zone is exactly [1024, 2047].
  const ZoneMap& z = store->zone(0, 1);
  EXPECT_EQ(z.count, kSegmentRows);
  EXPECT_EQ(z.nulls, 0u);
  EXPECT_TRUE(z.uniform);
  EXPECT_EQ(z.kind, ValueKind::kInt);
  EXPECT_EQ(z.min, Value::Int(static_cast<int64_t>(kSegmentRows)));
  EXPECT_EQ(z.max, Value::Int(static_cast<int64_t>(2 * kSegmentRows - 1)));

  // The category column dictionary holds the four distinct strings once.
  EXPECT_EQ(store->column(1).dict.size(), 4u);

  // Round trip: every value reconstructs exactly.
  for (size_t i = 0; i < rel.size(); i += 97) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(store->ValueAt(c, i), rel.rows()[i].at(c))
          << "row " << i << " col " << c;
    }
    Tuple t;
    store->MaterializeRow(i, &t);
    EXPECT_EQ(t, rel.rows()[i]);
  }
}

TEST(ColumnStoreTest, InsertMaintainsStoreIncrementally) {
  Relation rel = MakeEvents(10);
  rel.BuildColumnStore();
  ASSERT_EQ(rel.column_store()->rows(), 10u);
  ASSERT_TRUE(*rel.Insert(Tuple({Value::Int(100), Value::String("new"),
                                Value::Double(1.5)}))
                  );
  EXPECT_EQ(rel.column_store()->rows(), 11u);
  EXPECT_EQ(rel.column_store()->ValueAt(1, 10), Value::String("new"));
  // A duplicate is rejected by the row store and must not reach the
  // column store either.
  ASSERT_FALSE(*rel.Insert(Tuple({Value::Int(100), Value::String("new"),
                                 Value::Double(1.5)}))
                   );
  EXPECT_EQ(rel.column_store()->rows(), 11u);
  EXPECT_EQ(rel.column_store()->rows(), rel.size());
}

TEST(ColumnStoreTest, RelationCopyDeepCopiesStore) {
  Relation rel = MakeEvents(5);
  rel.BuildColumnStore();
  Relation copy = rel;
  ASSERT_NE(copy.column_store(), nullptr);
  EXPECT_NE(copy.column_store(), rel.column_store());
  ASSERT_TRUE(*rel.Insert(Tuple({Value::Int(99), Value::String("x"),
                                Value::Double(0)}))
                  );
  EXPECT_EQ(rel.column_store()->rows(), 6u);
  EXPECT_EQ(copy.column_store()->rows(), 5u);
}

/// Checks `rel`'s column store against its rows: ValueAt equals rows()
/// everywhere, and column `c`'s strings are coded in first-appearance
/// order (the k-th distinct string of the column gets code k).
void ExpectStoreMatchesRows(const Relation& rel, size_t c) {
  const ColumnStore* store = rel.column_store();
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->rows(), rel.size());
  const ColumnStore::Column& col = store->column(c);
  std::vector<std::string> first_seen;
  for (size_t r = 0; r < rel.size(); ++r) {
    for (size_t k = 0; k < store->arity(); ++k) {
      ASSERT_EQ(store->ValueAt(k, r), rel.rows()[r].at(k))
          << "row " << r << " col " << k;
    }
    const Value& v = rel.rows()[r].at(c);
    if (v.kind() != ValueKind::kString) continue;
    auto it = std::find(first_seen.begin(), first_seen.end(), v.AsString());
    const size_t code = static_cast<size_t>(it - first_seen.begin());
    if (it == first_seen.end()) first_seen.push_back(v.AsString());
    ASSERT_EQ(col.data[r], static_cast<int64_t>(code)) << "row " << r;
  }
  EXPECT_EQ(col.dict, first_seen);
}

TEST(ColumnStoreTest, DictionaryCodesFollowFirstAppearance) {
  // 3000 distinct strings take the dictionary's slot table through many
  // growths; every string then appears again, mixed with new ones, and
  // must keep the code it was given first.
  Relation rel(2);
  rel.BuildColumnStore();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(*rel.Insert(Tuple({Value::String("k" + std::to_string(i)),
                                   Value::Int(0)})));
  }
  for (int i = 2999; i >= 0; --i) {
    ASSERT_TRUE(*rel.Insert(Tuple({Value::String("k" + std::to_string(i)),
                                   Value::Int(1)})));
    ASSERT_TRUE(*rel.Insert(Tuple({Value::String("n" + std::to_string(i)),
                                   Value::Int(1)})));
  }
  ASSERT_TRUE(*rel.Insert(Tuple({Value::Null(), Value::Int(2)})));
  EXPECT_EQ(rel.column_store()->column(0).dict.size(), 6000u);
  ExpectStoreMatchesRows(rel, 0);
  // Rebuilding from the rows assigns the same codes.
  Relation rebuilt = rel;
  rebuilt.BuildColumnStore();
  EXPECT_EQ(rebuilt.column_store()->column(0).data,
            rel.column_store()->column(0).data);
}

TEST(ColumnStoreTest, CopiedDictionariesDivergeIndependently) {
  std::mt19937_64 rng(11);
  Relation source(2);
  source.BuildColumnStore();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(source
                    .Insert(Tuple({Value::String("s" + std::to_string(
                                                           rng() % 300)),
                                   Value::Int(i)}))
                    .ok());
  }
  Relation copy = source;
  const size_t shared = source.column_store()->column(0).dict.size();
  // Each side appends strings the other never sees, and strings both
  // already hold.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(source
                    .Insert(Tuple({Value::String("src" + std::to_string(i)),
                                   Value::Int(1000 + i)}))
                    .ok());
    ASSERT_TRUE(copy.Insert(Tuple({Value::String("cpy" + std::to_string(i)),
                                   Value::Int(1000 + i)}))
                    .ok());
    ASSERT_TRUE(copy.Insert(Tuple({Value::String("s" + std::to_string(
                                                          rng() % 300)),
                                   Value::Int(2000 + i)}))
                    .ok());
    if (i % 97 == 0) {
      ExpectStoreMatchesRows(source, 0);
      ExpectStoreMatchesRows(copy, 0);
    }
  }
  ExpectStoreMatchesRows(source, 0);
  ExpectStoreMatchesRows(copy, 0);
  const std::vector<std::string>& src_dict =
      source.column_store()->column(0).dict;
  const std::vector<std::string>& cpy_dict =
      copy.column_store()->column(0).dict;
  EXPECT_EQ(src_dict.size(), shared + 400);
  EXPECT_TRUE(std::equal(src_dict.begin(), src_dict.begin() + shared,
                         cpy_dict.begin()));
  EXPECT_EQ(src_dict[shared], "src0");
  EXPECT_EQ(cpy_dict[shared], "cpy0");
  auto has_prefix = [](const std::vector<std::string>& dict, const char* p) {
    return std::any_of(dict.begin(), dict.end(), [&](const std::string& s) {
      return s.rfind(p, 0) == 0;
    });
  };
  EXPECT_FALSE(has_prefix(src_dict, "cpy"));
  EXPECT_FALSE(has_prefix(cpy_dict, "src"));
}

/// Random values drawn from a pool small enough that predicates hit.
Value RandomValue(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
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

/// The kernel's three levels against Predicate::Eval on every row —
/// mixed-kind columns, nulls, and NaN doubles included, so every fast
/// path, every fallback, and the zone-verdict shortcuts are exercised
/// and must agree with the row engine bit for bit.
TEST(PredicateKernelTest, AgreesWithPredicateEvalRandomized) {
  std::mt19937_64 rng(20260807);
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
    rel.BuildColumnStore();
    const ColumnStore* store = rel.column_store();

    for (int p = 0; p < 20; ++p) {
      PredicatePtr pred = RandomPredicate(&rng, arity, 2);
      PredicateKernel kernel(store, pred.get());
      std::vector<uint8_t> expected(store->rows());
      size_t oracle_cmp = 0;
      for (size_t i = 0; i < store->rows(); ++i) {
        expected[i] = pred->Eval(rel.rows()[i], &oracle_cmp);
      }
      // Vectorized level.
      std::vector<size_t> sel;
      size_t cmp = 0;
      for (size_t seg = 0; seg < store->segments(); ++seg) {
        const size_t begin = seg * kSegmentRows;
        kernel.EvalRange(begin, begin + store->SegmentSize(seg), &sel,
                         &cmp);
      }
      size_t pos = 0;
      for (size_t i = 0; i < store->rows(); ++i) {
        const bool selected = pos < sel.size() && sel[pos] == i;
        ASSERT_EQ(selected, expected[i] != 0)
            << "round " << round << " pred " << pred->ToString()
            << " row " << i << ": " << rel.rows()[i].ToString();
        if (selected) ++pos;
      }
      EXPECT_EQ(pos, sel.size());
      // Row-at-a-time level.
      size_t row_cmp = 0;
      for (size_t i = 0; i < store->rows(); ++i) {
        ASSERT_EQ(kernel.EvalRow(i, &row_cmp), expected[i] != 0)
            << "EvalRow disagrees: " << pred->ToString() << " row " << i;
      }
      // EvalRow mirrors Eval's short-circuiting, so its comparison count
      // matches the oracle's exactly.
      EXPECT_EQ(row_cmp, oracle_cmp) << pred->ToString();
      // Zone level is conservative: kNone/kAll claims must hold exactly.
      for (size_t seg = 0; seg < store->segments(); ++seg) {
        const PredicateKernel::Zone zone = kernel.ZoneTest(seg);
        if (zone == PredicateKernel::Zone::kMaybe) continue;
        const bool want = zone == PredicateKernel::Zone::kAll;
        const size_t begin = seg * kSegmentRows;
        for (size_t i = begin; i < begin + store->SegmentSize(seg); ++i) {
          ASSERT_EQ(expected[i] != 0, want)
              << "zone verdict lies: " << pred->ToString() << " seg "
              << seg << " row " << i;
        }
      }
    }
  }
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
    ASSERT_TRUE(db_.EnableColumnar("events").ok());
  }

  Database db_;
};

TEST_F(ColumnarExecTest, LoweringChoosesColumnarAndPrunes) {
  Executor ex(&db_);
  // Selective range over the ascending id column: 7 of 8 segments are
  // provably empty for it and must be pruned.
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kLt, 0, Value::Int(100)));
  auto plan = ex.Lower(expr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE((*plan)->ToString().find("ColumnarScan events"),
            std::string::npos)
      << (*plan)->ToString();
  auto result = ex.ExecutePhysical(*plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 100u);
  EXPECT_EQ(ex.stats().segments_pruned, 7u);
  EXPECT_EQ(ex.stats().segments_scanned, 1u);
  // Pruning never discounts the scan budget: all rows were admitted.
  EXPECT_EQ(ex.stats().tuples_scanned, 8 * kSegmentRows);
  // ...but it does discount the work: only the surviving segment's rows
  // were compared.
  EXPECT_LE(ex.stats().comparisons, kSegmentRows);
}

TEST_F(ColumnarExecTest, OptionDisablesColumnarPath) {
  ExecOptions options;
  options.use_columnar = false;
  Executor ex(&db_, options);
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kLt, 0, Value::Int(100)));
  auto plan = ex.Lower(expr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*plan)->ToString().find("ColumnarScan"), std::string::npos);
  EXPECT_NE((*plan)->ToString().find("TableScan"), std::string::npos);
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

TEST_F(ColumnarExecTest, StalePlanIsRefused) {
  Executor ex(&db_);
  ExprPtr expr = Expr::Select(
      Expr::Scan("events"),
      Predicate::ColVal(CompareOp::kGe, 0, Value::Int(8100)));
  auto plan = ex.Lower(expr);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE((*plan)->ToString().find("ColumnarScan"), std::string::npos);
  // Replace the relation with one that has no column store: the plan is
  // stale, and is refused rather than run on another access path.
  db_.Put("events", MakeEvents(8 * kSegmentRows));
  for (size_t threads : {0u, 2u}) {
    QueryOptions options;
    options.num_threads = threads;
    ResourceGovernor governor(options);
    Executor stale_ex(&db_, ExecOptions{}, &governor);
    auto result = stale_ex.ExecutePhysical(*plan);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
    EXPECT_NE(result.status().message().find("'events'"), std::string::npos)
        << result.status();

    // A fresh run prepares against the new catalog and answers.
    QueryProcessor qp(&db_);
    auto fresh = qp.Run("{ i, c, s | events(i, c, s) & i >= 8100 }",
                        Strategy::kBry, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(fresh->answer.relation.size(), 8 * kSegmentRows - 8100);
    EXPECT_EQ(fresh->stats.segments_scanned, 0u);
  }
}

TEST_F(ColumnarExecTest, RowAndColumnarAgreeOnCountersAndAnswers) {
  ExecOptions row_options;
  row_options.use_columnar = false;
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
  for (const PredicatePtr& pred : preds) {
    ExprPtr expr = Expr::Select(Expr::Scan("events"), pred);
    Executor columnar(&db_);
    Executor row(&db_, row_options);
    auto a = columnar.Evaluate(expr);
    auto b = row.Evaluate(expr);
    ASSERT_TRUE(a.ok() && b.ok()) << pred->ToString();
    EXPECT_EQ(*a, *b) << pred->ToString();
    EXPECT_EQ(columnar.stats().tuples_scanned, row.stats().tuples_scanned)
        << pred->ToString();
    EXPECT_EQ(columnar.stats().tuples_materialized,
              row.stats().tuples_materialized)
        << pred->ToString();
  }
}

TEST_F(ColumnarExecTest, FirstWitnessAdmissionParity) {
  // The witness for id >= w sits at row w: both engines must admit
  // exactly w+1 rows before stopping.
  for (int64_t w : {0, 5, 2000, 5000}) {
    ExprPtr expr = Expr::NonEmpty(Expr::Select(
        Expr::Scan("events"),
        Predicate::ColVal(CompareOp::kGe, 0, Value::Int(w))));
    ExecOptions row_options;
    row_options.use_columnar = false;
    Executor columnar(&db_);
    Executor row(&db_, row_options);
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
  ExecOptions row_options;
  row_options.use_columnar = false;
  ResourceGovernor g1(options), g2(options);
  Executor columnar(&db_, ExecOptions{}, &g1);
  Executor row(&db_, row_options, &g2);
  auto a = columnar.Evaluate(expr);
  auto b = row.Evaluate(expr);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.status().code(), b.status().code());
}

}  // namespace
}  // namespace bryql
