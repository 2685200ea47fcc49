// Differential testing of the prepared/batched path: over randomized
// databases the whole paper query suite must give the Figure 1 nested
// loop's answers, through Run and through Prepare/Execute alike; and
// under a resource budget, batch size 1 and the default batch size must
// reach the same verdict with identical counters. Also covers the
// prepared-query contract itself: the second run of a query does zero
// parse/rewrite/translate/lower work, and the LRU plan cache behaves as
// one.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/plan_cache.h"
#include "core/query_processor.h"
#include "workload/university.h"

namespace bryql {
namespace {

UniversityConfig SmallConfig(uint64_t seed) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = seed;
  return config;
}

void ExpectSameAnswer(const Execution& a, const Execution& b,
                      const std::string& label) {
  ASSERT_EQ(a.answer.closed, b.answer.closed) << label;
  if (a.answer.closed) {
    EXPECT_EQ(a.answer.truth, b.answer.truth) << label;
  } else {
    EXPECT_EQ(a.answer.relation, b.answer.relation) << label;
  }
}

class PreparedDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

/// The headline differential: the nested loop, which evaluates the
/// calculus with no translator or lowering in between, against the
/// batched path, whole suite, randomized databases, the strategies with a
/// real algebra pipeline.
TEST_P(PreparedDifferentialTest, SuiteAgreesWithNestedLoop) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor qp(&db);

  for (const NamedQuery& nq : PaperQuerySuite()) {
    auto oracle = qp.Run(nq.text, Strategy::kNestedLoop);
    ASSERT_TRUE(oracle.ok()) << nq.name << ": " << oracle.status();
    for (Strategy s : {Strategy::kBry, Strategy::kClassical}) {
      const std::string label = nq.name + " [" + StrategyName(s) + "]";

      // Single-shot Run (lower + batched execute).
      auto run = qp.Run(nq.text, s);
      ASSERT_TRUE(run.ok()) << label << ": " << run.status();
      ExpectSameAnswer(*oracle, *run, label + " via Run");

      // Explicit Prepare → Execute.
      auto prepared = qp.Prepare(nq.text, s);
      ASSERT_TRUE(prepared.ok()) << label << ": " << prepared.status();
      auto exec = qp.Execute(*prepared);
      ASSERT_TRUE(exec.ok()) << label << ": " << exec.status();
      ExpectSameAnswer(*oracle, *exec, label + " via Prepare/Execute");
    }
  }
}

/// Governor parity across batch sizes: for any one budget, batch size 1
/// and the default batch size must reach the same verdict — both succeed
/// with equal answers and identical counters, or both trip with the same
/// StatusCode. Every operator admits once per row at any capacity, so a
/// budget that stops one run stops the other on the same row.
TEST_P(PreparedDifferentialTest, BudgetTripsIdenticallyAcrossBatchSizes) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor size1_qp(&db);
  ExecOptions size1;
  size1.batch_size = 1;
  size1_qp.SetExecOptions(size1);
  QueryProcessor batched_qp(&db);

  struct Budget {
    const char* label;
    QueryOptions options;
  };
  std::vector<Budget> budgets;
  budgets.push_back({"no", QueryOptions{}});
  for (size_t cap : {3u, 25u, 400u}) {
    QueryOptions scan;
    scan.max_scanned_tuples = cap;
    budgets.push_back({"scan", scan});
    QueryOptions mat;
    mat.max_materialized_tuples = cap;
    budgets.push_back({"materialize", mat});
  }

  for (const Budget& budget : budgets) {
    for (const NamedQuery& nq : PaperQuerySuite()) {
      auto tiny = size1_qp.Run(nq.text, Strategy::kBry, budget.options);
      auto big = batched_qp.Run(nq.text, Strategy::kBry, budget.options);
      const std::string label = nq.name + " [" + budget.label + " cap]";
      ASSERT_EQ(tiny.ok(), big.ok())
          << label << ": size1=" << tiny.status()
          << " size" << kDefaultBatchSize << "=" << big.status();
      if (tiny.ok()) {
        ExpectSameAnswer(*tiny, *big, label);
        EXPECT_EQ(tiny->stats.ToString(), big->stats.ToString()) << label;
      } else {
        EXPECT_EQ(tiny.status().code(), big.status().code())
            << label << ": size1=" << tiny.status()
            << " size" << kDefaultBatchSize << "=" << big.status();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedDifferentialTest,
                         ::testing::Values(1u, 2u, 7u));

/// The zero-work guarantee: the second Run of the same text advances no
/// preparation counter — no parse, no rewrite, no translation, no
/// lowering — and is observable as a cache hit.
TEST(PlanCacheBehaviorTest, SecondRunDoesZeroPreparationWork) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  const std::string text =
      "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }";

  auto first = qp.Run(text);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan_cache_hit);
  const PrepareCounters after_first = qp.prepare_counters();
  EXPECT_EQ(after_first.parses, 1u);
  EXPECT_GE(after_first.normalizations, 1u);
  EXPECT_GE(after_first.translations, 1u);
  EXPECT_EQ(after_first.lowerings, 1u);

  auto second = qp.Run(text);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->plan_cache_hit);
  const PrepareCounters after_second = qp.prepare_counters();
  EXPECT_EQ(after_second.parses, after_first.parses);
  EXPECT_EQ(after_second.normalizations, after_first.normalizations);
  EXPECT_EQ(after_second.translations, after_first.translations);
  EXPECT_EQ(after_second.lowerings, after_first.lowerings);
  EXPECT_EQ(qp.cache_stats().hits, 1u);
  EXPECT_EQ(qp.cache_size(), 1u);

  ExpectSameAnswer(*first, *second, "cached rerun");
}

TEST(PlanCacheBehaviorTest, PrepareIsServedFromCacheAfterRun) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  const std::string text = "{ x | student(x) & makes(x, phd) }";
  ASSERT_TRUE(qp.Run(text).ok());
  const PrepareCounters before = qp.prepare_counters();
  auto prepared = qp.Prepare(text);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(qp.prepare_counters().parses, before.parses);
  EXPECT_EQ(qp.prepare_counters().lowerings, before.lowerings);
  ASSERT_NE((*prepared)->physical, nullptr);
  EXPECT_EQ((*prepared)->text, text);
}

TEST(PlanCacheBehaviorTest, DistinctStrategiesMissAndExecOptionsKeepTheCache) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  const std::string text = "exists x: student(x) & makes(x, phd)";
  auto first = qp.Run(text, Strategy::kBry);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(qp.Run(text, Strategy::kClassical).ok());
  EXPECT_EQ(qp.cache_size(), 2u);  // one entry per strategy
  EXPECT_EQ(qp.cache_stats().hits, 0u);

  // Exec options are read when a plan runs, never when it is lowered, so
  // changing them keeps every cached plan.
  ExecOptions size1;
  size1.batch_size = 1;
  qp.SetExecOptions(size1);
  EXPECT_EQ(qp.cache_size(), 2u);
  const PrepareCounters before = qp.prepare_counters();
  auto rerun = qp.Run(text, Strategy::kBry);
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(rerun->plan_cache_hit);
  EXPECT_EQ(qp.prepare_counters().lowerings, before.lowerings);
  ExpectSameAnswer(*first, *rerun, "batch size 1 on the cached plan");
}

TEST(PlanCacheBehaviorTest, CatalogChangeInvalidatesCachedLowering) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  const std::string text = "{ x | student(x) & makes(x, phd) }";
  auto cold = qp.Run(text);
  ASSERT_TRUE(cold.ok());
  auto prepared = qp.Prepare(text);
  ASSERT_TRUE(prepared.ok());

  // Building an index moves the catalog version: the cached plan is now
  // stale, and both Run and Execute must still answer correctly.
  ASSERT_TRUE(db.BuildIndex("makes", 0).ok());
  auto rerun = qp.Run(text);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_FALSE(rerun->plan_cache_hit);  // stale entry cannot count as hit
  ExpectSameAnswer(*cold, *rerun, "post-index Run");

  auto exec = qp.Execute(*prepared);  // holds the pre-index lowering
  ASSERT_TRUE(exec.ok()) << exec.status();
  ExpectSameAnswer(*cold, *exec, "post-index Execute of stale plan");
}

TEST(PlanCacheBehaviorTest, ExecuteRejectsNullPrepared) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  EXPECT_FALSE(qp.Execute(nullptr).ok());
}

/// Unit-level LRU behaviour of the cache itself.
TEST(PlanCacheUnitTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  auto entry = [](const std::string& text) {
    auto p = std::make_shared<PreparedQuery>();
    p->text = text;
    return PreparedQueryPtr(std::move(p));
  };
  cache.Put("a", entry("a"));
  cache.Put("b", entry("b"));
  ASSERT_NE(cache.Get("a", 0), nullptr);  // refresh a: b is now the LRU
  cache.Put("c", entry("c"));             // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get("a", 0), nullptr);
  EXPECT_EQ(cache.Get("b", 0), nullptr);
  EXPECT_NE(cache.Get("c", 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCacheUnitTest, PutReplacesAndClearKeepsCounters) {
  PlanCache cache(4);
  auto p1 = std::make_shared<PreparedQuery>();
  p1->text = "v1";
  auto p2 = std::make_shared<PreparedQuery>();
  p2->text = "v2";
  cache.Put("k", p1);
  cache.Put("k", p2);
  EXPECT_EQ(cache.size(), 1u);
  auto got = cache.Get("k", 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->text, "v2");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);  // counters survive Clear
}

}  // namespace
}  // namespace bryql
