// The zone-map differential suite: the row path stays authoritative. A
// database with zone maps (EnableColumnarAll) must produce bit-identical
// answers to a copy of it taken before they were built — and matching
// governor counters where execution is deterministic — across the whole
// 16-query paper suite, at every parallelism degree, under tuple budgets,
// and down the service layer's degradation ladder. `comparisons` may only
// fall: skipping comparisons at equal answers is what zone maps are for.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

class ColumnarDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    db_ = MakeUniversity(SmallConfig(GetParam()));
    row_db_ = db_;  // the row path: the same catalog without zone maps
    db_.EnableColumnarAll();
  }

  Database db_;
  Database row_db_;
};

/// Whole suite, threads {0, 1, 2, 8}: answers must be bit-identical, and
/// budget counters must match wherever execution is deterministic — open
/// queries drain every operator fully, so their counters are exact at any
/// degree; closed (first-witness) queries race workers at degree > 0, so
/// only the serial degrees pin their counters.
TEST_P(ColumnarDifferentialTest, SuiteAgreesWithRowEngine) {
  QueryProcessor columnar_qp(&db_);
  QueryProcessor row_qp(&row_db_);

  for (size_t threads : {0u, 1u, 2u, 8u}) {
    QueryOptions options;
    options.num_threads = threads;
    for (const NamedQuery& nq : PaperQuerySuite()) {
      const std::string label =
          nq.name + " [threads=" + std::to_string(threads) + "]";
      auto row = row_qp.Run(nq.text, Strategy::kBry, options);
      auto col = columnar_qp.Run(nq.text, Strategy::kBry, options);
      ASSERT_TRUE(row.ok()) << label << ": " << row.status();
      ASSERT_TRUE(col.ok()) << label << ": " << col.status();
      ExpectSameAnswer(*row, *col, label);
      if (!row->answer.closed || threads == 0) {
        EXPECT_EQ(col->stats.tuples_scanned, row->stats.tuples_scanned)
            << label;
        EXPECT_EQ(col->stats.tuples_materialized,
                  row->stats.tuples_materialized)
            << label;
        EXPECT_LE(col->stats.comparisons, row->stats.comparisons) << label;
      }
    }
  }
}

/// One budget stops both representations identically: equal answers when
/// both fit, the same StatusCode when either trips.
TEST_P(ColumnarDifferentialTest, BudgetsTripIdentically) {
  QueryProcessor columnar_qp(&db_);
  QueryProcessor row_qp(&row_db_);

  struct Budget {
    const char* label;
    QueryOptions options;
  };
  std::vector<Budget> budgets;
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
      const std::string label = nq.name + " [" + budget.label + " cap]";
      auto row = row_qp.Run(nq.text, Strategy::kBry, budget.options);
      auto col = columnar_qp.Run(nq.text, Strategy::kBry, budget.options);
      ASSERT_EQ(row.ok(), col.ok())
          << label << ": row=" << row.status() << " col=" << col.status();
      if (row.ok()) {
        ExpectSameAnswer(*row, *col, label);
        EXPECT_EQ(col->stats.tuples_scanned, row->stats.tuples_scanned)
            << label;
      } else {
        EXPECT_EQ(row.status().code(), col.status().code())
            << label << ": row=" << row.status() << " col=" << col.status();
      }
    }
  }
}

/// The service degradation ladder drives the same prepared plans through
/// progressively simpler execution modes. Each rung must preserve the
/// row/columnar agreement — including the last rung, which abandons the
/// algebra (and with it the columnar path) for the nested loop.
TEST_P(ColumnarDifferentialTest, DegradationLadderPreservesParity) {
  QueryProcessor columnar_qp(&db_);
  QueryProcessor row_qp(&row_db_);

  struct Rung {
    const char* label;
    Strategy strategy;
    QueryOptions options;
  };
  std::vector<Rung> ladder;
  QueryOptions parallel;
  parallel.num_threads = 2;
  ladder.push_back({"parallel", Strategy::kBry, parallel});
  ladder.push_back({"serial", Strategy::kBry, QueryOptions{}});
  QueryOptions bypass;
  bypass.bypass_plan_cache = true;
  ladder.push_back({"bypass-cache", Strategy::kBry, bypass});
  ladder.push_back({"nested-loop", Strategy::kNestedLoop, bypass});

  // Every rung must also give the serial row path's answer, so the last
  // rung, which shares no code with the others, is checked against them.
  const std::vector<NamedQuery> suite = PaperQuerySuite();
  std::vector<Execution> serial;
  for (const NamedQuery& nq : suite) {
    auto exec = row_qp.Run(nq.text, Strategy::kBry);
    ASSERT_TRUE(exec.ok()) << nq.name << ": " << exec.status();
    serial.push_back(std::move(*exec));
  }

  for (const Rung& rung : ladder) {
    for (size_t i = 0; i < suite.size(); ++i) {
      const NamedQuery& nq = suite[i];
      const std::string label = nq.name + " [" + rung.label + "]";
      auto row = row_qp.Run(nq.text, rung.strategy, rung.options);
      auto col = columnar_qp.Run(nq.text, rung.strategy, rung.options);
      ASSERT_TRUE(row.ok()) << label << ": " << row.status();
      ASSERT_TRUE(col.ok()) << label << ": " << col.status();
      ExpectSameAnswer(*row, *col, label);
      ExpectSameAnswer(serial[i], *col, label + " vs serial row path");
    }
  }
}

/// Zone maps are read when a plan runs, so building them moves no
/// catalog version: a prepared handle survives the call with no
/// preparation work, and its next Execute prunes by them.
TEST_P(ColumnarDifferentialTest, EnableColumnarKeepsPreparedPlans) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor qp(&db);
  // No lecture has subject zz: lecture's one segment provably holds no
  // match once it has zone maps.
  auto prepared = qp.Prepare("{ x | lecture(x, zz) }");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto before = qp.Execute(*prepared);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->stats.segments_pruned, 0u);
  EXPECT_GT(before->stats.comparisons, 0u);

  const uint64_t version = db.version();
  const PrepareCounters counters = qp.prepare_counters();
  db.EnableColumnarAll();
  EXPECT_EQ(db.version(), version);

  auto after = qp.Execute(*prepared);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->physical, (*prepared)->physical);
  EXPECT_EQ(qp.prepare_counters().parses, counters.parses);
  EXPECT_EQ(qp.prepare_counters().lowerings, counters.lowerings);
  EXPECT_EQ(after->stats.segments_pruned, 1u);
  EXPECT_EQ(after->stats.comparisons, 0u);
  EXPECT_EQ(after->stats.tuples_scanned, before->stats.tuples_scanned);
  ExpectSameAnswer(*before, *after, "across enable");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDifferentialTest,
                         ::testing::Values(1u, 2u, 7u));

}  // namespace
}  // namespace bryql
