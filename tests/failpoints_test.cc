#include "common/failpoints.h"

#include <gtest/gtest.h>

#include <string>

#include "core/query_processor.h"
#include "workload/university.h"

namespace bryql {
namespace {

constexpr Strategy kAllStrategies[] = {
    Strategy::kBry,          Strategy::kBryDivision,
    Strategy::kQuelCounting, Strategy::kBryUnionFilters,
    Strategy::kClassical,    Strategy::kNestedLoop,
};

UniversityConfig SmallConfig(uint64_t seed) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = seed;
  return config;
}

/// A query that exercises every pipeline phase: it parses, normalizes
/// (negated universal), translates, scans, joins and materializes, and is
/// supported by all six strategies.
const char kFullPipelineQuery[] =
    "{ x | student(x) & ~forall y: (lecture(y, db) -> attends(x, y)) }";

class FailpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoints::enabled()) {
      GTEST_SKIP() << "built without BRYQL_FAILPOINTS; nothing to inject";
    }
    failpoints::DisarmAll();
  }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(FailpointsTest, DisarmedBaselineSucceedsOnEveryStrategy) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  for (Strategy s : kAllStrategies) {
    auto exec = qp.Run(kFullPipelineQuery, s);
    EXPECT_TRUE(exec.ok()) << StrategyName(s) << ": " << exec.status();
  }
}

/// The stress matrix: every known failpoint armed against every strategy.
/// A strategy whose pipeline passes through the site must fail with
/// exactly the injected Status; a strategy that never reaches the site
/// must succeed untouched. Either way: no crash, no partial answer
/// reported as success.
TEST_F(FailpointsTest, EveryKnownFailpointPropagatesOnEveryStrategy) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  for (const std::string& fp : failpoints::KnownFailpoints()) {
    size_t strategies_hit = 0;
    for (Strategy s : kAllStrategies) {
      failpoints::DisarmAll();
      // A successful run caches its plan; flush so preparation-phase
      // sites (parse/rewrite/translate/lower) stay on the next run's path.
      qp.ClearPlanCache();
      failpoints::Arm(fp, Status::Internal("injected at " + fp));
      auto exec = qp.Run(kFullPipelineQuery, s);
      if (exec.ok()) continue;  // site not on this strategy's path
      EXPECT_EQ(exec.status().code(), StatusCode::kInternal)
          << fp << " on " << StrategyName(s) << ": " << exec.status();
      EXPECT_NE(exec.status().message().find("injected at " + fp),
                std::string::npos)
          << fp << " on " << StrategyName(s)
          << " failed with an unrelated error: " << exec.status();
      ++strategies_hit;
    }
    EXPECT_GE(strategies_hit, 1u)
        << "failpoint '" << fp << "' was reached by no strategy — dead site?";
  }
}

TEST_F(FailpointsTest, ExpectedCoverageMatrix) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  auto fails_on = [&](const char* fp, Strategy s) {
    failpoints::DisarmAll();
    // Preparation-phase sites are skipped on a plan-cache hit, which is
    // not what this matrix measures — every probe runs cold.
    qp.ClearPlanCache();
    failpoints::Arm(fp, Status::Internal(std::string("injected at ") + fp));
    auto exec = qp.Run(kFullPipelineQuery, s);
    failpoints::DisarmAll();
    return !exec.ok();
  };
  for (Strategy s : kAllStrategies) {
    // Every strategy parses.
    EXPECT_TRUE(fails_on("parse.query", s)) << StrategyName(s);
    // Every strategy except the classical reduction normalizes.
    EXPECT_EQ(fails_on("rewrite.step", s), s != Strategy::kClassical)
        << StrategyName(s);
    // Every algebraic strategy translates, lowers and opens iterators;
    // the Figure 1 interpreter does none of that but enumerates instead.
    bool algebraic = s != Strategy::kNestedLoop;
    EXPECT_EQ(fails_on("translate.plan", s), algebraic) << StrategyName(s);
    EXPECT_EQ(fails_on("exec.lower.plan", s), algebraic) << StrategyName(s);
    EXPECT_EQ(fails_on("exec.iterator.open", s), algebraic)
        << StrategyName(s);
    EXPECT_EQ(fails_on("exec.scan.open", s), algebraic) << StrategyName(s);
    EXPECT_EQ(fails_on("nestedloop.enumerate", s),
              s == Strategy::kNestedLoop)
        << StrategyName(s);
  }
}

TEST_F(FailpointsTest, SkipCountDelaysInjection) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  // parse.query is hit exactly once per *uncached* Run (a plan-cache
  // hit skips parsing entirely): skip=2 lets two cold runs pass.
  failpoints::Arm("parse.query", Status::Internal("third run fails"), 2);
  EXPECT_TRUE(qp.Run(kFullPipelineQuery, Strategy::kBry).ok());
  qp.ClearPlanCache();
  EXPECT_TRUE(qp.Run(kFullPipelineQuery, Strategy::kBry).ok());
  qp.ClearPlanCache();
  auto third = qp.Run(kFullPipelineQuery, Strategy::kBry);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().message(), "third run fails");
}

TEST_F(FailpointsTest, CachedRunSkipsPreparationFailpoints) {
  // The flip side of the matrix above: after a clean run the plan is
  // cached, so an armed preparation-phase site is simply never reached
  // — execution-phase sites still are.
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  ASSERT_TRUE(qp.Run(kFullPipelineQuery, Strategy::kBry).ok());
  failpoints::Arm("translate.plan", Status::Internal("never reached"));
  auto cached = qp.Run(kFullPipelineQuery, Strategy::kBry);
  EXPECT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(cached->plan_cache_hit);
  failpoints::DisarmAll();
  failpoints::Arm("exec.scan.open", Status::Internal("still on the path"));
  EXPECT_FALSE(qp.Run(kFullPipelineQuery, Strategy::kBry).ok());
}

TEST_F(FailpointsTest, DisarmRestoresCleanRuns) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  failpoints::Arm("exec.scan.open", Status::Internal("boom"));
  EXPECT_FALSE(qp.Run(kFullPipelineQuery, Strategy::kBry).ok());
  failpoints::Disarm("exec.scan.open");
  EXPECT_FALSE(failpoints::AnyArmed());
  auto exec = qp.Run(kFullPipelineQuery, Strategy::kBry);
  EXPECT_TRUE(exec.ok()) << exec.status();
}

TEST_F(FailpointsTest, InjectedResourceStatusKeepsItsCode) {
  // Failpoints can impersonate governor trips, proving the propagation
  // path preserves the three resource codes end to end.
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  failpoints::Arm("exec.iterator.open",
                  Status::DeadlineExceeded("injected deadline"));
  auto exec = qp.Run(kFullPipelineQuery, Strategy::kBry);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FailpointsTest, TransientInjectionKeepsItsCode) {
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  failpoints::Arm("exec.scan.open", Status::Transient("flaky scan"));
  auto exec = qp.Run(kFullPipelineQuery, Strategy::kBry);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kTransient);
}

TEST_F(FailpointsTest, ThrowSiteIsContainedAsInternalWithOperatorName) {
  // The exception-isolation barrier at the physical-operator dispatch:
  // a throwing operator surfaces as kInternal naming the operator, never
  // as an exception escaping Run.
  Database db = MakeUniversity(SmallConfig(3));
  QueryProcessor qp(&db);
  failpoints::Arm("exec.physical.throw", Status::Internal("synthetic throw"));
  auto exec = qp.Run(kFullPipelineQuery, Strategy::kBry);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kInternal);
  EXPECT_NE(exec.status().message().find("operator '"), std::string::npos)
      << exec.status();
  EXPECT_NE(exec.status().message().find("threw"), std::string::npos)
      << exec.status();
  // The nested loop interprets the calculus with no physical-operator
  // dispatch, so the site is off its path — the degradation ladder's
  // escape hatch.
  auto nested = qp.Run(kFullPipelineQuery, Strategy::kNestedLoop);
  EXPECT_TRUE(nested.ok()) << nested.status();
}

TEST_F(FailpointsTest, ProbabilisticScheduleIsSeedDeterministic) {
  auto pattern = [](uint64_t seed, size_t hits) {
    failpoints::DisarmAll();
    failpoints::ArmProbabilistic("chaos.test.site",
                                 Status::Transient("injected"), 0.5, seed);
    std::string fired;
    for (size_t i = 0; i < hits; ++i) {
      fired += failpoints::Hit("chaos.test.site").ok() ? '.' : 'X';
    }
    return fired;
  };
  const std::string a = pattern(42, 200);
  const std::string b = pattern(42, 200);
  EXPECT_EQ(a, b) << "same seed must give the same fault schedule";
  EXPECT_NE(a, pattern(43, 200))
      << "different seeds should give different schedules";
  // At p=0.5 over 200 hits, both outcomes must occur.
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST_F(FailpointsTest, ProbabilityExtremesNeverAndAlwaysFire) {
  failpoints::ArmProbabilistic("chaos.never", Status::Transient("x"), 0.0, 7);
  failpoints::ArmProbabilistic("chaos.always", Status::Transient("x"), 1.0, 7);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(failpoints::Hit("chaos.never").ok());
    EXPECT_FALSE(failpoints::Hit("chaos.always").ok());
  }
}

TEST_F(FailpointsTest, StatsCountHitsAndFires) {
  failpoints::ResetStats();
  failpoints::ArmProbabilistic("chaos.counted",
                               Status::Transient("x"), 0.5, 42);
  size_t fires = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (!failpoints::Hit("chaos.counted").ok()) ++fires;
  }
  auto stats = failpoints::Stats();
  ASSERT_EQ(stats.count("chaos.counted"), 1u);
  EXPECT_EQ(stats["chaos.counted"].hits, 100u);
  EXPECT_EQ(stats["chaos.counted"].fires, fires);
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 100u);
  failpoints::ResetStats();
  EXPECT_TRUE(failpoints::Stats().empty());
}

TEST_F(FailpointsTest, SpecParserArmsEveryTriggerForm) {
  ASSERT_TRUE(failpoints::ArmFromSpec(
                  "exec.scan.open, exec.hash.insert=skip2,"
                  "exec.materialize.insert=p0.25@seed42")
                  .ok());
  // Bare site: always fires, with the Transient class.
  Status bare = failpoints::Hit("exec.scan.open");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.code(), StatusCode::kTransient);
  EXPECT_NE(bare.message().find("exec.scan.open"), std::string::npos);
  // skip2: two free passes, then fires.
  EXPECT_TRUE(failpoints::Hit("exec.hash.insert").ok());
  EXPECT_TRUE(failpoints::Hit("exec.hash.insert").ok());
  EXPECT_FALSE(failpoints::Hit("exec.hash.insert").ok());
  // p0.25@seed42: some of 200 hits fire, most don't.
  size_t fires = 0;
  for (size_t i = 0; i < 200; ++i) {
    if (!failpoints::Hit("exec.materialize.insert").ok()) ++fires;
  }
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 150u);
}

TEST_F(FailpointsTest, SpecParserRejectsMalformedEntries) {
  EXPECT_EQ(failpoints::ArmFromSpec("site=p0.5").code(),
            StatusCode::kInvalidArgument);  // missing @seed
  EXPECT_EQ(failpoints::ArmFromSpec("site=p1.5@seed1").code(),
            StatusCode::kInvalidArgument);  // probability out of range
  EXPECT_EQ(failpoints::ArmFromSpec("site=pX@seed1").code(),
            StatusCode::kInvalidArgument);  // unparsable probability
  EXPECT_EQ(failpoints::ArmFromSpec("site=p0.5@seedX").code(),
            StatusCode::kInvalidArgument);  // unparsable seed
  EXPECT_EQ(failpoints::ArmFromSpec("site=skipX").code(),
            StatusCode::kInvalidArgument);  // unparsable skip
  EXPECT_EQ(failpoints::ArmFromSpec("site=explode").code(),
            StatusCode::kInvalidArgument);  // unknown trigger
  EXPECT_EQ(failpoints::ArmFromSpec("=p0.5@seed1").code(),
            StatusCode::kInvalidArgument);  // empty site
  // Empty / whitespace-only specs are fine no-ops.
  EXPECT_TRUE(failpoints::ArmFromSpec("").ok());
  EXPECT_TRUE(failpoints::ArmFromSpec(" , ,").ok());
}

}  // namespace
}  // namespace bryql
