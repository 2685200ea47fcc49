/// Plan-cache churn under concurrency and catalog mutation: many threads
/// hammer a capacity-2 cache with more distinct queries than it can hold
/// while the database is mutated between rounds (version bumps). The
/// contract under test: no stale plan ever produces a stale answer, and
/// the hit/miss/eviction accounting stays exact.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/query_processor.h"
#include "storage/builder.h"
#include "workload/university.h"

namespace bryql {
namespace {

/// Four distinct queries (double the cache capacity) whose answers all
/// shift when students are added: constant eviction traffic, and any
/// stale plan/result is visible as a wrong answer.
const char* kQueries[] = {
    "{ x | student(x) }",
    "{ x | student(x) & ~exists y: attends(x, y) }",
    "{ x | student(x) & forall y: (lecture(y, db) -> attends(x, y)) }",
    "exists x: student(x) & ~exists y: attends(x, y)",
};
constexpr size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);

UniversityConfig ChurnConfig() {
  UniversityConfig config;
  config.students = 30;
  config.professors = 8;
  config.lectures = 12;
  config.seed = 17;
  return config;
}

/// Adds one fresh student (attending nothing) — bumps the catalog
/// version and changes the answer of every query above.
void AddStudent(Database* db, size_t round) {
  auto current = db->Get("student");
  ASSERT_TRUE(current.ok());
  Relation grown = **current;
  ASSERT_TRUE(grown.Insert(Strs({"churn-student-" + std::to_string(round)}))
                  .ok());
  db->Put("student", std::move(grown));
}

TEST(PlanCacheChurnTest, ConcurrentRunsNeverSeeStaleAnswers) {
  Database db = MakeUniversity(ChurnConfig());
  QueryProcessor qp(&db, /*plan_cache_capacity=*/2);

  constexpr size_t kThreads = 8;
  constexpr size_t kRunsPerThread = 24;
  constexpr size_t kRounds = 5;
  size_t cached_runs = 0;

  QueryOptions bypass;
  bypass.bypass_plan_cache = true;

  for (size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Oracles for the *current* catalog, computed cache-blind so they
    // neither consult a cached plan nor disturb the accounting.
    Answer oracle[kQueryCount];
    for (size_t q = 0; q < kQueryCount; ++q) {
      auto r = qp.Run(kQueries[q], Strategy::kBry, bypass);
      ASSERT_TRUE(r.ok()) << kQueries[q] << ": " << r.status();
      oracle[q] = r->answer;
    }

    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> errors{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kRunsPerThread; ++i) {
          const size_t q = (t * 7 + i) % kQueryCount;
          auto r = qp.Run(kQueries[q]);
          if (!r.ok()) {
            errors.fetch_add(1);
            continue;
          }
          const Answer& got = r->answer;
          const bool same = got.closed == oracle[q].closed &&
                            (got.closed ? got.truth == oracle[q].truth
                                        : got.relation == oracle[q].relation);
          if (!same) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    cached_runs += kThreads * kRunsPerThread;

    EXPECT_EQ(errors.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u)
        << "a run returned an answer from a stale plan";

    // Mutate between rounds only — Database mutation is not synchronized
    // against concurrent scans, and the version bump is the point here.
    AddStudent(&db, round);
    if (round % 2 == 0) {
      ASSERT_TRUE(db.BuildIndex("attends", 0).ok());
    }
  }

  // Exact accounting: every cached run did exactly one cache lookup
  // (a stale entry counts as the miss it is), evictions only ever
  // follow insertions from misses, and capacity holds.
  PlanCacheStats stats = qp.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, cached_runs);
  EXPECT_LE(stats.evictions, stats.misses);
  EXPECT_LE(qp.cache_size(), 2u);
  EXPECT_GT(stats.hits, 0u) << "churn never re-used a plan — test inert";
  // 4 queries rotating through 2 slots across 5 rounds must evict.
  EXPECT_GT(stats.evictions, 0u);
}

/// An entry prepared before a Put is stale: running its text again is a
/// miss (and prepares it again), not a hit.
TEST(PlanCacheChurnTest, StaleEntryCountsAsAMiss) {
  Database db = MakeUniversity(ChurnConfig());
  QueryProcessor qp(&db);
  const char* text = kQueries[1];
  ASSERT_TRUE(qp.Run(text).ok());
  ASSERT_TRUE(qp.Run(text).ok());
  const PlanCacheStats warm = qp.cache_stats();
  EXPECT_EQ(warm.hits, 1u);
  EXPECT_EQ(warm.misses, 1u);

  AddStudent(&db, 0);
  const PrepareCounters counters_before = qp.prepare_counters();
  auto stale = qp.Run(text);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_FALSE(stale->plan_cache_hit);
  EXPECT_EQ(qp.cache_stats().hits, warm.hits);
  EXPECT_EQ(qp.cache_stats().misses, warm.misses + 1);
  EXPECT_EQ(qp.prepare_counters().parses, counters_before.parses + 1);
  EXPECT_EQ(qp.cache_size(), 1u);  // the fresh entry replaced the stale one

  auto fresh = qp.Run(text);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(fresh->plan_cache_hit);
  EXPECT_EQ(qp.cache_stats().hits, warm.hits + 1);
}

TEST(PlanCacheChurnTest, StalePreparedHandlesRevalidateAgainstTheCatalog) {
  Database db = MakeUniversity(ChurnConfig());
  QueryProcessor qp(&db, /*plan_cache_capacity=*/2);

  // Prepare every query, then mutate the catalog under the handles.
  PreparedQueryPtr prepared[kQueryCount];
  for (size_t q = 0; q < kQueryCount; ++q) {
    auto p = qp.Prepare(kQueries[q]);
    ASSERT_TRUE(p.ok()) << kQueries[q] << ": " << p.status();
    prepared[q] = *p;
  }
  const uint64_t version_at_prepare = db.version();
  AddStudent(&db, 999);
  ASSERT_GT(db.version(), version_at_prepare);

  QueryOptions bypass;
  bypass.bypass_plan_cache = true;
  for (size_t q = 0; q < kQueryCount; ++q) {
    auto fresh = qp.Run(kQueries[q], Strategy::kBry, bypass);
    ASSERT_TRUE(fresh.ok());
    // Executing the stale handle must reflect the *current* catalog: the
    // prepared plan revalidates its db_version and re-lowers instead of
    // serving pre-mutation access paths.
    auto via_stale = qp.Execute(prepared[q]);
    ASSERT_TRUE(via_stale.ok()) << via_stale.status();
    EXPECT_EQ(via_stale->answer.closed, fresh->answer.closed);
    if (fresh->answer.closed) {
      EXPECT_EQ(via_stale->answer.truth, fresh->answer.truth);
    } else {
      EXPECT_EQ(via_stale->answer.relation, fresh->answer.relation);
    }
  }
}

/// A handle whose catalog moved is prepared again from its text through
/// the plan cache, as Run prepares a stale cache entry: after q changes
/// arity, Execute refuses the query exactly as Run does instead of
/// answering from the old column layout. Once the text prepares again,
/// the fresh plan is cached, so only the first Execute of the stale
/// handle pays for parse → lower.
TEST(PlanCacheChurnTest, StaleHandleIsPreparedAgainFromItsText) {
  Relation p(1), q(2);
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(p.Insert(Tuple({Value::Int(i)})).ok());
    ASSERT_TRUE(q.Insert(Tuple({Value::Int(i), Value::Int(i + 1)})).ok());
  }
  Database db;
  db.Put("p", p);
  db.Put("q", q);
  QueryProcessor qp(&db);
  const std::string text = "{ x | p(x) & (exists y: q(x, y)) }";
  auto prepared = qp.Prepare(text);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto before = qp.Execute(*prepared);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->answer.relation.size(), 5u);

  for (size_t arity : {3u, 1u}) {
    SCOPED_TRACE(arity);
    Relation other(arity);
    for (int64_t i = 0; i < 5; ++i) {
      std::vector<Value> row(arity, Value::Int(i));
      ASSERT_TRUE(other.Insert(Tuple(std::move(row))).ok());
    }
    db.Put("q", std::move(other));
    const size_t cached = qp.cache_size();
    const PrepareCounters counters_before = qp.prepare_counters();
    auto via_handle = qp.Execute(*prepared);
    EXPECT_EQ(qp.prepare_counters().parses, counters_before.parses + 1);
    EXPECT_EQ(qp.prepare_counters().lowerings, counters_before.lowerings);
    EXPECT_EQ(qp.cache_size(), cached);  // a failed preparation is not kept
    auto run = qp.Run(text);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    ASSERT_FALSE(via_handle.ok())
        << via_handle->answer.relation.size() << " tuples";
    EXPECT_EQ(via_handle.status().ToString(), run.status().ToString());
  }

  // Back at arity 2, the handle answers from the current rows, and the
  // re-lowering shows in the counters once: a second Execute of the same
  // stale handle, and a Run of its text, are served from the plan cache.
  Relation grown = q;
  ASSERT_TRUE(grown.Insert(Tuple({Value::Int(9), Value::Int(9)})).ok());
  ASSERT_TRUE(p.Insert(Tuple({Value::Int(9)})).ok());
  db.Put("p", p);
  db.Put("q", std::move(grown));
  const PrepareCounters counters_before = qp.prepare_counters();
  auto after = qp.Execute(*prepared);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->answer.relation.size(), 6u);
  EXPECT_FALSE(after->plan_cache_hit);
  EXPECT_EQ(qp.prepare_counters().parses, counters_before.parses + 1);
  EXPECT_EQ(qp.prepare_counters().lowerings, counters_before.lowerings + 1);

  const PrepareCounters once = qp.prepare_counters();
  auto again = qp.Execute(*prepared);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->answer.relation, after->answer.relation);
  EXPECT_TRUE(again->plan_cache_hit);
  auto run = qp.Run(text);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->plan_cache_hit);
  const PrepareCounters now = qp.prepare_counters();
  EXPECT_EQ(now.parses, once.parses);
  EXPECT_EQ(now.normalizations, once.normalizations);
  EXPECT_EQ(now.translations, once.translations);
  EXPECT_EQ(now.lowerings, once.lowerings);
}

}  // namespace
}  // namespace bryql
