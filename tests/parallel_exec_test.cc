// Morsel-driven parallel execution: unit tests for the sharing
// primitives (thread pool, morsel dispenser, sharded sets, shared
// budget), and the headline differential — the whole paper query suite
// must produce identical answers at num_threads ∈ {1, 2, 8} and serial,
// with identical Status verdicts under tuple budgets, deadlines and
// cancellation. The probe-join differential runs here at 2 and 8
// workers, and so does a join build with many partners per key spread
// over the shared build's shards. The operator-statistics contract
// (which pulls are clocked, which only counted) is checked serially and
// at 2 workers. Also covers concurrent QueryProcessor use: many threads
// sharing one processor (and so one plan cache) must never race or lose
// counter increments; scripts/check.sh runs this binary under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "core/query_processor.h"
#include "exec/executor.h"
#include "exec/physical/parallel.h"
#include "exec/stats.h"
#include "probe_join_cases.h"
#include "workload/university.h"

namespace bryql {
namespace {

// ---------------------------------------------------------------------
// Sharing primitives.

TEST(ThreadPoolTest, RunOnWorkersRunsEveryWorkerAndWorkerZeroInline) {
  ThreadPool& pool = ThreadPool::Shared();
  EXPECT_GE(pool.size(), 2u);

  constexpr size_t kWorkers = 8;
  std::vector<std::atomic<int>> ran(kWorkers);
  for (auto& r : ran) r.store(0);
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker0_inline{false};
  RunOnWorkers(pool, kWorkers, [&](size_t w) {
    ran[w].fetch_add(1);
    if (w == 0 && std::this_thread::get_id() == caller) {
      worker0_inline.store(true);
    }
  });
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(ran[w].load(), 1) << "worker " << w;
  }
  // Worker 0 runs on the calling thread, so a saturated pool still makes
  // progress.
  EXPECT_TRUE(worker0_inline.load());
}

TEST(MorselSourceTest, ClaimsCoverEachRowExactlyOnce) {
  constexpr size_t kRows = 10 * 1024 + 37;  // deliberately not a multiple
  MorselSource source(kRows);
  std::vector<std::atomic<int>> claimed(kRows);
  for (auto& c : claimed) c.store(0);

  constexpr size_t kWorkers = 4;
  RunOnWorkers(ThreadPool::Shared(), kWorkers, [&](size_t) {
    size_t begin = 0, end = 0;
    while (source.Claim(&begin, &end)) {
      ASSERT_LE(end, kRows);
      ASSERT_LT(begin, end);
      for (size_t i = begin; i < end; ++i) claimed[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(claimed[i].load(), 1) << "row " << i;
  }
  // Exhausted sources stay exhausted.
  size_t b = 0, e = 0;
  EXPECT_FALSE(source.Claim(&b, &e));
}

TEST(ShardedTupleSetTest, ConcurrentInsertsAdmitEachTupleExactlyOnce) {
  ShardedTupleSet set;
  constexpr size_t kDistinct = 2000;
  constexpr size_t kWorkers = 8;
  std::atomic<size_t> fresh{0};
  // Every worker inserts the same key space: exactly one insert per key
  // may report fresh, whichever worker wins.
  RunOnWorkers(ThreadPool::Shared(), kWorkers, [&](size_t) {
    for (size_t i = 0; i < kDistinct; ++i) {
      Tuple t({Value::Int(static_cast<int64_t>(i))});
      if (set.Insert(t)) fresh.fetch_add(1);
    }
  });
  EXPECT_EQ(fresh.load(), kDistinct);
  EXPECT_EQ(set.size(), kDistinct);
}

TEST(SharedBudgetTest, LatchesFirstTripAndStops) {
  QueryOptions options;
  ResourceGovernor governor(options);
  SharedBudget budget(governor);
  EXPECT_FALSE(budget.stop_requested());
  EXPECT_TRUE(budget.status().ok());

  budget.Trip(Status::ResourceExhausted("first"));
  budget.Trip(Status::DeadlineExceeded("second"));
  EXPECT_TRUE(budget.stop_requested());
  EXPECT_EQ(budget.status().code(), StatusCode::kResourceExhausted);
}

TEST(SharedBudgetTest, ShardsReconcileRealCountsAndTripTheSharedLimit) {
  QueryOptions options;
  options.max_scanned_tuples = 3000;
  ResourceGovernor governor(options);
  SharedBudget budget(governor);

  // Two shards admit 2000 scans each: individually under the cap, their
  // reconciled total (4000) is over it — the shared budget must trip
  // even though each worker's flush cadence is chunked.
  RunOnWorkers(ThreadPool::Shared(), 2, [&](size_t) {
    ResourceGovernor shard(&budget);
    for (size_t i = 0; i < 2000; ++i) {
      if (!shard.AdmitScan()) break;
    }
    shard.Reconcile();
  });
  EXPECT_FALSE(budget.status().ok());
  EXPECT_EQ(budget.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(budget.scanned(), 3000u);
}

TEST(SharedBudgetTest, RequestStopIsACooperativeSentinelNotAnError) {
  QueryOptions options;
  ResourceGovernor governor(options);
  SharedBudget budget(governor);
  budget.RequestStop();

  ResourceGovernor shard(&budget);
  // The shard notices the stop at its next slow check and reports the
  // early-stop sentinel; the pool's status stays OK.
  for (size_t i = 0; i < 5000 && shard.AdmitScan(); ++i) {
  }
  EXPECT_TRUE(shard.early_stopped());
  EXPECT_TRUE(budget.status().ok());
}

// ---------------------------------------------------------------------
// Differential parity: parallel vs. serial over the paper query suite.

UniversityConfig SmallConfig(uint64_t seed) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = seed;
  return config;
}

QueryOptions WithThreads(size_t n) {
  QueryOptions options;
  options.num_threads = n;
  return options;
}

void ExpectSameAnswer(const Execution& serial, const Execution& parallel,
                      const std::string& label) {
  ASSERT_EQ(serial.answer.closed, parallel.answer.closed) << label;
  if (serial.answer.closed) {
    EXPECT_EQ(serial.answer.truth, parallel.answer.truth) << label;
  } else {
    // Workers drain in nondeterministic interleavings, so compare as
    // sets (sorted rows) — relations are sets, order is not semantics.
    EXPECT_EQ(serial.answer.relation.SortedRows(),
              parallel.answer.relation.SortedRows())
        << label;
  }
}

class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDifferentialTest, SuiteAgreesAcrossThreadCounts) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor qp(&db);

  for (const NamedQuery& nq : PaperQuerySuite()) {
    auto serial = qp.Run(nq.text, Strategy::kBry, WithThreads(0));
    ASSERT_TRUE(serial.ok()) << nq.name << ": " << serial.status();
    for (size_t threads : {1u, 2u, 8u}) {
      auto parallel = qp.Run(nq.text, Strategy::kBry, WithThreads(threads));
      ASSERT_TRUE(parallel.ok())
          << nq.name << " @" << threads << ": " << parallel.status();
      ExpectSameAnswer(*serial, *parallel,
                       nq.name + " @" + std::to_string(threads));
    }
  }
}

/// One prepared plan, every parallelism degree: num_threads is a
/// drive-time option, so Execute must accept any degree without
/// re-preparing (and the cache key must not fragment on it).
TEST_P(ParallelDifferentialTest, CachedPlanExecutesAtAnyDegree) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor qp(&db);
  const NamedQuery nq = PaperQuerySuite().front();

  auto prepared = qp.Prepare(nq.text, Strategy::kBry);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto serial = qp.Execute(*prepared, WithThreads(0));
  ASSERT_TRUE(serial.ok()) << serial.status();
  const PrepareCounters before = qp.prepare_counters();
  for (size_t threads : {1u, 2u, 8u}) {
    auto parallel = qp.Execute(*prepared, WithThreads(threads));
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameAnswer(*serial, *parallel, "degree " + std::to_string(threads));
  }
  const PrepareCounters after = qp.prepare_counters();
  EXPECT_EQ(before.parses, after.parses);
  EXPECT_EQ(before.lowerings, after.lowerings);
}

/// Budget parity: for any one tuple budget, serial and parallel must
/// reach the same verdict — both succeed with equal answers or both trip
/// with the same StatusCode. This is the payoff of exact-count
/// reconciliation (shared morsels, shared builds, shared seen-sets):
/// parallel admission totals equal serial totals, so the trip verdict is
/// identical by construction.
TEST_P(ParallelDifferentialTest, BudgetVerdictsIdenticalAcrossThreadCounts) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor qp(&db);

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
      QueryOptions serial_options = budget.options;
      auto serial = qp.Run(nq.text, Strategy::kBry, serial_options);
      for (size_t threads : {1u, 2u, 8u}) {
        QueryOptions parallel_options = budget.options;
        parallel_options.num_threads = threads;
        auto parallel = qp.Run(nq.text, Strategy::kBry, parallel_options);
        const std::string label = nq.name + " [" + budget.label + " cap] @" +
                                  std::to_string(threads);
        ASSERT_EQ(serial.ok(), parallel.ok())
            << label << ": serial=" << serial.status()
            << " parallel=" << parallel.status();
        if (serial.ok()) {
          ExpectSameAnswer(*serial, *parallel, label);
        } else {
          EXPECT_EQ(serial.status().code(), parallel.status().code())
              << label << ": serial=" << serial.status()
              << " parallel=" << parallel.status();
        }
      }
    }
  }
}

/// An already-expired deadline and a pre-cancelled token must surface as
/// kDeadlineExceeded / kCancelled at every parallelism degree.
TEST_P(ParallelDifferentialTest, DeadlineAndCancellationParity) {
  Database db = MakeUniversity(SmallConfig(GetParam()));
  QueryProcessor qp(&db);
  const NamedQuery nq = PaperQuerySuite().front();

  for (size_t threads : {0u, 1u, 2u, 8u}) {
    QueryOptions expired = WithThreads(threads);
    expired.deadline = std::chrono::nanoseconds(1);
    auto run = qp.Run(nq.text, Strategy::kBry, expired);
    ASSERT_FALSE(run.ok()) << "@" << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
        << "@" << threads << ": " << run.status();

    CancellationToken token;
    token.Cancel();
    QueryOptions cancelled = WithThreads(threads);
    cancelled.cancellation = &token;
    auto aborted = qp.Run(nq.text, Strategy::kBry, cancelled);
    ASSERT_FALSE(aborted.ok()) << "@" << threads;
    EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled)
        << "@" << threads << ": " << aborted.status();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Values(1u, 2u, 7u));

// ---------------------------------------------------------------------
// Probe joins in parallel: workers probe the stored relation concurrently
// (see probe_join_test for the serial runs and the lowering shapes).

TEST(ParallelProbeJoinTest, MatchesOracleAndHashTwinAtEveryDegree) {
  for (size_t threads : {2u, 8u}) {
    probe_join_cases::ExpectParity(/*seed=*/1, threads);
  }
}

TEST(ParallelProbeJoinTest, IndexLessReplacementIsRefused) {
  probe_join_cases::ExpectStaleIndexRefused(/*threads=*/2);
}

// ---------------------------------------------------------------------
// Shared join builds with many partners per key. Each key's partners sit
// in one shard's TupleTable chain; 50 keys spread over the 64 shards.
// Answers and work counters at 2 and 8 workers must equal the serial run
// (scripts/check.sh runs this under TSan, which race-checks the shared
// flat build).

TEST(ParallelSharedBuildTest, ManyPartnersPerKeyAcrossShardsMatchSerial) {
  Database db;
  Relation l(2), r(2);
  for (int64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(l.Insert(Tuple({Value::Int(i), Value::Int(i % 50)})).ok());
  }
  for (int64_t j = 0; j < 2000; ++j) {
    ASSERT_TRUE(r.Insert(Tuple({Value::Int(j % 50), Value::Int(j)})).ok());
  }
  db.Put("l", std::move(l));
  db.Put("r", std::move(r));
  QueryProcessor qp(&db);
  const char* queries[] = {
      "{ x, y, z | l(x, y) & r(y, z) }",
      "{ x, z | exists y: l(x, y) & r(y, z) & z < 1500 }",
      "{ y | exists x z: l(x, y) & r(y, z) }",
      "{ x | exists y: l(x, y) & ~(exists z: r(y, z) & z > 1990) }",
  };
  for (const char* text : queries) {
    auto serial = qp.Run(text, Strategy::kBry, WithThreads(0));
    ASSERT_TRUE(serial.ok()) << text << ": " << serial.status();
    ASSERT_FALSE(serial->answer.relation.empty()) << text;
    for (size_t threads : {2u, 8u}) {
      const std::string label =
          std::string(text) + " @" + std::to_string(threads);
      auto parallel = qp.Run(text, Strategy::kBry, WithThreads(threads));
      ASSERT_TRUE(parallel.ok()) << label << ": " << parallel.status();
      ExpectSameAnswer(*serial, *parallel, label);
      EXPECT_EQ(serial->stats.tuples_scanned, parallel->stats.tuples_scanned)
          << label;
      EXPECT_EQ(serial->stats.tuples_materialized,
                parallel->stats.tuples_materialized)
          << label;
      EXPECT_EQ(serial->stats.hash_probes, parallel->stats.hash_probes)
          << label;
      EXPECT_EQ(serial->stats.comparisons, parallel->stats.comparisons)
          << label;
    }
  }
}

// ---------------------------------------------------------------------
// Operator statistics contract. A ∀ check that holds has no witness, so
// its probe side is read whole through capacity-1 pulls. Those pulls are
// counted but not clocked below the plan root; every root (a worker's
// spine root included) is clocked. None of it may move a work counter.

/// Sums of the operator lines labelled `label` (one per worker in a
/// parallel run).
struct OperatorTotals {
  size_t instances = 0;
  size_t batches = 0;
  size_t rows = 0;
  size_t unclocked = 0;
  uint64_t next_ns = 0;
};

OperatorTotals TotalsOf(const ExecStats& stats, const std::string& label) {
  OperatorTotals totals;
  for (const OperatorStats& op : stats.operator_stats) {
    if (op.label != label) continue;
    ++totals.instances;
    totals.batches += op.batches;
    totals.rows += op.rows;
    totals.unclocked += op.unclocked_batches;
    totals.next_ns += op.next_ns;
  }
  return totals;
}

/// What holds of every operator line: roots are always clocked, and an
/// operator none of whose pulls was clocked reports no pull time.
void ExpectClockingRule(const ExecStats& stats, const std::string& label) {
  for (const OperatorStats& op : stats.operator_stats) {
    SCOPED_TRACE(label + ": " + op.label);
    EXPECT_LE(op.unclocked_batches, op.batches);
    if (op.depth == 0) {
      EXPECT_EQ(op.unclocked_batches, 0u);
      if (op.batches != 0) {
        EXPECT_GT(op.next_ns, 0u);
      }
    } else if (op.unclocked_batches == op.batches) {
      EXPECT_EQ(op.next_ns, 0u);
    }
  }
}

TEST(OperatorStatsContractTest, ForallCheckClocksRootsAndCountsEveryPull) {
  Database db = MakeUniversity(SmallConfig(1));
  QueryProcessor qp(&db);
  const char* check = "forall x y: attends(x, y) -> student(x)";
  const size_t attends = (*db.Get("attends"))->size();
  ASSERT_GT(attends, 0u);

  for (size_t threads : {0u, 2u}) {
    std::string counters_at_batch_1;
    for (size_t batch_size : {1u, 1024u}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " batch=" + std::to_string(batch_size);
      ExecOptions exec_options;
      exec_options.batch_size = batch_size;
      qp.SetExecOptions(exec_options);
      auto run = qp.Run(check, Strategy::kBry, WithThreads(threads));
      ASSERT_TRUE(run.ok()) << label << ": " << run.status();
      ASSERT_TRUE(run->answer.truth) << label;
      const ExecStats& stats = run->stats;
      ExpectClockingRule(stats, label);

      // The root probe join (one per worker): a single witness pull.
      const OperatorTotals root = TotalsOf(
          stats, "ProbeJoin(anti, student, contains, keys=[0=0])");
      ASSERT_GE(root.instances, 1u) << label << "\n" << stats.Report();
      EXPECT_EQ(root.batches, root.instances) << label;
      EXPECT_EQ(root.rows, 0u) << label;
      EXPECT_EQ(root.unclocked, 0u) << label;

      // The probe side: every row, one capacity-1 pull each plus one
      // final empty pull per instance, none of them clocked.
      const OperatorTotals scan = TotalsOf(stats, "TableScan attends");
      ASSERT_EQ(scan.instances, root.instances) << label;
      EXPECT_EQ(scan.rows, attends) << label;
      EXPECT_EQ(scan.batches, attends + scan.instances) << label;
      EXPECT_EQ(scan.unclocked, scan.batches) << label;
      EXPECT_EQ(scan.next_ns, 0u) << label;

      // Work counters do not depend on the batch size.
      if (batch_size == 1) {
        counters_at_batch_1 = stats.ToString();
      } else {
        EXPECT_EQ(stats.ToString(), counters_at_batch_1) << label;
      }
    }
  }
}

TEST(OperatorStatsContractTest, InnerOperatorsOfAWitnessPullAreCounted) {
  // Root Filter over Project over an inner HashJoin: the join, the
  // projection and the probe scan all move capacity-1 pulls, while the
  // build side is drained at the configured batch size (clocked when
  // that is more than one row).
  Database db = MakeUniversity(SmallConfig(1));
  QueryProcessor qp(&db);
  const char* check =
      "forall x d1 d2: (enrolled(x, d1) & enrolled(x, d2)) -> d1 = d2";
  const size_t enrolled = (*db.Get("enrolled"))->size();

  std::string counters_at_batch_1;
  for (size_t batch_size : {1u, 1024u}) {
    const std::string label = "batch=" + std::to_string(batch_size);
    ExecOptions exec_options;
    exec_options.batch_size = batch_size;
    qp.SetExecOptions(exec_options);
    auto run = qp.Run(check, Strategy::kBry);
    ASSERT_TRUE(run.ok()) << label << ": " << run.status();
    ASSERT_TRUE(run->answer.truth) << label;
    const ExecStats& stats = run->stats;
    ExpectClockingRule(stats, label);
    ASSERT_EQ(stats.operator_stats.size(), 5u) << stats.Report();

    const OperatorStats& root = stats.operator_stats[0];
    EXPECT_EQ(root.depth, 0u);
    EXPECT_EQ(root.batches, 1u) << label;
    // Project, HashJoin and the probe scan: one pull per joined row and
    // a final empty one, all unclocked.
    const size_t joined = stats.operator_stats[1].rows;
    EXPECT_GE(joined, enrolled) << label;  // every row joins itself
    for (size_t i = 1; i <= 3; ++i) {
      const OperatorStats& op = stats.operator_stats[i];
      SCOPED_TRACE(label + ": " + op.label);
      EXPECT_EQ(op.depth, i);
      EXPECT_EQ(op.unclocked_batches, op.batches);
      EXPECT_EQ(op.next_ns, 0u);
    }
    EXPECT_EQ(stats.operator_stats[2].rows, joined) << label;
    EXPECT_EQ(stats.operator_stats[2].batches, joined + 1) << label;
    EXPECT_EQ(stats.operator_stats[3].rows, enrolled) << label;
    EXPECT_EQ(stats.operator_stats[3].batches, enrolled + 1) << label;
    // The build scan: all rows, in batch_size pulls.
    const OperatorStats& build = stats.operator_stats[4];
    EXPECT_EQ(build.rows, enrolled) << label;
    if (batch_size == 1) {
      EXPECT_EQ(build.unclocked_batches, build.batches) << label;
      counters_at_batch_1 = stats.ToString();
    } else {
      EXPECT_EQ(build.unclocked_batches, 0u) << label;
      EXPECT_EQ(stats.ToString(), counters_at_batch_1) << label;
    }
  }
}

// ---------------------------------------------------------------------
// Concurrent QueryProcessor use: one processor, one plan cache, many
// threads. TSan (scripts/check.sh phase 3) turns any race here into a
// failure; the assertions below catch lost counter updates.

TEST(ConcurrentQueryProcessorTest, ManyThreadsShareOneProcessorAndCache) {
  Database db = MakeUniversity(SmallConfig(5));
  QueryProcessor qp(&db);
  const std::vector<NamedQuery> suite = PaperQuerySuite();
  const size_t kQueries = 4;
  const size_t kThreads = 8;
  const size_t kRepeats = 3;

  // Serial reference answers, computed before any concurrency.
  std::vector<Execution> reference;
  for (size_t q = 0; q < kQueries; ++q) {
    auto run = qp.Run(suite[q].text, Strategy::kBry);
    ASSERT_TRUE(run.ok()) << suite[q].name << ": " << run.status();
    reference.push_back(std::move(*run));
  }
  qp.ClearPlanCache();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t r = 0; r < kRepeats; ++r) {
        for (size_t q = 0; q < kQueries; ++q) {
          // Half the threads drive the plans in parallel mode, so cached
          // plans are concurrently instantiated at different degrees.
          QueryOptions options = WithThreads(t % 2 == 0 ? 0 : 2);
          auto run = qp.Run(suite[q].text, Strategy::kBry, options);
          if (!run.ok() ||
              run->answer.closed != reference[q].answer.closed ||
              (run->answer.closed
                   ? run->answer.truth != reference[q].answer.truth
                   : run->answer.relation.SortedRows() !=
                         reference[q].answer.relation.SortedRows())) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // No lost increments: every Run was exactly one cache hit or miss.
  const PlanCacheStats stats = qp.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            kThreads * kRepeats * kQueries + kQueries /* reference runs */);
  // Each distinct query misses at least once after the Clear; racing
  // threads may each miss-and-prepare the same query, never fewer.
  EXPECT_GE(stats.misses, kQueries);
  EXPECT_LE(qp.cache_size(), kQueries);
}

}  // namespace
}  // namespace bryql
