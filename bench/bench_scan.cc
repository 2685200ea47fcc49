// Experiment E16: row scan vs zone-pruned scan. One wide events relation
// with ascending ids, selective predicates lowered once and executed
// many times. Both paths are one TableScan with the predicate fused in;
// the row path runs over a database without zone maps, the zone path over
// the same rows with zone maps built. Zone maps prune whole 1024-row segments on the
// selective id range; on segments they cannot decide, the zone scan
// evaluates the predicate in place on each stored row and copies only the
// matches, where the row path copies every row and then filters.
//
// Before timing, each zone case checks that its answer equals the row
// path's and that zone maps pruned what they should, and aborts
// otherwise, so one short pass is a smoke test:
//
//   ./build/bench/bench_scan --benchmark_min_time=0.01

#include <cstdlib>
#include <iostream>

#include "bench/bench_util.h"

namespace bryql {
namespace {

const char* const kCategories[] = {"alpha", "beta", "gamma", "delta",
                                   "epsilon", "zeta", "eta", "theta"};

/// events(id, category, score): ids ascend (zone maps carve the id axis
/// into disjoint per-segment intervals), categories cycle through eight
/// strings, scores cycle through [0, 50). No zone maps.
Database MakeEvents(size_t rows) {
  Relation rel(3);
  for (size_t i = 0; i < rows; ++i) {
    rel.Insert(Tuple({Value::Int(static_cast<int64_t>(i)),
                      Value::String(kCategories[i % 8]),
                      Value::Double(0.5 * static_cast<double>(i % 100))}));
  }
  Database db;
  db.Put("events", std::move(rel));
  return db;
}

struct Case {
  const char* name;
  PredicatePtr (*predicate)(size_t rows);
  bool prunes;  // zone maps rule out at least one segment
};

const Case kCases[] = {
    // ~1% of rows pass and they are contiguous: every other segment's
    // zone interval misses the literal, so pruning carries the win.
    {"id-range-selective",
     [](size_t rows) {
       return Predicate::ColVal(CompareOp::kLt, 0,
                                Value::Int(static_cast<int64_t>(rows / 100)));
     },
     true},
    // 1-in-8 rows pass, spread across every segment: no pruning, so the
    // zone path's gain is copying only the matching rows.
    {"category-equality",
     [](size_t) {
       return Predicate::ColVal(CompareOp::kEq, 1, Value::String("gamma"));
     },
     false},
    // Conjunction: the id conjunct's zone verdict gates the rest.
    {"range-and-category",
     [](size_t rows) {
       return Predicate::And(
           {Predicate::ColVal(CompareOp::kLt, 0,
                              Value::Int(static_cast<int64_t>(rows / 10))),
            Predicate::ColVal(CompareOp::kEq, 1, Value::String("beta"))});
     },
     true},
};

/// Aborts unless the zone scan of `plan` on `zone_db` answers as the row
/// path does on `row_db`, the same rows without zone maps, and consults
/// the zone maps: every segment gets a verdict, and at least one is
/// pruned when the case `prunes`.
void CheckZoneScanAgrees(const Database& row_db, const Database& zone_db,
                         const ExprPtr& plan, bool prunes) {
  Executor row(&row_db);
  Executor zone(&zone_db);
  auto want = row.Evaluate(plan);
  auto got = zone.Evaluate(plan);
  const ExecStats& stats = zone.stats();
  const size_t segments = stats.segments_scanned + stats.segments_pruned;
  if (!want.ok() || !got.ok() || *want != *got || segments == 0 ||
      (prunes && stats.segments_pruned == 0)) {
    std::cerr << "zone scan disagrees with the row path or prunes nothing on "
              << plan->ToString() << "\n";
    std::abort();
  }
}

void RunScan(benchmark::State& state, bool zones) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const Case& c = kCases[state.range(1)];
  Database db = MakeEvents(rows);
  ExprPtr plan = Expr::Select(Expr::Scan("events"), c.predicate(rows));
  if (zones) {
    const Database row_db = db;
    db.EnableColumnarAll();
    CheckZoneScanAgrees(row_db, db, plan, c.prunes);
  }
  Executor executor(&db);
  auto physical = executor.Lower(plan);
  if (!physical.ok()) {
    state.SkipWithError(physical.status().message().c_str());
    return;
  }
  for (auto _ : state) {
    executor.ResetStats();
    auto rel = executor.ExecutePhysical(*physical);
    if (!rel.ok()) {
      state.SkipWithError(rel.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(rel->size());
  }
  state.SetLabel(std::string(c.name) + (zones ? " [zones]" : " [row]"));
  const ExecStats& stats = executor.stats();
  state.counters["scanned"] =
      benchmark::Counter(static_cast<double>(stats.tuples_scanned));
  state.counters["comparisons"] =
      benchmark::Counter(static_cast<double>(stats.comparisons));
  state.counters["segments"] =
      benchmark::Counter(static_cast<double>(stats.segments_scanned));
  state.counters["pruned"] =
      benchmark::Counter(static_cast<double>(stats.segments_pruned));
}

void BM_Scan_Row(benchmark::State& state) { RunScan(state, false); }
void BM_Scan_Columnar(benchmark::State& state) { RunScan(state, true); }

void Args(benchmark::internal::Benchmark* b) {
  for (long rows : {16L * 1024, 128L * 1024}) {
    for (long c = 0; c < 3; ++c) b->Args({rows, c});
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_Scan_Row)->Apply(Args);
BENCHMARK(BM_Scan_Columnar)->Apply(Args);

}  // namespace
}  // namespace bryql

BRYQL_BENCH_MAIN();
