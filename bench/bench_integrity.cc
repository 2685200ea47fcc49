// Experiment E17: integrity-constraint checking, the paper's motivating
// application (§1). The seven closed ∀ checks of the integrity-ingest
// workload (examples/integrity_constraints.cpp plus two referential
// checks) at 2000 students, and the E9 universal shape at 8000. Most
// lower to a complement-join whose build side is a stored relation, which
// the probe join answers in place (DESIGN.md §7) instead of hashing the
// relation on every run. Reported: CPU time per check, and the paper's
// counters, which the choice of join must not move.
//
//   ./build/bench/bench_integrity [--json]

#include <string>
#include <utility>

#include "bench/bench_util.h"

namespace bryql {
namespace {

constexpr const char* kConstraints[] = {
    "forall x: student(x) -> (exists d: enrolled(x, d))",
    "forall x d: enrolled(x, d) -> department(d)",
    "forall x d1 d2: (enrolled(x, d1) & enrolled(x, d2)) -> d1 = d2",
    "forall x y: attends(x, y) -> (exists s: lecture(y, s))",
    "forall y s: lecture(y, s) -> (s = db | (exists x: attends(x, y)))",
    "forall x y: attends(x, y) -> student(x)",
    "forall x d: enrolled(x, d) -> student(x)",
};
constexpr size_t kNumConstraints =
    sizeof(kConstraints) / sizeof(kConstraints[0]);

const char* kUniversal =
    "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }";

/// The E9 database with every column indexed and column stores built, as
/// a stored database serving constraint checks would be.
Database MakeDb(size_t students) {
  UniversityConfig config;
  config.students = students;
  config.professors = students / 8;
  config.lectures = 48;
  config.seed = 31;
  Database db = MakeUniversity(config);
  db.BuildAllIndexes();
  db.EnableColumnarAll();
  return db;
}

/// Runs `text` through a processor whose plan cache already holds it, so
/// the time is execution: what a check costs after every commit.
Execution RunPrepared(QueryProcessor* qp, const char* text) {
  auto exec = qp->Run(text);
  if (!exec.ok()) {
    std::cerr << "failed on: " << text << "\n  " << exec.status() << "\n";
    std::abort();
  }
  return std::move(*exec);
}

void BM_Check(benchmark::State& state) {
  const char* text = kConstraints[state.range(0)];
  Database db = MakeDb(2000);
  QueryProcessor qp(&db);
  Execution exec = RunPrepared(&qp, text);
  for (auto _ : state) {
    exec = RunPrepared(&qp, text);
    benchmark::DoNotOptimize(exec.answer.truth);
  }
  state.SetLabel("c" + std::to_string(state.range(0) + 1));
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

/// All seven checks: the read cost of one commit.
void BM_AllChecks(benchmark::State& state) {
  Database db = MakeDb(2000);
  QueryProcessor qp(&db);
  ExecStats total;
  for (const char* text : kConstraints) RunPrepared(&qp, text);
  for (auto _ : state) {
    total = ExecStats();
    for (const char* text : kConstraints) {
      Execution exec = RunPrepared(&qp, text);
      benchmark::DoNotOptimize(exec.answer.truth);
      total.Add(exec.stats);
    }
  }
  bench::ReportStats(state, total, kNumConstraints);
}

void BM_E9Universal(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  QueryProcessor qp(&db);
  Execution exec = RunPrepared(&qp, kUniversal);
  for (auto _ : state) {
    exec = RunPrepared(&qp, kUniversal);
    benchmark::DoNotOptimize(exec.answer.relation);
  }
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

BENCHMARK(BM_Check)->DenseRange(0, kNumConstraints - 1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_AllChecks)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E9Universal)->Arg(8000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bryql

BRYQL_BENCH_MAIN();
