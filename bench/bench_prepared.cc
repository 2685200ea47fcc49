// Physical-layer ablations: what batching buys over tuple-at-a-time
// data flow (batch size 1) on the E3/E6/E9 workloads, and what the
// prepared-query plan cache buys on repeated queries (cache-hit vs. cold
// Run latency, and Prepare+Execute vs. Run).

#include "bench/bench_util.h"

namespace bryql {
namespace {

struct Workload {
  const char* name;
  const char* text;
};

// One query per headline experiment: E3 (complement-join), E6
// (disjunctive filters), and the E9 universal/nested shapes.
const Workload kWorkloads[] = {
    {"E3-complement-join", "{ x, z | member(x, z) & ~skill(x, db) }"},
    {"E6-disjunctive-filter",
     "{ x | student(x) & (speaks(x, french) | speaks(x, german)) }"},
    {"E9-universal",
     "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }"},
    {"E9-nested-exists",
     "exists x y: enrolled(x, y) & y != cs & makes(x, phd) & "
     "(exists z: lecture(z, ai) & attends(x, z))"},
};

Database MakeDb(size_t students) {
  UniversityConfig config;
  config.students = students;
  config.professors = students / 8;
  config.lectures = 48;
  config.seed = 31;
  return MakeUniversity(config);
}

/// Runs `w` once; aborts on failure (the workloads are fixed and known
/// good, so a failed run is a bug, not a data point).
Execution RunOrAbort(const QueryProcessor& qp, const Workload& w) {
  auto result = qp.Run(w.text);
  if (!result.ok()) {
    std::cerr << w.name << " failed: " << result.status() << "\n";
    std::abort();
  }
  return std::move(*result);
}

/// The batched engine at a given batch size, same plans, same admissions.
/// Batch size 1 is the tuple-at-a-time ablation: the delta to the default
/// size is pure per-tuple interpretation overhead. A non-default size is
/// checked once, outside the timed loop, against the default size's
/// answer, and the run aborts on a mismatch.
void RunEngineCase(benchmark::State& state, size_t batch_size) {
  const Workload& w = kWorkloads[state.range(1)];
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  QueryProcessor qp(&db);
  ExecOptions options;
  options.batch_size = batch_size;
  qp.SetExecOptions(options);
  if (batch_size != kDefaultBatchSize) {
    const Execution want = RunOrAbort(QueryProcessor(&db), w);
    const Execution got = RunOrAbort(qp, w);
    const bool same = want.answer.closed
                          ? want.answer.truth == got.answer.truth
                          : want.answer.relation == got.answer.relation;
    if (!same) {
      std::cerr << w.name << ": batch size " << batch_size
                << " disagrees with batch size " << kDefaultBatchSize
                << "\n";
      std::abort();
    }
  }
  Execution exec;
  for (auto _ : state) {
    exec = RunOrAbort(qp, w);
    benchmark::DoNotOptimize(exec.answer.relation);
    benchmark::DoNotOptimize(exec.answer.truth);
  }
  state.SetLabel(w.name);
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

void BM_Engine_Batched(benchmark::State& state) {
  RunEngineCase(state, kDefaultBatchSize);
}
void BM_Engine_BatchedSize1(benchmark::State& state) {
  RunEngineCase(state, 1);
}

/// Cold pipeline: a fresh QueryProcessor per iteration, so every Run
/// pays parse → rewrite → translate → lower → execute.
void BM_Prepared_ColdRun(benchmark::State& state) {
  const Workload& w = kWorkloads[state.range(1)];
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  Execution exec;
  for (auto _ : state) {
    QueryProcessor qp(&db);
    auto result = qp.Run(w.text);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    exec = std::move(*result);
    benchmark::DoNotOptimize(exec.answer.relation);
  }
  state.SetLabel(w.name);
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

/// Warm pipeline: one QueryProcessor, so every Run after the first is a
/// plan-cache hit and does zero preparation work.
void BM_Prepared_CachedRun(benchmark::State& state) {
  const Workload& w = kWorkloads[state.range(1)];
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  QueryProcessor qp(&db);
  if (!qp.Run(w.text).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  Execution exec;
  for (auto _ : state) {
    auto result = qp.Run(w.text);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    exec = std::move(*result);
    benchmark::DoNotOptimize(exec.answer.relation);
  }
  state.SetLabel(w.name);
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

/// The explicit API: Prepare once, Execute per iteration — the floor for
/// repeated-query latency (no cache lookup, no text hashing).
void BM_Prepared_Execute(benchmark::State& state) {
  const Workload& w = kWorkloads[state.range(1)];
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  QueryProcessor qp(&db);
  auto prepared = qp.Prepare(w.text);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  Execution exec;
  for (auto _ : state) {
    auto result = qp.Execute(*prepared);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    exec = std::move(*result);
    benchmark::DoNotOptimize(exec.answer.relation);
  }
  state.SetLabel(w.name);
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

void Args(benchmark::internal::Benchmark* b) {
  for (long scale : {500L, 2000L, 8000L}) {
    for (long w = 0; w < 4; ++w) b->Args({scale, w});
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_Engine_Batched)->Apply(Args);
BENCHMARK(BM_Engine_BatchedSize1)->Apply(Args);
BENCHMARK(BM_Prepared_ColdRun)->Apply(Args);
BENCHMARK(BM_Prepared_CachedRun)->Apply(Args);
BENCHMARK(BM_Prepared_Execute)->Apply(Args);

}  // namespace
}  // namespace bryql

BENCHMARK_MAIN();
