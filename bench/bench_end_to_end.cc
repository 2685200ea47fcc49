// Experiment E9: end-to-end scale sweep. A representative subset of the
// paper suite (one query per §3 mechanism) across database scales and all
// strategies. The headline shape: bry ≥ every baseline everywhere, the
// classical reduction degrades fastest, nested loops pay per-tuple probe
// costs that the algebra amortizes.
//
// Each bry case first checks its answer against the nested-loop answer,
// once, outside the timed loop, and aborts on a mismatch. The five shapes
// lower to every hash join the translator produces (inner with and
// without keys and on either build side, semi, anti, mark) plus union and
// projection dedup, so one short pass is a smoke test of the batched
// engine's hash tables in an optimized build:
//
//   ./build/bench/bench_end_to_end --benchmark_filter=BM_EndToEnd_Bry
//       --benchmark_min_time=0.01

#include "bench/bench_util.h"

namespace bryql {
namespace {

struct Workload {
  const char* name;
  const char* text;
};

const Workload kWorkloads[] = {
    {"complement-join", "{ x, z | member(x, z) & ~skill(x, db) }"},
    {"universal",
     "{ x | student(x) & (forall y: lecture(y, db) -> attends(x, y)) }"},
    {"disjunctive-filter",
     "{ x | student(x) & (speaks(x, french) | speaks(x, german)) }"},
    {"producer-disjunction",
     "{ x | ((student(x) & makes(x, phd)) | professor(x)) & "
     "(speaks(x, french) | speaks(x, german)) }"},
    {"nested-exists",
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

/// Aborts unless bry and the nested loop give `w` the same answer.
void CheckAgainstNestedLoop(const Database& db, const Workload& w,
                            size_t scale) {
  const Execution bry = bench::RunStrategy(db, w.text, Strategy::kBry);
  const Execution oracle =
      bench::RunStrategy(db, w.text, Strategy::kNestedLoop);
  const bool same = bry.answer.closed
                        ? bry.answer.truth == oracle.answer.truth
                        : bry.answer.relation == oracle.answer.relation;
  if (!same) {
    std::cerr << w.name << " at " << scale
              << " students: bry disagrees with the nested loop\n";
    std::abort();
  }
}

void RunCase(benchmark::State& state, Strategy strategy) {
  const Workload& w = kWorkloads[state.range(1)];
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  // The classical reduction's range products are intractable for the
  // nested shapes past small scales.
  if (strategy == Strategy::kClassical && state.range(0) > 2000 &&
      (std::string(w.name) == "universal" ||
       std::string(w.name) == "nested-exists")) {
    state.SkipWithError("classical reduction intractable at this scale");
    return;
  }
  if (strategy == Strategy::kBry) {
    CheckAgainstNestedLoop(db, w, static_cast<size_t>(state.range(0)));
  }
  Execution exec;
  for (auto _ : state) {
    exec = bench::RunStrategy(db, w.text, strategy);
    benchmark::DoNotOptimize(exec.answer.relation);
    benchmark::DoNotOptimize(exec.answer.truth);
  }
  state.SetLabel(std::string(w.name) + " [" + StrategyName(strategy) + "]");
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

void BM_EndToEnd_Bry(benchmark::State& state) {
  RunCase(state, Strategy::kBry);
}
void BM_EndToEnd_Classical(benchmark::State& state) {
  RunCase(state, Strategy::kClassical);
}
void BM_EndToEnd_NestedLoop(benchmark::State& state) {
  RunCase(state, Strategy::kNestedLoop);
}

void Args(benchmark::internal::Benchmark* b) {
  for (long scale : {500L, 2000L, 8000L}) {
    for (long w = 0; w < 5; ++w) b->Args({scale, w});
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_EndToEnd_Bry)->Apply(Args);
BENCHMARK(BM_EndToEnd_NestedLoop)->Apply(Args);
BENCHMARK(BM_EndToEnd_Classical)->Apply(Args);

}  // namespace
}  // namespace bryql

BRYQL_BENCH_MAIN();
