// Experiment E3 (§3.1): the complement-join vs. the conventional
// translation of `member(x,z) ∧ ¬skill(x,db)`.
//
// Conventional plan:  member ⋈ (π1(member) − π1(σ_{2='db'}(skill)))
// Complement-join:    member ⊼_{1=1} π1(σ_{2='db'}(skill))
//
// The paper's claim: the conventional plan "requires to compute not only a
// difference, but also a join"; the complement-join behaves like a
// semi-join probe. Expect the complement-join to win on time, comparisons
// and materialized tuples at every scale, by a growing absolute margin.
//
// BM_ComplementJoin first checks, once per case and outside the timed
// loop, that the complement-join answer and the conventional answer
// projected onto member's two columns both equal the nested loop's answer
// to the Q2 text, and aborts on a mismatch, so one short pass is a smoke
// test of both plans:
//
//   ./build/bench/bench_complement_join --benchmark_min_time=0.01

#include <iostream>
#include <random>

#include "bench/bench_util.h"
#include "exec/executor.h"

namespace bryql {
namespace {

/// member(person, dept) with `people` rows; skill(person, topic) where a
/// `skilled_fraction` of people have the 'db' skill.
Database MakeDb(size_t people, double skilled_fraction, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const char* depts[] = {"cs", "math", "physics", "law"};
  Relation member(2), skill(2);
  for (size_t i = 0; i < people; ++i) {
    std::string name = "m" + std::to_string(i);
    member.Insert(Tuple({Value::String(name),
                         Value::String(depts[rng() % 4])}));
    if (std::uniform_real_distribution<double>(0, 1)(rng) <
        skilled_fraction) {
      skill.Insert(Tuple({Value::String(name), Value::String("db")}));
    }
    if (rng() % 3 == 0) {
      skill.Insert(Tuple({Value::String(name), Value::String("ai")}));
    }
  }
  Database db;
  db.Put("member", std::move(member));
  db.Put("skill", std::move(skill));
  return db;
}

ExprPtr SkilledDb() {
  return Expr::Project(
      Expr::Select(Expr::Scan("skill"),
                   Predicate::ColVal(CompareOp::kEq, 1,
                                     Value::String("db"))),
      {0});
}

/// member ⊼ π1(σ skill): the paper's plan.
ExprPtr ComplementJoinPlan() {
  return Expr::AntiJoin(Expr::Scan("member"), SkilledDb(), {{0, 0}});
}

/// member ⋈ (π1(member) − π1(σ skill)): the conventional plan.
ExprPtr ConventionalPlan() {
  ExprPtr difference =
      Expr::Difference(Expr::Project(Expr::Scan("member"), {0}),
                       SkilledDb());
  return Expr::Join(Expr::Scan("member"), std::move(difference), {{0, 0}});
}

/// Aborts unless both plans give the nested loop's answer to Q2:
/// the complement-join's answer, and π_{1,2} of the conventional plan
/// (member's columns). The two plans share the hash anti-join path, so
/// only the nested loop, which shares no code with them, catches a fault
/// in it.
void CheckPlansAgree(const Database& db) {
  Executor exec(&db);
  auto complement = exec.Evaluate(ComplementJoinPlan());
  auto conventional =
      exec.Evaluate(Expr::Project(ConventionalPlan(), {0, 1}));
  const Execution oracle = bench::RunStrategy(
      db, "{ x, z | member(x, z) & ~skill(x, db) }", Strategy::kNestedLoop);
  if (!complement.ok() || !conventional.ok() ||
      *complement != oracle.answer.relation ||
      *conventional != oracle.answer.relation) {
    std::cerr << "a plan disagrees with the nested loop on Q2\n";
    std::abort();
  }
}

void BM_ComplementJoin(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)),
                       static_cast<double>(state.range(1)) / 100.0, 7);
  CheckPlansAgree(db);
  ExecStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    Executor exec(&db);
    auto rel = exec.Evaluate(ComplementJoinPlan());
    if (!rel.ok()) std::abort();
    answers = rel->size();
    stats = exec.stats();
    benchmark::DoNotOptimize(rel);
  }
  bench::ReportStats(state, stats, answers);
}

void BM_ConventionalDifferenceJoin(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)),
                       static_cast<double>(state.range(1)) / 100.0, 7);
  ExecStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    Executor exec(&db);
    auto rel = exec.Evaluate(ConventionalPlan());
    if (!rel.ok()) std::abort();
    answers = rel->size();
    stats = exec.stats();
    benchmark::DoNotOptimize(rel);
  }
  bench::ReportStats(state, stats, answers);
}

/// The end-to-end form: the translator must produce the complement-join
/// plan from the §3.1 Q2 text.
void BM_TranslatedQ2(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)),
                       static_cast<double>(state.range(1)) / 100.0, 7);
  Execution exec;
  for (auto _ : state) {
    exec = bench::RunPipeline(db, "{ x, z | member(x, z) & ~skill(x, db) }");
    benchmark::DoNotOptimize(exec.answer.relation);
  }
  bench::ReportStats(state, exec.stats, bench::AnswerSize(exec));
}

void Args(benchmark::internal::Benchmark* b) {
  // {people, skilled % of people}.
  b->Args({1000, 30})
      ->Args({1000, 70})
      ->Args({10000, 30})
      ->Args({10000, 70})
      ->Args({100000, 50})
      ->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_ComplementJoin)->Apply(Args);
BENCHMARK(BM_ConventionalDifferenceJoin)->Apply(Args);
BENCHMARK(BM_TranslatedQ2)->Apply(Args);

}  // namespace
}  // namespace bryql

BENCHMARK_MAIN();
