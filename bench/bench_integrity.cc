// Experiment E17: integrity-constraint checking, the paper's motivating
// application (§1). The seven closed ∀ checks of the integrity-ingest
// workload (examples/integrity_constraints.cpp plus two referential
// checks) at 2000 students, and the E9 universal shape at 8000. Most
// lower to a complement-join whose build side is a stored relation, which
// the probe join answers in place (DESIGN.md §7) instead of hashing the
// relation on every run. Reported: CPU time per check, and the paper's
// counters, which the choice of join must not move.
//
// The storage block prices the rest of a commit at 2000 and 8000
// students: copying `student`, `enrolled` and `attends` (all indexes and
// zone maps), inserting a 160-row batch into the copies, and
// installing them with Database::Put, which frees the replaced relations.
// Reported: CPU time per step, stored tuples, RSS growth per stored tuple
// while copies are held, and minor page faults per copy and per Put
// (`minflt`, getrusage deltas around the timed step): a copy whose arrays
// land on pages the allocator gave back to the kernel faults them in.
//
// The index block prices the read side of the column indexes the checks
// probe: `Relation::Matches` on `enrolled.$0` (c1's lookup, one student
// per key) and `attends.$1` (48 lectures, ~250 rows per key) at 2000
// students, each distinct value looked up once per iteration. Reported:
// CPU time per lookup (`per_lookup`) and the rows the lookups return.
//
// The hash-table block prices the engine's TupleTable on the relations
// c3 and the attends checks hash at 2000 students, `enrolled` (2000 rows)
// and `attends` (~12k rows): a join build keyed on the student column, a
// probe of every row against it (walking all partners), and a
// three-column dedup of each row joined with itself, as c3's Project
// does. Reported: CPU time per row (`per_row`).
//
// Every check holds on the generated database; one that errs or reports a
// violation aborts the run, so a short pass is a smoke test:
//
//   ./build/bench/bench_integrity [--json] [--benchmark_min_time=0.01]

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "storage/tuple_table.h"

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

/// The E9 database with every column indexed and zone maps built, as
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

/// RunPrepared for one of kConstraints. The generated database satisfies
/// every constraint, so a false verdict is a wrong answer.
Execution RunCheck(QueryProcessor* qp, const char* text) {
  Execution exec = RunPrepared(qp, text);
  if (!exec.answer.truth) {
    std::cerr << "constraint reported violated: " << text << "\n";
    std::abort();
  }
  return exec;
}

void BM_Check(benchmark::State& state) {
  const char* text = kConstraints[state.range(0)];
  Database db = MakeDb(2000);
  QueryProcessor qp(&db);
  Execution exec = RunCheck(&qp, text);
  for (auto _ : state) {
    exec = RunCheck(&qp, text);
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
  for (const char* text : kConstraints) RunCheck(&qp, text);
  for (auto _ : state) {
    total = ExecStats();
    for (const char* text : kConstraints) {
      Execution exec = RunCheck(&qp, text);
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

/// The E17 database at 2000 students, built once for the blocks below.
const Database& SharedDb() {
  static const Database db = MakeDb(2000);
  return db;
}

// --- column indexes: the read side ------------------------------------

constexpr std::pair<const char*, size_t> kIndexed[] = {{"enrolled", 0},
                                                       {"attends", 1}};

void BM_IndexMatches(benchmark::State& state) {
  const auto [name, column] = kIndexed[state.range(0)];
  const Relation& rel = **SharedDb().Get(name);
  std::vector<Value> keys;  // each distinct value once, in row order
  Relation distinct(1);
  for (const RowView row : rel.rows()) {
    if (*distinct.Insert(Tuple({row.at(column)}))) {
      keys.push_back(row.at(column));
    }
  }
  size_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    for (const Value& key : keys) rows += rel.Matches(column, key).size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel(std::string(name) + ".$" + std::to_string(column));
  const double lookups = static_cast<double>(keys.size());
  state.counters["lookups"] = benchmark::Counter(lookups);
  state.counters["rows"] = benchmark::Counter(static_cast<double>(rows));
  state.counters["per_lookup"] = benchmark::Counter(
      lookups, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}

// --- hash tables: the engine's TupleTable -----------------------------

constexpr const char* kHashed[] = {"enrolled", "attends"};

/// The rows of kHashed[state.range(0)] in the E17 database, as tuples
/// (the engine hashes the rows of its batches).
const std::vector<Tuple>& HashedRows(benchmark::State& state) {
  static const auto rows = [] {
    std::array<std::vector<Tuple>, std::size(kHashed)> copied;
    for (size_t i = 0; i < std::size(kHashed); ++i) {
      const RowRange stored = (*SharedDb().Get(kHashed[i]))->rows();
      copied[i].assign(stored.begin(), stored.end());
    }
    return copied;
  }();
  return rows[state.range(0)];
}

/// Reports CPU time per row (`per_row`, in seconds) over `rows` rows
/// handled per iteration.
void ReportPerRow(benchmark::State& state, size_t rows) {
  state.SetLabel(kHashed[state.range(0)]);
  state.counters["rows"] = benchmark::Counter(static_cast<double>(rows));
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsIterationInvariantRate |
                                     benchmark::Counter::kInvert);
}

const std::vector<size_t> kStudentColumn = {0};

void BM_TableBuild(benchmark::State& state) {
  const std::vector<Tuple>& rows = HashedRows(state);
  for (auto _ : state) {
    TupleTable table(kStudentColumn);
    for (const Tuple& row : rows) table.Add(row);
    benchmark::DoNotOptimize(table.size());
  }
  ReportPerRow(state, rows.size());
}

void BM_TableProbe(benchmark::State& state) {
  const std::vector<Tuple>& rows = HashedRows(state);
  TupleTable table(kStudentColumn);
  for (const Tuple& row : rows) table.Add(row);
  for (auto _ : state) {
    size_t partners = 0;
    for (const Tuple& row : rows) {
      for (uint32_t r = table.Find(row, kStudentColumn);
           r != TupleTable::kNoRow; r = table.Next(r)) {
        benchmark::DoNotOptimize(table.Row(r).data());
        ++partners;
      }
    }
    benchmark::DoNotOptimize(partners);
  }
  ReportPerRow(state, rows.size());
}

void BM_TableDedup(benchmark::State& state) {
  std::vector<Tuple> joined;
  for (const Tuple& row : HashedRows(state)) joined.push_back(row.Concat(row));
  const std::vector<size_t> columns = {0, 1, 3};
  for (auto _ : state) {
    TupleTable seen;
    for (const Tuple& row : joined) seen.InsertKey(row, columns);
    benchmark::DoNotOptimize(seen.size());
  }
  ReportPerRow(state, joined.size());
}

// --- storage: the write side of a commit ------------------------------

constexpr const char* kWritten[] = {"student", "enrolled", "attends"};
constexpr size_t kNumWritten = sizeof(kWritten) / sizeof(kWritten[0]);

std::vector<Relation> CopyWritten(const Database& db) {
  std::vector<Relation> copies;
  copies.reserve(kNumWritten);
  for (const char* name : kWritten) copies.push_back(**db.Get(name));
  return copies;
}

/// 20 new students, each with a student row, an enrollment and six
/// lectures: 160 rows, (index into kWritten, tuple).
std::vector<std::pair<size_t, Tuple>> MakeBatch() {
  std::vector<std::pair<size_t, Tuple>> batch;
  for (size_t i = 0; i < 20; ++i) {
    const Value name = Value::String("new" + std::to_string(i));
    batch.push_back({0, Tuple({name})});
    batch.push_back({1, Tuple({name, Value::String("cs")})});
    for (size_t k = 0; k < 6; ++k) {
      batch.push_back(
          {2, Tuple({name, Value::String("l" + std::to_string(i + 7 * k))})});
    }
  }
  return batch;
}

size_t StoredTuples(const Database& db) {
  size_t tuples = 0;
  for (const char* name : kWritten) tuples += (*db.Get(name))->size();
  return tuples;
}

/// Resident set size in bytes (/proc/self/statm).
double RssBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// RSS growth per stored tuple while copies of the written relations are
/// held: enough copies for ~200k tuples, so allocator slack is small
/// beside them.
double RssBytesPerTuple(const Database& db) {
  const size_t tuples = StoredTuples(db);
  const size_t count = std::max<size_t>(1, 200000 / tuples);
  malloc_trim(0);
  const double before = RssBytes();
  std::vector<std::vector<Relation>> held;
  for (size_t i = 0; i < count; ++i) held.push_back(CopyWritten(db));
  const double grown = RssBytes() - before;
  return grown / static_cast<double>(count * tuples);
}

void ReportTuples(benchmark::State& state, const Database& db) {
  state.counters["tuples"] =
      benchmark::Counter(static_cast<double>(StoredTuples(db)));
}

/// Minor page faults of this process so far.
long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Reports `faults` minor faults over the run as `minflt` per iteration.
void ReportFaults(benchmark::State& state, long faults) {
  state.counters["minflt"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}

void BM_StorageCopy(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  const double rss_per_tuple = RssBytesPerTuple(db);
  long faults = 0;
  for (auto _ : state) {
    const long before = MinorFaults();
    std::vector<Relation> copies = CopyWritten(db);
    benchmark::DoNotOptimize(copies.data());
    faults += MinorFaults() - before;
    state.PauseTiming();  // freeing the copies is BM_StoragePut's cost
    copies.clear();
    state.ResumeTiming();
  }
  ReportTuples(state, db);
  ReportFaults(state, faults);
  state.counters["rss_B_per_tuple"] = benchmark::Counter(rss_per_tuple);
}

void BM_StorageInsert(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  const std::vector<std::pair<size_t, Tuple>> batch = MakeBatch();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Relation> copies = CopyWritten(db);
    state.ResumeTiming();
    for (const auto& [rel, tuple] : batch) {
      if (!*copies[rel].Insert(tuple)) std::abort();  // rows are new
    }
    state.PauseTiming();
    copies.clear();
    state.ResumeTiming();
  }
  state.counters["rows"] = benchmark::Counter(static_cast<double>(batch.size()));
}

void BM_StoragePut(benchmark::State& state) {
  Database db = MakeDb(static_cast<size_t>(state.range(0)));
  long faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Relation> copies = CopyWritten(db);
    state.ResumeTiming();
    const long before = MinorFaults();
    for (size_t k = 0; k < kNumWritten; ++k) {
      db.Put(kWritten[k], std::move(copies[k]));
    }
    faults += MinorFaults() - before;
  }
  ReportTuples(state, db);
  ReportFaults(state, faults);
}

BENCHMARK(BM_Check)->DenseRange(0, kNumConstraints - 1)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_AllChecks)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E9Universal)->Arg(8000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexMatches)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_TableBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TableProbe)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TableDedup)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StorageCopy)->Arg(2000)->Arg(8000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_StorageInsert)->Arg(2000)->Arg(8000)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_StoragePut)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bryql

BRYQL_BENCH_MAIN();
