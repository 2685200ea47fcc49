// yardstick: bryql's end-to-end benchmark harness.
//
//   yardstick --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans FILE]
//
// One process, public library calls only. The seed drives every input:
// the database, key draws, write batches and the arrival schedule. Every
// answer is checked against expectations computed outside the timed
// intervals (the Figure 1 nested-loop interpreter, or maps built straight
// from the stored rows). The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// README.md explains the workloads and every metric.

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algebra/simplifier.h"
#include "calculus/parser.h"
#include "core/query_processor.h"
#include "exec/lowering.h"
#include "metrics.h"
#include "nestedloop/nested_loop.h"
#include "oracle.h"
#include "rewrite/rewriter.h"
#include "service/service.h"
#include "translate/translator.h"
#include "workload/university.h"

namespace yardstick {
namespace {

using namespace bryql;

// --- configuration --------------------------------------------------------

/// Sub-seed streams of the one workload seed.
enum Stream : uint64_t {
  kDbStream,
  kKeyStream,
  kWriteStream,
  kArrivalStream,
  kViolationStream
};

/// The E9 yardstick (bench/bench_end_to_end.cc): one query per §3
/// mechanism.
struct Shape {
  const char* name;
  const char* text;
};
constexpr Shape kShapes[] = {
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
constexpr size_t kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

/// Integrity constraints of the ingest workload, after
/// examples/integrity_constraints.cpp. Each must hold after a commit.
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

/// Relations a commit writes, in batch-row order.
constexpr const char* kWritten[] = {"student", "enrolled", "attends"};
constexpr size_t kNumWritten = 3;

constexpr double kTailQuantile = 0.95;
/// Plan-cache capacity of the lookup workloads: the library default.
constexpr size_t kPlanCacheCapacity = PlanCache::kDefaultCapacity;
/// Open-loop rate of the interactive stream in service-mixed.
constexpr double kInteractiveRate = 100.0;
/// The interactive client spins, rather than sleeps, this close to a due
/// time.
constexpr uint64_t kSpinNs = 1000000;
/// Commits per ingest cycle; the database returns to its initial state
/// after each cycle, so every run sees the same sequence of states.
constexpr size_t kCommitsPerCycle = 40;
constexpr size_t kStudentsPerBatch = 20;
/// Measuring processes an untraced run is split into, one after another.
/// Each builds its own database, so set-up time is sampled 2 * kForks
/// times, and no one process's heap layout decides the result.
constexpr size_t kForks = 8;
/// Repetitions of each yardstick shape in the traced run's layer probe.
constexpr size_t kProbeReps = 5;
/// Front-end attributions in the traced run.
constexpr size_t kAttributions = 300;
/// Shortest slice of a closed-loop window: thousands of lookups or a
/// whole ingest cycle, and dozens of slices in a run.
constexpr double kSliceSeconds = 0.5;
/// Timed repetitions of the CPU probe on each CPU; the median counts.
constexpr size_t kCpuProbeReps = 5;
/// A window never runs longer than this many times --seconds, whatever
/// it still lacks, so a slow or failing build still ends in time.
constexpr double kMaxWindowFactor = 3.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  /// Expectations that one process of an untraced run derived and the
  /// processes forked after it inherit (Workload::Expectations).
  std::string expectations;
};

// --- small helpers ---------------------------------------------------------

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "yardstick: " << message << "\n";
  std::exit(3);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
double CpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// A field of /proc/self/status in MB ("VmRSS", "VmHWM").
double ProcStatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// One repetition of the CPU probe, in ms: building and hashing short
/// strings and updating a table at scattered slots, the kind of work the
/// workloads' front end and storage do. The work is fixed, so only the
/// CPU's speed changes its time; it allocates nothing on the heap.
double CpuProbeRepMs(uint32_t* table, size_t size) {
  uint64_t start = NowNs();
  uint32_t x = 1, sum = 0;
  for (int i = 0; i < 20000; ++i) {
    x = x * 1664525u + 1013904223u;
    const std::string key = "s" + std::to_string(x % 20000);
    sum += ++table[std::hash<std::string>{}(key) % size];
  }
  const double ms = MsSince(start);
  return ms + static_cast<double>(sum & 1) * 1e-12;  // keep `sum` live
}

/// The CPUs the process may run on when it starts. Main() reads them
/// first, before any placement; forked processes inherit the copy.
const cpu_set_t& StartingCpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof(s), &s) != 0) CPU_SET(0, &s);
    return s;
  }();
  return set;
}

/// Confines the calling thread, and the threads and processes it starts
/// from then on, to `cpus`.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// The starting CPUs, quickest first. On a shared host, vCPUs are slowed
/// by other tenants on their physical cores, each CPU in its own phases
/// of seconds to minutes; a short probe, run on every CPU at once so that
/// they are compared over the same interval, tells which are least slowed
/// at the time.
std::vector<int> CpusQuickestFirst() {
  const cpu_set_t& allowed = StartingCpus();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> probe_ms(cpus.size());
  std::vector<std::thread> probes;
  for (size_t i = 0; i < cpus.size(); ++i) {
    probes.emplace_back([&, i] {
      PinTo({cpus[i]});
      // Mapped directly, not through malloc, whose state the measuring
      // process inherits; small (256 KB), as it counts in peak RSS.
      const size_t size = 1 << 16, bytes = size * sizeof(uint32_t);
      void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (mem == MAP_FAILED) {
        probe_ms[i] = HUGE_VAL;
        return;
      }
      auto* table = static_cast<uint32_t*>(mem);
      CpuProbeRepMs(table, size);  // untimed: faults the table in
      double reps[kCpuProbeReps];
      for (double& r : reps) r = CpuProbeRepMs(table, size);
      munmap(mem, bytes);
      std::sort(std::begin(reps), std::end(reps));
      probe_ms[i] = reps[kCpuProbeReps / 2];
    });
  }
  for (std::thread& t : probes) t.join();
  return QuickestCpus(cpus, probe_ms, cpus.size());
}

/// Confines the calling thread, and the threads and processes it starts
/// from then on, to the `k` quickest CPUs.
void PinToQuickestCpus(size_t k) {
  std::vector<int> cpus = CpusQuickestFirst();
  cpus.resize(std::min(k, cpus.size()));
  PinTo(cpus);
}

UniversityConfig ConfigFor(size_t students, uint64_t seed) {
  UniversityConfig config;
  config.students = students;
  config.professors = students / 8;
  config.lectures = 48;
  config.seed = DeriveSeed(seed, kDbStream);
  return config;
}

/// The engine's own clock for physical execution: time of the root
/// operator(s), summed over parallel workers.
uint64_t RootOperatorNs(const ExecStats& stats) {
  uint64_t ns = 0;
  for (const OperatorStats& op : stats.operator_stats) {
    if (op.depth == 0) ns += op.open_ns + op.next_ns;
  }
  return ns;
}

/// Deterministic work counters, summed over a fixed prefix of the op
/// sequence so that they repeat exactly across runs of one seed.
struct Counters {
  size_t ops = 0;
  double scanned = 0, comparisons = 0, probes = 0, materialized = 0,
         answers = 0, segments = 0, pruned = 0;

  void Add(const Execution& e) {
    scanned += static_cast<double>(e.stats.tuples_scanned);
    comparisons += static_cast<double>(e.stats.comparisons);
    probes += static_cast<double>(e.stats.hash_probes);
    materialized += static_cast<double>(e.stats.tuples_materialized);
    answers += static_cast<double>(AnswerCount(e.answer));
    segments += static_cast<double>(e.stats.segments_scanned);
    pruned += static_cast<double>(e.stats.segments_pruned);
  }
  Counters& operator+=(const Counters& o) {
    ops += o.ops;
    scanned += o.scanned;
    comparisons += o.comparisons;
    probes += o.probes;
    materialized += o.materialized;
    answers += o.answers;
    segments += o.segments;
    pruned += o.pruned;
    return *this;
  }
  bool operator==(const Counters&) const = default;
};

// --- metrics output -------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << FormatNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// --- writes ------------------------------------------------------------------

/// One commit's rows, as (index into kWritten, tuple).
struct Batch {
  std::vector<std::pair<size_t, Tuple>> rows;
  bool violating = false;
};

Tuple Pair(const std::string& a, const std::string& b) {
  return Tuple({Value::String(a), Value::String(b)});
}

/// Kinds of violation MakeBatch can seed.
constexpr int kViolationKinds = 6;

/// A seeded batch of new students with an enrollment and six lectures
/// each. A violating batch (`violation` >= 0) also breaks exactly one
/// constraint, of the given kind.
Batch MakeBatch(uint64_t seed, size_t index, int violation) {
  static const char* kDepts[] = {"cs", "math", "physics", "biology"};
  std::mt19937_64 rng(DeriveSeed(seed, kWriteStream) + index);
  Batch batch;
  const std::string prefix = "n" + std::to_string(index) + "_";
  for (size_t j = 0; j < kStudentsPerBatch; ++j) {
    const std::string name = prefix + std::to_string(j);
    batch.rows.push_back({0, Tuple({Value::String(name)})});
    batch.rows.push_back({1, Pair(name, kDepts[rng() % 4])});
    for (int k = 0; k < 6; ++k) {
      batch.rows.push_back({2, Pair(name, "l" + std::to_string(rng() % 48))});
    }
  }
  batch.violating = violation >= 0;
  if (batch.violating) {
    const std::string culprit = prefix + "x";
    switch (violation) {
      case 0:  // enrollment in a department that does not exist
        batch.rows.push_back({0, Tuple({Value::String(culprit)})});
        batch.rows.push_back({1, Pair(culprit, "nowhere")});
        break;
      case 1:  // attendance of a lecture that does not exist
        batch.rows.push_back({2, Pair(prefix + "0", "l999")});
        break;
      case 2:  // a student enrolled nowhere
        batch.rows.push_back({0, Tuple({Value::String(culprit)})});
        break;
      case 3:  // a second enrollment
        batch.rows.push_back({1, Pair(prefix + "0", "law")});
        break;
      case 4:  // attendance by someone who is not a student
        batch.rows.push_back({2, Pair(culprit, "l0")});
        break;
      default:  // enrollment of someone who is not a student
        batch.rows.push_back({1, Pair(culprit, "cs")});
        break;
    }
  }
  return batch;
}

struct CommitTiming {
  double copy_ms = 0, insert_ms = 0, put_ms = 0;
  size_t rows = 0;
  double total_ms() const { return copy_ms + insert_ms + put_ms; }
};

/// Commits batches to the written relations: copies them, inserts the
/// batch through Relation::Insert and installs the copies with
/// Database::Put. It keeps its own image of the last committed state,
/// maintained by the same inserts, and rolls a rejected commit back by
/// installing a copy of that image with Put.
class Committer {
 public:
  explicit Committer(Database* db) : db_(db) {
    for (const char* name : kWritten) {
      committed_.push_back(*Must(db->Get(name), "get"));
    }
    initial_ = committed_;
  }

  void Apply(const Batch& batch, Tracer* tr, uint64_t req,
             CommitTiming* timing) {
    std::vector<Relation> next;
    uint64_t t0 = NowNs();
    {
      ScopedSpan span(tr, "storage.copy", req);
      for (const char* name : kWritten) {
        next.push_back(*Must(db_->Get(name), "get"));
      }
    }
    uint64_t t1 = NowNs();
    Insert(batch, &next, tr, req);
    uint64_t t2 = NowNs();
    Put(std::move(next), tr, req);
    uint64_t t3 = NowNs();
    timing->copy_ms = static_cast<double>(t1 - t0) / 1e6;
    timing->insert_ms = static_cast<double>(t2 - t1) / 1e6;
    timing->put_ms = static_cast<double>(t3 - t2) / 1e6;
    timing->rows = batch.rows.size();
  }

  /// The applied batch stands: fold it into the rollback image. This is
  /// the harness's bookkeeping, not the program's commit, so it is
  /// neither timed nor traced.
  void Accept(const Batch& batch) {
    Insert(batch, &committed_, nullptr, 0);
    image_moved_ = true;
  }

  /// The applied batch is rejected: reinstall the last committed state.
  void Rollback(Tracer* tr, uint64_t req, CommitTiming* timing) {
    uint64_t t0 = NowNs();
    std::vector<Relation> image;
    {
      ScopedSpan span(tr, "storage.copy", req);
      image = committed_;
    }
    uint64_t t1 = NowNs();
    Put(std::move(image), tr, req);
    timing->copy_ms += static_cast<double>(t1 - t0) / 1e6;
    timing->put_ms += static_cast<double>(NowNs() - t1) / 1e6;
  }

  /// Back to the state at construction (the end of an ingest cycle).
  void Restore() {
    if (image_moved_) committed_ = initial_;
    image_moved_ = false;
    Put(initial_, nullptr, 0);
  }

 private:
  static void Insert(const Batch& batch, std::vector<Relation>* rels,
                     Tracer* tr, uint64_t req) {
    ScopedSpan span(tr, "storage.insert", req);
    for (const auto& [rel, tuple] : batch.rows) {
      Must((*rels)[rel].Insert(tuple), "insert");
    }
  }

  void Put(std::vector<Relation> rels, Tracer* tr, uint64_t req) {
    ScopedSpan span(tr, "storage.put", req);
    for (size_t k = 0; k < kNumWritten; ++k) {
      db_->Put(kWritten[k], std::move(rels[k]));
    }
  }

  Database* db_;
  std::vector<Relation> committed_, initial_;
  bool image_moved_ = false;  // committed_ differs from initial_
};

// --- lookups -------------------------------------------------------------------

/// Expected lookup answers, built straight from the stored rows.
class LookupOracle {
 public:
  explicit LookupOracle(const Database& db) {
    for (const Tuple& t : Must(db.Get("student"), "student")->rows()) {
      index_.emplace(t.at(0).AsString(), index_.size());
    }
    attends_.resize(index_.size());
    speaks_.resize(index_.size());
    enrolled_.resize(index_.size(), false);
    for (const Tuple& t : Must(db.Get("lecture"), "lecture")->rows()) {
      if (t.at(1).AsString() == "db") db_lectures_.insert(t.at(0).AsString());
    }
    for (const Tuple& t : Must(db.Get("attends"), "attends")->rows()) {
      auto it = index_.find(t.at(0).AsString());
      if (it != index_.end()) attends_[it->second].insert(t.at(1).AsString());
    }
    for (const Tuple& t : Must(db.Get("speaks"), "speaks")->rows()) {
      auto it = index_.find(t.at(0).AsString());
      if (it != index_.end()) speaks_[it->second].insert(t.at(1).AsString());
    }
    for (const Tuple& t : Must(db.Get("enrolled"), "enrolled")->rows()) {
      auto it = index_.find(t.at(0).AsString());
      if (it != index_.end()) enrolled_[it->second] = true;
    }
  }

  size_t students() const { return index_.size(); }

  /// The text of template `tpl` for student `s`: an open point join, a
  /// closed ∃∀ check, and a one-key disjunctive filter.
  static std::string Text(size_t tpl, size_t s) {
    const std::string key = "s" + std::to_string(s);
    switch (tpl) {
      case 0:
        return "{ y | attends(" + key + ", y) & lecture(y, db) }";
      case 1:
        return "exists d: enrolled(" + key +
               ", d) & (forall y: lecture(y, db) -> attends(" + key +
               ", y))";
      default:
        return "{ y | speaks(" + key + ", y) & (y = french | y = german) }";
    }
  }

  bool Check(size_t tpl, size_t s, const Answer& answer) const {
    if (tpl == 1) {
      bool all = enrolled_[s];
      for (const std::string& l : db_lectures_) {
        all = all && attends_[s].count(l) != 0;
      }
      return answer.closed && answer.truth == all;
    }
    std::set<std::string> expected;
    if (tpl == 0) {
      for (const std::string& l : attends_[s]) {
        if (db_lectures_.count(l) != 0) expected.insert(l);
      }
    } else {
      for (const std::string& l : speaks_[s]) {
        if (l == "french" || l == "german") expected.insert(l);
      }
    }
    if (answer.closed || answer.relation.arity() != 1 ||
        answer.relation.size() != expected.size()) {
      return false;
    }
    for (const Tuple& t : answer.relation.rows()) {
      if (expected.count(t.at(0).AsString()) == 0) return false;
    }
    return true;
  }

 private:
  std::unordered_map<std::string, size_t> index_;
  std::set<std::string> db_lectures_;
  std::vector<std::set<std::string>> attends_, speaks_;
  std::vector<bool> enrolled_;
};

/// The seeded lookup stream: a template, and a student drawn Zipf(1)
/// through a seeded permutation (so the hot keys are not s0, s1, ...).
class LookupStream {
 public:
  LookupStream(size_t students, uint64_t seed)
      : zipf_(students, 1.0), perm_(students), rng_(seed) {
    for (size_t i = 0; i < students; ++i) perm_[i] = i;
    std::shuffle(perm_.begin(), perm_.end(), rng_);
  }
  std::pair<size_t, size_t> Next() {
    size_t tpl = rng_() % 3;
    return {tpl, perm_[zipf_.Sample(rng_)]};
  }

 private:
  Zipf zipf_;
  std::vector<size_t> perm_;
  std::mt19937_64 rng_;
};

// --- workloads -------------------------------------------------------------------

/// What a measured window produced.
struct Results {
  std::vector<double> read_ms;         // untraced read ops
  std::vector<double> traced_read_ms;  // traced read ops (trace runs)
  std::vector<CommitTiming> commits;   // commit latency and its parts
  std::vector<double> exec_ms;         // engine time per op
  std::vector<double> late_ms;         // open-loop send lateness
  std::vector<Slice> slices;           // the window, slice by slice
  OkCounter ok;
  size_t closed_ops = 0;
  Counters counters;
  PlanCacheStats cache_delta;
  PrepareCounters prepare_delta;
};

class Workload {
 public:
  explicit Workload(const Options& options) : opt_(options) {}
  virtual ~Workload() = default;

  /// Generation, access paths and statement preparation: setup_s.
  virtual void Setup(Tracer* tr) = 0;
  /// Expected answers; runs after setup_s is taken, before the window.
  virtual void Oracle() = 0;
  /// The measured window. Traced runs trace every other op.
  virtual void Measure(Tracer* tr) = 0;
  /// Texts whose front-end phases the traced run attributes.
  virtual std::vector<std::string> AttributionTexts() const = 0;
  /// Closed-loop ops run, and checked, before the window opens: the first
  /// ops of a fresh process fault in the heap its later ops reuse.
  virtual size_t WarmupOps() const { return 1; }
  /// How many CPUs a measuring process is placed on.
  virtual size_t PlacedCpus() const { return 1; }
  /// Oracle() results worth deriving once per run rather than in every
  /// measuring process, as a token without spaces; empty if none. Oracle()
  /// reuses Options::expectations when it is set.
  virtual std::string Expectations() const { return ""; }
  virtual bool shares_expectations() const { return false; }
  /// Returns the database to its state after Setup(), for the traced
  /// run's probes: the window of a writing workload ends mid-cycle, at a
  /// point that depends on its speed.
  virtual void Reset() {}
  virtual QueryService* service() { return nullptr; }

  Database& db() { return db_; }
  const QueryProcessor& qp() const { return *qp_; }
  Results& results() { return r_; }

 protected:
  void Generate(Tracer* tr, size_t students, bool indexes) {
    {
      ScopedSpan span(tr, "storage.generate");
      db_ = MakeUniversity(ConfigFor(students, opt_.seed));
    }
    if (indexes) {
      ScopedSpan span(tr, "storage.index_build");
      db_.BuildAllIndexes();
    }
    {
      ScopedSpan span(tr, "storage.columnar_build");
      db_.EnableColumnarAll();
    }
  }

  /// Closed loop: `op(tracer, index)`, after WarmupOps() untimed ops, in
  /// slices of at least kSliceSeconds, a multiple of SliceOps() ops and
  /// enough reads for their p95. The window ends with the first slice
  /// that closes after --seconds and the counter prefix. Between slices,
  /// untimed, the loop moves to the CPU quickest at that moment.
  void ClosedLoop(Tracer* tr,
                  const std::function<void(Tracer*, uint64_t)>& op) {
    uint64_t i = 0;
    for (; i < WarmupOps(); ++i) op(nullptr, i);
    r_.read_ms.clear();
    r_.commits.clear();
    r_.exec_ms.clear();
    PlanCacheStats cache0 = qp_->cache_stats();
    PrepareCounters prep0 = qp_->prepare_counters();
    uint64_t start = NowNs();
    const uint64_t slice_ns = static_cast<uint64_t>(kSliceSeconds * 1e9);
    const uint64_t window_ns = static_cast<uint64_t>(opt_.seconds * 1e9);
    const size_t slice_reads = MinSamplesFor(kTailQuantile);
    uint64_t slice_start = start;
    double slice_cpu = CpuSeconds();
    size_t slice_ops = 0, slice_first_read = 0;
    for (;; ++i) {
      op(tr != nullptr && i % 2 == 1 ? tr : nullptr, i);
      ++r_.closed_ops;
      ++slice_ops;
      const uint64_t now = NowNs();
      if (static_cast<double>(now - start) >=
          kMaxWindowFactor * static_cast<double>(window_ns)) {
        break;
      }
      if (now - slice_start < slice_ns || slice_ops % SliceOps() != 0 ||
          r_.read_ms.size() - slice_first_read < slice_reads) {
        continue;
      }
      const double cpu = CpuSeconds();
      r_.slices.push_back(MakeSlice(
          slice_ops, static_cast<double>(now - slice_start) / 1e9,
          cpu - slice_cpu,
          {r_.read_ms.begin() + static_cast<ptrdiff_t>(slice_first_read),
           r_.read_ms.end()}));
      slice_ops = 0;
      slice_first_read = r_.read_ms.size();
      if (now - start >= window_ns && r_.counters.ops >= CounterPrefix()) {
        break;
      }
      const uint64_t moved = NowNs();
      PinToQuickestCpus(PlacedCpus());
      start += NowNs() - moved;
      slice_start = NowNs();
      slice_cpu = CpuSeconds();
    }
    RecordCacheDelta(cache0, prep0);
  }

  void RecordCacheDelta(const PlanCacheStats& cache0,
                        const PrepareCounters& prep0) {
    PlanCacheStats cache1 = qp_->cache_stats();
    PrepareCounters prep1 = qp_->prepare_counters();
    r_.cache_delta.hits = cache1.hits - cache0.hits;
    r_.cache_delta.misses = cache1.misses - cache0.misses;
    r_.cache_delta.evictions = cache1.evictions - cache0.evictions;
    r_.prepare_delta.parses = prep1.parses - prep0.parses;
    r_.prepare_delta.lowerings = prep1.lowerings - prep0.lowerings;
  }

  /// Adds one op's counters while inside the fixed counter prefix.
  void CountOp(Counters op) {
    if (r_.counters.ops >= CounterPrefix()) return;
    op.ops = 1;
    r_.counters += op;
  }

  /// Ops the work counters cover: the same seeded prefix on every run.
  virtual size_t CounterPrefix() const = 0;
  /// A closed-loop slice holds a multiple of this many ops.
  virtual size_t SliceOps() const { return 1; }

  const Options opt_;
  Database db_;
  std::unique_ptr<QueryProcessor> qp_;
  Results r_;
};

/// Checks passes over the five E9 shapes against the reference answers.
class ShapePass {
 public:
  void ComputeExpected(const Database& db) {
    for (size_t i = 0; i < kNumShapes; ++i) {
      expected_[i] =
          Must(Reference(db, Must(ParseQuery(kShapes[i].text), "parse shape")),
               "reference");
    }
  }

  /// False on any wrong or missing answer. The pass's counters are added
  /// to `pass`; they are not compared across passes, because two-thread
  /// passes race to the first witness of a closed query.
  bool Check(const Execution* const (&runs)[kNumShapes], Counters* pass) {
    for (size_t i = 0; i < kNumShapes; ++i) {
      if (runs[i] == nullptr || !SameAnswer(runs[i]->answer, expected_[i])) {
        return false;
      }
      pass->Add(*runs[i]);
    }
    return true;
  }

 private:
  Answer expected_[kNumShapes];
};

// lookup-zipf: short keyed queries through the service; the text working
// set (3 × 8000) is far larger than the 128-entry plan cache.
class LookupZipf : public Workload {
 public:
  using Workload::Workload;

  void Setup(Tracer* tr) override {
    Generate(tr, 8000, /*indexes=*/true);
    qp_ = std::make_unique<QueryProcessor>(&db_, kPlanCacheCapacity);
    ServiceOptions options;
    options.max_concurrency = 1;
    service_ = std::make_unique<QueryService>(qp_.get(), options);
  }

  void Oracle() override {
    oracle_ = std::make_unique<LookupOracle>(db_);
    stream_ = std::make_unique<LookupStream>(
        oracle_->students(), DeriveSeed(opt_.seed, kKeyStream));
  }

  void Measure(Tracer* tr) override {
    ClosedLoop(tr, [&](Tracer* t, uint64_t i) {
      auto [tpl, s] = stream_->Next();
      const std::string text = LookupOracle::Text(tpl, s);
      if (texts_.size() < kAttributions) texts_.push_back(text);
      uint64_t start = NowNs();
      Result<ServiceReply> reply = Status::Internal("not run");
      {
        ScopedSpan span(t, "service.submit", i);
        reply = service_->Run(text);
      }
      double ms = MsSince(start);
      (t != nullptr ? r_.traced_read_ms : r_.read_ms).push_back(ms);
      bool ok = reply.ok() && oracle_->Check(tpl, s, reply->execution.answer);
      r_.ok.Record(ok);
      if (ok) {
        r_.exec_ms.push_back(
            static_cast<double>(RootOperatorNs(reply->execution.stats)) / 1e6);
        Counters c;
        c.Add(reply->execution);
        CountOp(c);
      }
    });
  }

  size_t CounterPrefix() const override { return 2000; }
  size_t WarmupOps() const override { return 1000; }

  std::vector<std::string> AttributionTexts() const override { return texts_; }
  QueryService* service() override { return service_.get(); }

 private:
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<LookupOracle> oracle_;
  std::unique_ptr<LookupStream> stream_;
  std::vector<std::string> texts_;
};

// integrity-ingest: commits beside constraint checks on one storage
// layer; every check is re-lowered because each commit moves the catalog.
class IntegrityIngest : public Workload {
 public:
  using Workload::Workload;

  void Setup(Tracer* tr) override {
    Generate(tr, 2000, /*indexes=*/true);
    qp_ = std::make_unique<QueryProcessor>(&db_);
    ScopedSpan span(tr, "core.prepare_statements");
    for (const char* c : kConstraints) Must(qp_->Prepare(c), "prepare");
  }

  /// Replays one cycle with the nested-loop interpreter as the judge:
  /// the verdicts every commit's checks must reproduce. The replay takes
  /// seconds, so an untraced run makes it once and hands the verdicts on.
  void Oracle() override {
    committer_ = std::make_unique<Committer>(&db_);
    const std::vector<int> plan =
        ViolationPlan(kCommitsPerCycle, kViolationKinds,
                      DeriveSeed(opt_.seed, kViolationStream));
    for (size_t i = 0; i < kCommitsPerCycle; ++i) {
      batches_.push_back(MakeBatch(opt_.seed, i, plan[i]));
    }
    if (!opt_.expectations.empty()) {
      if (opt_.expectations.size() != kCommitsPerCycle * kNumConstraints) {
        Fail("malformed constraint verdicts");
      }
      for (size_t i = 0; i < kCommitsPerCycle; ++i) {
        std::vector<bool> verdicts;
        for (size_t c = 0; c < kNumConstraints; ++c) {
          verdicts.push_back(
              opt_.expectations[i * kNumConstraints + c] == '1');
        }
        expected_.push_back(verdicts);
      }
      return;
    }
    std::vector<Query> checks;
    for (const char* c : kConstraints) {
      checks.push_back(Must(ParseQuery(c), "parse constraint"));
    }
    for (size_t i = 0; i < kCommitsPerCycle; ++i) {
      CommitTiming unused;
      committer_->Apply(batches_[i], nullptr, 0, &unused);
      std::vector<bool> verdicts;
      bool violated = false;
      for (const Query& q : checks) {
        verdicts.push_back(Must(Reference(db_, q), "reference").truth);
        violated = violated || !verdicts.back();
      }
      if (violated != batches_[i].violating) {
        Fail("seeded batch " + std::to_string(i) +
             " does not break exactly when it should");
      }
      expected_.push_back(verdicts);
      if (violated) {
        committer_->Rollback(nullptr, 0, &unused);
      } else {
        committer_->Accept(batches_[i]);
      }
    }
    committer_->Restore();
  }

  void Measure(Tracer* tr) override {
    ClosedLoop(tr, [&](Tracer* t, uint64_t i) {
      const size_t slot = i % kCommitsPerCycle;
      const Batch& batch = batches_[slot];
      std::vector<size_t> sizes;
      for (const char* name : kWritten) {
        sizes.push_back(Must(db_.Get(name), "get")->size());
      }
      ScopedSpan op(t, "op", i);
      CommitTiming timing;
      committer_->Apply(batch, t, i, &timing);
      bool violated = false;
      Counters commit_counters;
      bool checks_ok = true;
      for (size_t c = 0; c < kNumConstraints; ++c) {
        uint64_t start = NowNs();
        Result<Execution> run = Check(t, i, kConstraints[c]);
        double ms = MsSince(start);
        (t != nullptr ? r_.traced_read_ms : r_.read_ms).push_back(ms);
        bool ok = run.ok() && run->answer.closed &&
                  run->answer.truth == expected_[slot][c];
        r_.ok.Record(ok);
        checks_ok = checks_ok && ok;
        if (run.ok()) {
          violated = violated || !run->answer.truth;
          commit_counters.Add(*run);
          r_.exec_ms.push_back(
              static_cast<double>(RootOperatorNs(run->stats)) / 1e6);
        }
      }
      bool commit_ok = violated == batch.violating;
      if (violated) {
        committer_->Rollback(t, i, &timing);
        for (size_t k = 0; k < kNumWritten; ++k) {
          commit_ok = commit_ok &&
                      Must(db_.Get(kWritten[k]), "get")->size() == sizes[k];
        }
      } else {
        committer_->Accept(batch);
      }
      r_.ok.Record(commit_ok);
      r_.commits.push_back(timing);
      if (checks_ok && commit_ok) CountOp(commit_counters);
      if (slot + 1 == kCommitsPerCycle) committer_->Restore();
    });
  }

  std::vector<std::string> AttributionTexts() const override {
    return {std::begin(kConstraints), std::end(kConstraints)};
  }
  bool shares_expectations() const override { return true; }
  void Reset() override { committer_->Restore(); }
  size_t CounterPrefix() const override { return kCommitsPerCycle; }
  /// A slice is whole cycles, so every slice does the same work.
  size_t SliceOps() const override { return kCommitsPerCycle; }

  std::string Expectations() const override {
    std::string out;
    for (const std::vector<bool>& verdicts : expected_) {
      for (bool v : verdicts) out += v ? '1' : '0';
    }
    return out;
  }

 private:
  /// A constraint check: Run untraced, Prepare + Execute traced.
  Result<Execution> Check(Tracer* t, uint64_t req, const char* text) {
    if (t == nullptr) return qp_->Run(text);
    Result<PreparedQueryPtr> prepared = Status::Internal("not run");
    {
      ScopedSpan s(t, "core.prepare", req);
      prepared = qp_->Prepare(text);
    }
    if (!prepared.ok()) return prepared.status();
    ScopedSpan s(t, "core.execute", req);
    return qp_->Execute(*prepared);
  }

  std::unique_ptr<Committer> committer_;
  std::vector<Batch> batches_;
  std::vector<std::vector<bool>> expected_;
};

// service-mixed: an open-loop interactive lookup stream beside closed-loop
// two-thread analytic passes, on one shared service.
class ServiceMixed : public Workload {
 public:
  using Workload::Workload;

  void Setup(Tracer* tr) override {
    Generate(tr, 8000, /*indexes=*/true);
    qp_ = std::make_unique<QueryProcessor>(&db_, kPlanCacheCapacity);
    ServiceOptions options;
    options.max_concurrency = 2;
    service_ = std::make_unique<QueryService>(qp_.get(), options);
    ScopedSpan span(tr, "core.prepare_statements");
    for (const Shape& s : kShapes) Must(qp_->Prepare(s.text), "prepare");
  }

  void Oracle() override {
    pass_.ComputeExpected(db_);
    oracle_ = std::make_unique<LookupOracle>(db_);
    LookupStream stream(oracle_->students(), DeriveSeed(opt_.seed, kKeyStream));
    schedule_ = PoissonSchedule(kInteractiveRate, opt_.seconds,
                                DeriveSeed(opt_.seed, kArrivalStream));
    for (size_t j = 0; j < schedule_.size(); ++j) keys_.push_back(stream.Next());
  }

  void Measure(Tracer* tr) override {
    // The interactive client gets the quickest CPU to itself, so that a
    // request never waits for one; the batch client and the pool workers
    // it starts (on the first pass) share the next two.
    const std::vector<int> cpus = CpusQuickestFirst();
    PinTo({cpus[1 % cpus.size()], cpus[2 % cpus.size()]});
    PlanCacheStats cache0 = qp_->cache_stats();
    PrepareCounters prep0 = qp_->prepare_counters();
    double cpu0 = CpuSeconds();
    const uint64_t start = NowNs() + 1000000;  // first arrival 1 ms out
    const uint64_t end = start + static_cast<uint64_t>(opt_.seconds * 1e9);
    std::vector<double> interactive_ms, traced_ms, late_ms;
    std::vector<char> interactive_ok(schedule_.size(), 0);
    double spin_cpu_s = 0;
    std::thread interactive([&] {
      PinTo({cpus[0]});
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not 50 µs late
      for (size_t j = 0; j < schedule_.size(); ++j) {
        const uint64_t due = start + schedule_[j];
        const auto [tpl, s] = keys_[j];
        const std::string text = LookupOracle::Text(tpl, s);
        // Sleep to within kSpinNs of the due time, then spin: waking a
        // sleeping thread on a virtual CPU can take a millisecond or more,
        // which would be charged to the request. The spin's CPU time is
        // left out of cpu_s.
        while (NowNs() + kSpinNs < due) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - kSpinNs - NowNs()));
        }
        const double spin_start = ThreadCpuSeconds();
        while (NowNs() < due) {
        }
        spin_cpu_s += ThreadCpuSeconds() - spin_start;
        late_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
        Tracer* t = tr != nullptr && j % 2 == 1 ? tr : nullptr;
        ServiceRequest request;
        request.text = text;
        request.priority = Priority::kInteractive;
        Result<ServiceReply> reply = Status::Internal("not run");
        {
          ScopedSpan span(t, "service.submit", j);
          reply = service_->Submit(request);
        }
        (t != nullptr ? traced_ms : interactive_ms)
            .push_back(static_cast<double>(NowNs() - due) / 1e6);
        interactive_ok[j] =
            reply.ok() && oracle_->Check(tpl, s, reply->execution.answer);
      }
    });
    uint64_t batch_end = start;
    for (uint64_t i = 0; NowNs() < end || r_.counters.ops < CounterPrefix();
         ++i) {
      Tracer* t = tr != nullptr && i % 2 == 1 ? tr : nullptr;
      const uint64_t req = (1ull << 32) + i;
      std::vector<Result<ServiceReply>> replies(kNumShapes,
                                                Status::Internal("not run"));
      {
        ScopedSpan op(t, "op", req);
        for (size_t k = 0; k < kNumShapes; ++k) {
          ServiceRequest request;
          request.text = kShapes[k].text;
          request.priority = Priority::kBatch;
          request.options.num_threads = 2;
          ScopedSpan span(t, "service.submit", req);
          replies[k] = service_->Submit(request);
        }
      }
      batch_end = NowNs();
      ++r_.closed_ops;
      const Execution* execs[kNumShapes];
      uint64_t engine_ns = 0;
      for (size_t k = 0; k < kNumShapes; ++k) {
        execs[k] = replies[k].ok() ? &replies[k]->execution : nullptr;
        if (execs[k] != nullptr) engine_ns += RootOperatorNs(execs[k]->stats);
      }
      r_.exec_ms.push_back(static_cast<double>(engine_ns) / 1e6);
      Counters pass;
      bool ok = pass_.Check(execs, &pass);
      r_.ok.Record(ok);
      if (ok) CountOp(pass);
      if (NowNs() - start > kMaxWindowFactor * (end - start)) break;
    }
    interactive.join();
    const double window_s = static_cast<double>(batch_end - start) / 1e9;
    const double cpu_s = CpuSeconds() - cpu0 - spin_cpu_s;
    RecordCacheDelta(cache0, prep0);
    // The window is one slice: the interactive stream gives it about
    // opt_.seconds * kInteractiveRate reads.
    r_.slices.push_back(
        MakeSlice(r_.closed_ops, window_s, cpu_s, interactive_ms));
    r_.read_ms = std::move(interactive_ms);
    r_.traced_read_ms = std::move(traced_ms);
    r_.late_ms = std::move(late_ms);
    for (char ok : interactive_ok) r_.ok.Record(ok != 0);
  }

  size_t CounterPrefix() const override { return 3; }
  /// The interactive client, the batch client and a pool worker; Measure()
  /// gives each its own.
  size_t PlacedCpus() const override { return 3; }

  std::vector<std::string> AttributionTexts() const override {
    std::vector<std::string> texts;
    for (size_t j = 0; j < keys_.size() && j < kAttributions; ++j) {
      texts.push_back(LookupOracle::Text(keys_[j].first, keys_[j].second));
    }
    return texts;
  }
  QueryService* service() override { return service_.get(); }

 private:
  std::unique_ptr<QueryService> service_;
  ShapePass pass_;
  std::unique_ptr<LookupOracle> oracle_;
  std::vector<uint64_t> schedule_;
  std::vector<std::pair<size_t, size_t>> keys_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "lookup-zipf") {
    return std::make_unique<LookupZipf>(options);
  }
  if (options.workload == "integrity-ingest") {
    return std::make_unique<IntegrityIngest>(options);
  }
  if (options.workload == "service-mixed") {
    return std::make_unique<ServiceMixed>(options);
  }
  return nullptr;
}

// --- probes of the traced run ------------------------------------------------

struct ProbeResult {
  bool ok = true;
  double exec_ms[kNumShapes] = {}, exec_scanned[kNumShapes] = {};
  double nl_ms[kNumShapes] = {}, nl_scanned[kNumShapes] = {};
  double serial_pass_ms = 0, t2_pass_ms = 0;
};

/// The per-shape yardstick on the workload's database: bry against the
/// Figure 1 nested loop, and a serial pass against a two-thread pass.
ProbeResult ShapeProbe(const Database& db, Tracer* tr) {
  ProbeResult out;
  QueryProcessor qp(&db);
  PreparedQueryPtr prepared[kNumShapes];
  Query parsed[kNumShapes];
  for (size_t k = 0; k < kNumShapes; ++k) {
    prepared[k] = Must(qp.Prepare(kShapes[k].text), "prepare");
    parsed[k] = Must(ParseQuery(kShapes[k].text), "parse");
  }
  for (size_t k = 0; k < kNumShapes; ++k) {
    std::vector<double> bry_ms, nl_ms;
    const std::string exec_span = std::string("exec.") + kShapes[k].name;
    const std::string nl_span = std::string("nestedloop.") + kShapes[k].name;
    for (size_t rep = 0; rep < kProbeReps; ++rep) {
      uint64_t t0 = NowNs();
      Result<Execution> run = Status::Internal("not run");
      {
        ScopedSpan span(tr, exec_span.c_str(), rep);
        run = qp.Execute(prepared[k]);
      }
      bry_ms.push_back(MsSince(t0));
      ExecStats nl_stats;
      uint64_t t1 = NowNs();
      Answer reference;
      {
        ScopedSpan span(tr, nl_span.c_str(), rep);
        reference = Must(Reference(db, parsed[k], &nl_stats), "reference");
      }
      nl_ms.push_back(MsSince(t1));
      if (!run.ok() || !SameAnswer(run->answer, reference)) {
        out.ok = false;
        continue;
      }
      out.exec_scanned[k] = static_cast<double>(run->stats.tuples_scanned);
      out.nl_scanned[k] = static_cast<double>(nl_stats.tuples_scanned);
    }
    out.exec_ms[k] = Median(bry_ms);
    out.nl_ms[k] = Median(nl_ms);
  }
  std::vector<double> serial, t2;
  for (size_t rep = 0; rep < kProbeReps; ++rep) {
    for (size_t threads : {size_t{0}, size_t{2}}) {
      QueryOptions options;
      options.num_threads = threads;
      uint64_t t0 = NowNs();
      {
        ScopedSpan span(tr, threads == 0 ? "parallel.serial_pass"
                                         : "parallel.t2_pass",
                        rep);
        for (size_t k = 0; k < kNumShapes; ++k) {
          Result<Execution> run = qp.Execute(prepared[k], options);
          out.ok = out.ok && run.ok();
        }
      }
      (threads == 0 ? serial : t2).push_back(MsSince(t0));
    }
  }
  out.serial_pass_ms = Median(serial);
  out.t2_pass_ms = Median(t2);
  return out;
}

struct Attribution {
  std::vector<double> steps;
  std::vector<double> service_overhead_us;
};

/// Front-end attribution: each phase called directly on the workload's
/// texts, so its cost is read apart from the others. Service workloads
/// also get a cold Prepare/Execute split and Submit-vs-Run pairs on the
/// idle service.
Attribution Attribute(Workload& w, Tracer* tr) {
  Attribution out;
  const std::vector<std::string> texts = w.AttributionTexts();
  const Database& db = w.db();
  QueryService* service = w.service();
  for (size_t n = 0; n < kAttributions && !texts.empty(); ++n) {
    const std::string& text = texts[n % texts.size()];
    const uint64_t req = (2ull << 32) + n;
    Query query;
    {
      ScopedSpan span(tr, "calculus.parse", req);
      query = Must(ParseQuery(text), "parse");
    }
    NormalizeResult norm;
    {
      ScopedSpan span(tr, "rewrite.normalize", req);
      norm = Must(NormalizeQuery(query, {}), "normalize");
    }
    out.steps.push_back(static_cast<double>(norm.steps()));
    ExprPtr plan;
    {
      ScopedSpan span(tr, "translate.translate", req);
      Translator translator(&db);
      plan = query.closed()
                 ? Must(translator.TranslateClosed(norm.formula), "translate")
                 : Must(translator.TranslateOpen(
                            Query{query.targets, norm.formula}),
                        "translate")
                       .expr;
      plan = Must(SimplifyPlan(plan, db), "simplify");
    }
    {
      ScopedSpan span(tr, "exec.lower", req);
      Must(LowerPlan(db, w.qp().exec_options(), plan), "lower");
    }
    if (service == nullptr) continue;
    QueryOptions cold;
    cold.bypass_plan_cache = true;
    PreparedQueryPtr prepared;
    {
      ScopedSpan span(tr, "core.prepare", req);
      prepared = Must(w.qp().Prepare(text, Strategy::kBry, cold), "prepare");
    }
    {
      ScopedSpan span(tr, "core.execute", req);
      Must(w.qp().Execute(prepared), "execute");
    }
    Must(w.qp().Run(text), "warm run");
    uint64_t t0 = NowNs();
    Must(w.qp().Run(text), "run");
    uint64_t t1 = NowNs();
    Must(service->Run(text), "submit");
    uint64_t t2 = NowNs();
    out.service_overhead_us.push_back(
        (static_cast<double>(t2 - t1) - static_cast<double>(t1 - t0)) / 1e3);
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) Fail("cannot write spans to " + path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
}

// --- reports ---------------------------------------------------------------------

double Frac(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// What one measuring process hands its parent.
struct ProcessReport {
  double setup_s = 0, db_mb = 0, peak_rss_mb = 0;
  size_t closed_ops = 0, attempted = 0, failed = 0;
  Counters counters;
  std::vector<Slice> slices;
  std::string expectations;
};

std::string Serialize(const ProcessReport& p) {
  std::ostringstream out;
  auto num = [&](double v) { out << FormatNumber(v) << ' '; };
  for (double v : {p.setup_s, p.db_mb, p.peak_rss_mb}) num(v);
  out << p.closed_ops << ' ' << p.attempted << ' ' << p.failed << ' '
      << p.counters.ops << ' ';
  const Counters& c = p.counters;
  for (double v : {c.scanned, c.comparisons, c.probes, c.materialized,
                   c.answers, c.segments, c.pruned}) {
    num(v);
  }
  out << p.slices.size() << ' ';
  for (const Slice& s : p.slices) {
    out << s.ops << ' ' << s.reads << ' ';
    for (double v : {s.wall_s, s.cpu_s, s.p50_ms, s.p95_ms}) num(v);
  }
  out << (p.expectations.empty() ? "-" : p.expectations);
  return out.str();
}

ProcessReport Deserialize(const std::string& text) {
  std::istringstream in(text);
  ProcessReport p;
  Counters& c = p.counters;
  in >> p.setup_s >> p.db_mb >> p.peak_rss_mb >> p.closed_ops >> p.attempted >> p.failed >> c.ops >>
      c.scanned >> c.comparisons >> c.probes >> c.materialized >>
      c.answers >> c.segments >> c.pruned;
  size_t n = 0;
  in >> n;
  p.slices.resize(n);
  for (Slice& s : p.slices) {
    in >> s.ops >> s.reads >> s.wall_s >> s.cpu_s >> s.p50_ms >> s.p95_ms;
  }
  in >> p.expectations;
  if (p.expectations == "-") p.expectations.clear();
  if (!in) Fail("malformed report from a measuring process");
  return p;
}

/// End-to-end metrics over every process of the run. Timings are read at
/// the quiet end of all the run's slices (QuietValue): set-up times, read
/// percentiles, closed-loop rates and CPU per op. Memory is the median
/// over the measuring processes.
Metrics EndToEnd(const std::vector<ProcessReport>& reports) {
  std::vector<double> setup, db_mb, peak, p50, p95, rate, cpu_per_op;
  double attempted = 0, failed = 0;
  size_t thin = 0;
  for (const ProcessReport& p : reports) {
    setup.push_back(p.setup_s);
    if (p.closed_ops == 0) continue;  // a set-up-only sample
    db_mb.push_back(p.db_mb);
    peak.push_back(p.peak_rss_mb);
    for (const Slice& s : p.slices) {
      p50.push_back(s.p50_ms);
      p95.push_back(s.p95_ms);
      rate.push_back(s.ops_per_s());
      cpu_per_op.push_back(s.cpu_ms_per_op());
      if (!SupportsPercentile(s.reads, kTailQuantile)) ++thin;
    }
    attempted += static_cast<double>(p.attempted);
    failed += static_cast<double>(p.failed);
  }
  Metrics m;
  m["setup_s"] = {QuietValue(setup, true), "s"};
  m["p50_ms"] = {QuietValue(p50, true), "ms"};
  m["p95_ms"] = {QuietValue(p95, true), "ms"};
  m["ops_per_s"] = {QuietValue(rate, false), "1/s"};
  m["cpu_ms_per_op"] = {QuietValue(cpu_per_op, true), "ms"};
  m["ok_frac"] = {Frac(attempted - failed, attempted), "frac"};
  m["peak_rss_mb"] = {Median(peak), "MB"};
  m["db_mb"] = {Median(db_mb), "MB"};
  std::cerr << "yardstick: " << p50.size() << " slices";
  if (thin != 0) std::cerr << ", " << thin << " with too few reads for p95";
  std::cerr << "\n";
  return m;
}

Metrics PerLayer(Workload& w, const std::vector<Span>& spans,
                 const ProbeResult& probe, const Attribution& attr,
                 double db_mb) {
  const Results& r = w.results();
  std::map<std::string, std::vector<double>> self_us = SelfTimesByName(spans);
  auto span_us = [&](const std::string& name) {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : Median(it->second);
  };
  Metrics m;
  m["storage.generate_ms"] = {span_us("storage.generate") / 1e3, "ms"};
  m["storage.index_build_ms"] = {span_us("storage.index_build") / 1e3, "ms"};
  m["storage.columnar_build_ms"] = {span_us("storage.columnar_build") / 1e3,
                                    "ms"};
  std::vector<double> commit, copy, put, insert_per_row;
  for (const CommitTiming& c : r.commits) {
    commit.push_back(c.total_ms());
    copy.push_back(c.copy_ms);
    put.push_back(c.put_ms);
    insert_per_row.push_back(
        Frac(c.insert_ms * 1e3, static_cast<double>(c.rows)));
  }
  m["storage.commit_p50_ms"] = {Median(commit), "ms"};
  m["storage.commit_p95_ms"] = {Percentile(commit, kTailQuantile), "ms"};
  m["storage.copy_ms"] = {Median(copy), "ms"};
  m["storage.put_ms"] = {Median(put), "ms"};
  m["storage.insert_us_per_row"] = {Median(insert_per_row), "us"};
  m["storage.bytes_per_row"] = {
      Frac(db_mb * 1024 * 1024, static_cast<double>(w.db().TotalTuples())),
      "B"};

  const Counters& c = r.counters;
  const double ops = static_cast<double>(c.ops);
  m["columnar.segments_per_op"] = {Frac(c.segments, ops), "count"};
  m["columnar.pruned_frac"] = {Frac(c.pruned, c.segments + c.pruned), "frac"};
  m["exec.scanned_per_op"] = {Frac(c.scanned, ops), "count"};
  m["exec.comparisons_per_op"] = {Frac(c.comparisons, ops), "count"};
  m["exec.probes_per_op"] = {Frac(c.probes, ops), "count"};
  m["exec.materialized_per_op"] = {Frac(c.materialized, ops), "count"};
  m["exec.scanned_per_answer"] = {Frac(c.scanned, std::max(c.answers, 1.0)),
                                  "count"};
  m["exec.execute_ms"] = {Median(r.exec_ms), "ms"};

  m["calculus.parse_us"] = {span_us("calculus.parse"), "us"};
  m["rewrite.normalize_us"] = {span_us("rewrite.normalize"), "us"};
  m["rewrite.steps_per_query"] = {Median(attr.steps), "count"};
  m["translate.translate_us"] = {span_us("translate.translate"), "us"};
  m["lowering.lower_us"] = {span_us("exec.lower"), "us"};
  m["core.prepare_us"] = {span_us("core.prepare"), "us"};
  m["core.execute_us"] = {span_us("core.execute"), "us"};
  const double lookups =
      static_cast<double>(r.cache_delta.hits + r.cache_delta.misses);
  const double closed = static_cast<double>(r.closed_ops);
  m["core.plan_cache_hit_frac"] = {
      Frac(static_cast<double>(r.cache_delta.hits), lookups), "frac"};
  m["core.evictions_per_op"] = {
      Frac(static_cast<double>(r.cache_delta.evictions), closed), "count"};
  m["core.lowerings_per_op"] = {
      Frac(static_cast<double>(r.prepare_delta.lowerings), closed), "count"};
  m["core.parses_per_op"] = {
      Frac(static_cast<double>(r.prepare_delta.parses), closed), "count"};

  for (size_t k = 0; k < kNumShapes; ++k) {
    const std::string name = kShapes[k].name;
    m["exec." + name + "_ms"] = {probe.exec_ms[k], "ms"};
    m["exec." + name + ".scanned"] = {probe.exec_scanned[k], "count"};
    m["nestedloop." + name + "_ms"] = {probe.nl_ms[k], "ms"};
    m["nestedloop." + name + ".scanned"] = {probe.nl_scanned[k], "count"};
  }
  m["parallel.serial_pass_ms"] = {probe.serial_pass_ms, "ms"};
  m["parallel.t2_pass_ms"] = {probe.t2_pass_ms, "ms"};
  m["parallel.speedup"] = {Frac(probe.serial_pass_ms, probe.t2_pass_ms), "x"};

  ServiceStats s;
  if (w.service() != nullptr) s = w.service()->stats();
  m["service.overhead_us"] = {Median(attr.service_overhead_us), "us"};
  m["service.peak_running"] = {static_cast<double>(s.peak_running), "count"};
  m["service.peak_waiting"] = {static_cast<double>(s.peak_waiting), "count"};
  m["service.rejected"] = {
      static_cast<double>(s.rejected_queue_full + s.rejected_deadline),
      "count"};
  m["service.retries"] = {static_cast<double>(s.retries), "count"};
  m["service.degraded"] = {
      static_cast<double>(s.degraded_serial + s.overload_degraded), "count"};

  m["bench.sched_late_p95_ms"] = {Percentile(r.late_ms, kTailQuantile), "ms"};
  m["bench.trace_overhead_frac"] = {
      Frac(Median(r.traced_read_ms), Median(r.read_ms)) - 1.0, "frac"};
  m["lat.p99_ms"] = {Percentile(r.read_ms, 0.99), "ms"};
  return m;
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--spans") {
      options.spans_path = value();
    } else {
      Fail("unknown argument " + arg);
    }
  }
  if (options.seconds <= 0) Fail("--seconds must be positive");
  return options;
}

/// Set-up, and unless `setup_only` the whole untraced measurement, in
/// the calling process.
ProcessReport MeasureProcess(const Options& options, bool setup_only) {
  const uint64_t start = NowNs();
  const double rss_start = ProcStatusMb("VmRSS");
  ProcessReport report;
  std::unique_ptr<Workload> w = MakeWorkload(options);
  w->Setup(nullptr);
  report.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  report.db_mb = ProcStatusMb("VmRSS") - rss_start;
  if (setup_only) {
    // Expectations that later processes inherit are derived here, after
    // set-up is timed and apart from every measuring process.
    if (w->shares_expectations() && options.expectations.empty()) {
      w->Oracle();
      report.expectations = w->Expectations();
    }
    return report;
  }
  w->Oracle();
  w->Measure(nullptr);
  Results& r = w->results();
  report.peak_rss_mb = ProcStatusMb("VmHWM");
  report.closed_ops = r.closed_ops;
  report.attempted = r.ok.attempted();
  report.failed = r.ok.failed();
  report.counters = r.counters;
  report.slices = std::move(r.slices);
  return report;
}

/// Runs MeasureProcess in a child process and returns its report. The
/// caller must have no other thread running: fork copies only the caller.
ProcessReport InChild(const Options& options, bool setup_only) {
  int fds[2];
  if (pipe(fds) != 0) Fail("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) Fail("fork failed");
  if (pid == 0) {
    // Die with the parent, so a run stopped from outside leaves nothing.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(5);
    close(fds[0]);
    const std::string text = Serialize(MeasureProcess(options, setup_only));
    size_t written = 0;
    while (written < text.size()) {
      ssize_t n = write(fds[1], text.data() + written, text.size() - written);
      if (n <= 0) _exit(4);
      written += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("a measuring process failed");
  }
  return Deserialize(text);
}

/// The untraced run: kForks measuring processes, each preceded by a
/// set-up-only process, each measuring its share of --seconds.
/// Each process is placed on the CPUs quickest just before it starts; the
/// placement probe runs here, so it leaves nothing in the measuring
/// process's memory.
int RunUntraced(Options options) {
  options.seconds /= kForks;
  const size_t placed = MakeWorkload(options)->PlacedCpus();
  std::vector<ProcessReport> reports;
  for (size_t f = 0; f < kForks; ++f) {
    PinToQuickestCpus(placed);
    reports.push_back(InChild(options, /*setup_only=*/true));
    if (options.expectations.empty()) {
      options.expectations = reports.back().expectations;
    }
    PinToQuickestCpus(placed);
    reports.push_back(InChild(options, /*setup_only=*/false));
  }
  bool drift = false;
  const ProcessReport* first = nullptr;
  for (const ProcessReport& p : reports) {
    std::cerr << "yardstick: process setup_s=" << FormatNumber(p.setup_s);
    for (const Slice& s : p.slices) {
      std::cerr << " | p50_ms=" << FormatNumber(s.p50_ms)
                << " ops_per_s=" << FormatNumber(s.ops_per_s());
    }
    std::cerr << "\n";
    if (p.closed_ops == 0) continue;
    // Processes replay the same seeded op prefix, so on the serial
    // workloads their work counters must agree exactly.
    if (first == nullptr) {
      first = &p;
    } else if (options.workload != "service-mixed" &&
               !(p.counters == first->counters)) {
      drift = true;
    }
  }
  if (drift) std::cerr << "yardstick: work counters drifted\n";
  Metrics metrics = EndToEnd(reports);
  size_t attempted = 0, failed = 0;
  for (const ProcessReport& p : reports) {
    attempted += p.attempted;
    failed += p.failed;
  }
  PrintResult(failed == 0 && !drift, attempted, failed, metrics);
  return 0;
}

/// The traced run: one process, every other op traced, then the layer
/// probes.
int RunTraced(const Options& options) {
  std::unique_ptr<Workload> w = MakeWorkload(options);
  PinToQuickestCpus(w->PlacedCpus());
  const double rss_start = ProcStatusMb("VmRSS");
  Tracer tracer;
  w->Setup(&tracer);
  const double db_mb = ProcStatusMb("VmRSS") - rss_start;
  w->Oracle();
  w->Measure(&tracer);
  Results& r = w->results();
  w->Reset();
  ProbeResult probe = ShapeProbe(w->db(), &tracer);
  Attribution attr = Attribute(*w, &tracer);
  std::vector<Span> spans = tracer.spans();
  Metrics metrics = PerLayer(*w, spans, probe, attr, db_mb);
  if (!options.spans_path.empty()) WriteSpans(options.spans_path, spans);
  PrintResult(r.ok.failed() == 0 && probe.ok, r.ok.attempted(),
              r.ok.failed(), metrics);
  return 0;
}

int Main(int argc, char** argv) {
  StartingCpus();
  Options options = ParseArgs(argc, argv);
  if (MakeWorkload(options) == nullptr) {
    Fail("unknown workload '" + options.workload + "'");
  }
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace
}  // namespace yardstick

int main(int argc, char** argv) { return yardstick::Main(argc, argv); }
