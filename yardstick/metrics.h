// The harness's own arithmetic, kept free of library types so
// metrics_test.cc can check it in isolation: percentiles and the rule for
// which of them a sample supports, seeded key and arrival generators,
// trace spans with self time, and answer accounting.

#ifndef YARDSTICK_METRICS_H_
#define YARDSTICK_METRICS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <vector>

namespace yardstick {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: derives independent sub-seeds (database, keys, writes,
/// arrivals) from the one workload seed.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- percentiles ------------------------------------------------------

/// Samples needed beyond a reported percentile. A percentile with fewer
/// samples above it is one or two outliers, not a distribution.
constexpr size_t kMinTailSamples = 10;

/// Nearest-rank position (0-based) of quantile `q` among `n` samples.
inline size_t RankOf(size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

/// True when `n` samples leave at least kMinTailSamples above quantile q.
inline bool SupportsPercentile(size_t n, double q) {
  return n > 0 && n - 1 - RankOf(n, q) >= kMinTailSamples;
}

/// Smallest sample count that supports quantile `q`.
inline size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (!SupportsPercentile(n, q)) ++n;
  return n;
}

/// Nearest-rank quantile of unsorted `samples` (copied and sorted).
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[RankOf(samples.size(), q)];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// --- slices ------------------------------------------------------------

/// One stretch of a measured window: its closed-loop ops, the wall and
/// CPU time they took, and its reads and their percentiles.
struct Slice {
  size_t ops = 0;
  double wall_s = 0, cpu_s = 0;
  size_t reads = 0;
  double p50_ms = 0, p95_ms = 0;

  double ops_per_s() const {
    return wall_s == 0 ? 0.0 : static_cast<double>(ops) / wall_s;
  }
  double cpu_ms_per_op() const {
    return ops == 0 ? 0.0 : cpu_s * 1e3 / static_cast<double>(ops);
  }
};

/// A slice of `ops` ops, `wall_s` and `cpu_s` long, whose reads were
/// `reads`.
inline Slice MakeSlice(size_t ops, double wall_s, double cpu_s,
                       const std::vector<double>& reads) {
  Slice s;
  s.ops = ops;
  s.wall_s = wall_s;
  s.cpu_s = cpu_s;
  s.reads = reads.size();
  s.p50_ms = Percentile(reads, 0.5);
  s.p95_ms = Percentile(reads, 0.95);
  return s;
}

/// Where among a run's slices a timing is read: its tenth percentile, on
/// the good side. A shared host slows a CPU for seconds to minutes at a
/// time, by up to 2x, while other tenants use its physical core; that
/// noise only ever adds time. The quiet end of the slices reads the
/// program's own speed, which a slower program shifts with every slice.
constexpr double kQuietQuantile = 0.1;

/// The quiet-end value of per-slice `values`: their kQuietQuantile
/// percentile, counted from the good end.
inline double QuietValue(std::vector<double> values, bool lower_is_better) {
  if (lower_is_better) return Percentile(std::move(values), kQuietQuantile);
  for (double& v : values) v = -v;
  return -Percentile(std::move(values), kQuietQuantile);
}

// --- seeded generators --------------------------------------------------

/// Zipf(s) over ranks 0..n-1 by inverse CDF: rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t Sample(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0, 1)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Which of `commits` commits break a constraint, and how: -1 for a clean
/// commit, else a violation kind below `kinds`. A quarter of the commits
/// break one, at seeded positions, the kinds taken in turn, so that every
/// seed gives the same mix of clean and rejected commits.
inline std::vector<int> ViolationPlan(size_t commits, int kinds,
                                      uint64_t seed) {
  std::vector<size_t> slots(commits);
  std::iota(slots.begin(), slots.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(slots.begin(), slots.end(), rng);
  std::vector<int> plan(commits, -1);
  for (size_t j = 0; j < commits / 4; ++j) {
    plan[slots[j]] = static_cast<int>(j % static_cast<size_t>(kinds));
  }
  return plan;
}

/// The `k` CPUs with the smallest probe times, quickest first (ties by CPU
/// number). `probe_ms[i]` is the probe time measured on CPU `cpus[i]`.
inline std::vector<int> QuickestCpus(const std::vector<int>& cpus,
                                     const std::vector<double>& probe_ms,
                                     size_t k) {
  std::vector<size_t> order(cpus.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return probe_ms[a] < probe_ms[b];
  });
  std::vector<int> out;
  for (size_t i = 0; i < order.size() && i < k; ++i) {
    out.push_back(cpus[order[i]]);
  }
  return out;
}

/// Open-loop arrival schedule: Poisson arrivals at `rate_per_s`, as due
/// offsets in ns from the start of the window, up to `horizon_s`.
inline std::vector<uint64_t> PoissonSchedule(double rate_per_s,
                                             double horizon_s,
                                             uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<uint64_t> due;
  double t = 0;
  while (true) {
    t += gap(rng);
    if (t >= horizon_s) break;
    due.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return due;
}

// --- tracing -------------------------------------------------------------

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the enclosing span in the tracer, or -1 at the root.
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Spans kept in memory for the whole run; written out at the end.
/// Thread-safe: each thread keeps its own stack of open spans.
class Tracer {
 public:
  int64_t Open(const std::string& name, uint64_t request) {
    std::vector<int64_t>& stack = OpenStack();
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : stack.back();
    span.request = request;
    span.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    auto id = static_cast<int64_t>(spans_.size() - 1);
    stack.push_back(id);
    return id;
  }

  void Close(int64_t id) {
    uint64_t end = NowNs();
    std::vector<int64_t>& stack = OpenStack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = end;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  // One stack per thread, shared across tracers; a thread only ever has
  // spans of one tracer open at a time.
  static std::vector<int64_t>& OpenStack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it a no-op, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Self-time samples per span name, in microseconds.
inline std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  std::vector<uint64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  return out;
}

// --- answer accounting ---------------------------------------------------

/// Ops attempted against ops answered correctly. An op that is rejected,
/// fails, or returns a wrong answer is not ok.
class OkCounter {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (ok) ++ok_;
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return attempted_ - ok_; }
  double frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(ok_) /
                                 static_cast<double>(attempted_);
  }

 private:
  size_t attempted_ = 0;
  size_t ok_ = 0;
};

}  // namespace yardstick

#endif  // YARDSTICK_METRICS_H_
