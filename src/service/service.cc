#include "service/service.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <new>
#include <thread>
#include <utility>

#include "common/thread_pool.h"

namespace bryql {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0,1) from a 64-bit state (53 mantissa bits).
double ToUnit(uint64_t r) {
  return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
}

/// An attempt error the retry loop may act on: injected transience, or an
/// exception the engine barrier (or our backstop) contained — tagged via
/// Status::ContainedException. A plain kInternal is a deterministic bug
/// ("unknown physical kind", a broken invariant): retrying it is noise and
/// relabelling it transient would invite clients to retry forever, so it
/// passes through verbatim.
bool Retryable(const Status& status) {
  return status.IsTransient() || status.IsContainedException();
}

constexpr uint64_t kInitialLatencyEstimateNs = 500 * 1000;  // 0.5ms

/// Queue-occupancy fraction beyond which *new* work starts one rung down
/// the ladder (serial) so the backlog drains faster.
constexpr double kOverloadDegradeThreshold = 0.5;

/// Growth of the retry backoff per attempt.
constexpr double kBackoffMultiplier = 2.0;

}  // namespace

const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kNormal:
      return "normal";
    case Priority::kBatch:
      return "batch";
  }
  return "?";
}

std::string ServiceStats::ToString() const {
  return "submitted=" + std::to_string(submitted) +
         " admitted=" + std::to_string(admitted) +
         " completed=" + std::to_string(completed) +
         " failed=" + std::to_string(failed) +
         " rejected_queue_full=" + std::to_string(rejected_queue_full) +
         " rejected_deadline=" + std::to_string(rejected_deadline) +
         " queue_timeouts=" + std::to_string(queue_timeouts) +
         " retries=" + std::to_string(retries) +
         " transient_failures=" + std::to_string(transient_failures) +
         " degraded_serial=" + std::to_string(degraded_serial) +
         " degraded_cache_bypass=" + std::to_string(degraded_cache_bypass) +
         " degraded_tuple_engine=" + std::to_string(degraded_tuple_engine) +
         " overload_degraded=" + std::to_string(overload_degraded) +
         " peak_running=" + std::to_string(peak_running) +
         " peak_waiting=" + std::to_string(peak_waiting);
}

QueryService::QueryService(const QueryProcessor* processor,
                           ServiceOptions options)
    : processor_(processor),
      options_(options),
      max_concurrency_(options.max_concurrency != 0
                           ? options.max_concurrency
                           : ThreadPool::Shared().size()),
      avg_latency_ns_(kInitialLatencyEstimateNs) {
  if (max_concurrency_ == 0) max_concurrency_ = 1;
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
  if (options_.retry.max_attempts == 0) options_.retry.max_attempts = 1;
}

uint64_t QueryService::RetryAfterMsLocked() const {
  // Expected time for the backlog (everyone waiting, plus one slot's
  // worth of running work) to drain through max_concurrency_ lanes.
  const uint64_t latency =
      avg_latency_ns_.load(std::memory_order_relaxed);
  const uint64_t backlog = waiting_total_ + 1;
  const uint64_t ns =
      latency * ((backlog + max_concurrency_ - 1) / max_concurrency_);
  return std::max<uint64_t>(1, ns / 1000000);
}

QueryService::AdmitResult QueryService::Admit(
    Priority priority, uint64_t ticket, bool has_deadline,
    std::chrono::steady_clock::time_point deadline) {
  const size_t p = static_cast<size_t>(priority);
  std::unique_lock<std::mutex> lock(mutex_);
  AdmitResult result;
  result.occupancy = static_cast<double>(waiting_total_) /
                     static_cast<double>(options_.max_queue_depth);

  // Fast path: a free slot and nobody waiting — seat immediately without
  // queue traffic. Keeps peak_waiting meaning "callers that actually
  // waited" and the fault-free path at two counter bumps.
  if (running_ < max_concurrency_ && waiting_total_ == 0) {
    ++running_;
    peak_running_ = std::max(peak_running_, running_);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    result.admitted = true;
    return result;
  }

  if (waiting_total_ >= options_.max_queue_depth) {
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    result.status = Status::ResourceExhausted(
        "service overloaded: admission queue full (" +
        std::to_string(waiting_total_) +
        " waiting); retry-after-ms=" + std::to_string(RetryAfterMsLocked()));
    return result;
  }

  // Deadline-aware load shedding: a request whose estimated queue wait
  // already exceeds its remaining deadline is doomed — reject now, while
  // retrying elsewhere is still useful, instead of timing it out later.
  if (has_deadline) {
    const auto now = std::chrono::steady_clock::now();
    size_t ahead = running_ >= max_concurrency_
                       ? running_ - max_concurrency_ + 1
                       : 0;
    for (size_t q = 0; q <= p; ++q) ahead += queue_[q].size();
    const auto est_wait = EstimatedQueryLatency() *
                          ((ahead + max_concurrency_ - 1) / max_concurrency_);
    if (now + est_wait >= deadline) {
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      result.status = Status::ResourceExhausted(
          "estimated queue wait exceeds remaining deadline; retry-after-ms=" +
          std::to_string(RetryAfterMsLocked()));
      return result;
    }
  }

  queue_[p].push_back(ticket);
  ++waiting_total_;
  peak_waiting_ = std::max(peak_waiting_, waiting_total_);

  auto my_turn = [&] {
    if (running_ >= max_concurrency_) return false;
    // The head of the most urgent non-empty queue goes first.
    for (size_t q = 0; q < kPriorityLevels; ++q) {
      if (!queue_[q].empty()) return q == p && queue_[q].front() == ticket;
    }
    return false;
  };

  bool seated;
  if (has_deadline) {
    seated = cv_.wait_until(lock, deadline, my_turn);
  } else {
    cv_.wait(lock, my_turn);
    seated = true;
  }
  if (!seated) {
    // Deadline passed while queued: withdraw the ticket.
    auto& q = queue_[p];
    q.erase(std::find(q.begin(), q.end(), ticket));
    --waiting_total_;
    queue_timeouts_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_all();
    result.status =
        Status::DeadlineExceeded("deadline expired while queued for a slot");
    return result;
  }

  queue_[p].pop_front();
  --waiting_total_;
  ++running_;
  peak_running_ = std::max(peak_running_, running_);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  result.admitted = true;
  // Another slot may be free (max_concurrency_ > 1): let the next head
  // re-check instead of waiting for our Release.
  cv_.notify_all();
  return result;
}

void QueryService::Release() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_;
  }
  cv_.notify_all();
}

void QueryService::RecordLatency(std::chrono::nanoseconds elapsed) {
  // EWMA, alpha = 1/8; lossy racy updates are fine for an estimator. The
  // delta must be signed: samples below the current average are the common
  // case (the initial estimate is deliberately pessimistic), and an
  // unsigned `sample - old` would wrap to ~2^61 ns and poison every
  // deadline-aware admission decision from then on.
  const int64_t sample = std::max<int64_t>(1, elapsed.count());
  const int64_t old = static_cast<int64_t>(
      avg_latency_ns_.load(std::memory_order_relaxed));
  const int64_t next = old + (sample - old) / 8;
  avg_latency_ns_.store(static_cast<uint64_t>(std::max<int64_t>(1, next)),
                        std::memory_order_relaxed);
}

Result<Execution> QueryService::RunAttempt(
    const ServiceRequest& request, Strategy strategy,
    const QueryOptions& attempt_options) const {
  // Backstop for throws outside the engine's own operator barrier
  // (parser, rewriter, allocator failures in glue code): the service
  // never lets an exception reach the caller's frame.
  try {
    return processor_->Run(request.text, strategy, attempt_options);
  } catch (const std::bad_alloc&) {
    return Status::ContainedException(
        "query evaluation ran out of memory (bad_alloc)");
  } catch (const std::exception& e) {
    return Status::ContainedException(
        std::string("query evaluation threw: ") + e.what());
  } catch (...) {
    return Status::ContainedException(
        "query evaluation threw a non-standard exception");
  }
}

Result<ServiceReply> QueryService::Submit(const ServiceRequest& request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const bool has_deadline = request.options.deadline.count() > 0;
  const auto deadline = start + request.options.deadline;
  const uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);

  AdmitResult admit = Admit(request.priority, ticket, has_deadline, deadline);
  if (!admit.admitted) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return admit.status;
  }

  // The slot is held by a scope guard, not a bare Release() at the end:
  // the attempt loop's own barrier covers processor_->Run, but a throw
  // anywhere else in this frame (bad_alloc building a Status or copying
  // options under memory pressure) must not leak a concurrency slot —
  // that would wedge co-resident clients forever.
  struct SlotGuard {
    QueryService* service;
    ~SlotGuard() { service->Release(); }
  } slot_guard{this};

  // Overload degradation: when the queue was congested at admission, new
  // work starts one rung down (serial) so the backlog drains faster.
  int base_level = 0;
  if (options_.enable_degradation &&
      admit.occupancy >= kOverloadDegradeThreshold) {
    base_level = 1;
    overload_degraded_.fetch_add(1, std::memory_order_relaxed);
  }

  Result<ServiceReply> outcome =
      Status::Internal("service attempt loop never ran");
  Status last;
  size_t attempts_run = 0;
  for (size_t attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    const int level =
        options_.enable_degradation
            ? std::min(base_level + static_cast<int>(attempt), 3)
            : 0;
    QueryOptions attempt_options = request.options;
    if (has_deadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        last = Status::DeadlineExceeded(
            "deadline expired before attempt " + std::to_string(attempt + 1));
        break;
      }
      attempt_options.deadline = deadline - now;
    }
    if (level >= 1) {
      attempt_options.num_threads = 0;
      degraded_serial_.fetch_add(1, std::memory_order_relaxed);
    }
    if (level >= 2) {
      attempt_options.bypass_plan_cache = true;
      degraded_cache_bypass_.fetch_add(1, std::memory_order_relaxed);
    }
    // The last rung leaves the algebra pipeline altogether: the Figure 1
    // nested loop interprets the calculus tuple at a time and passes no
    // exec.* site, so a fault anywhere in lowering or the batched
    // operators cannot follow it there.
    Strategy strategy = request.strategy;
    if (level >= 3) {
      strategy = Strategy::kNestedLoop;
      degraded_tuple_engine_.fetch_add(1, std::memory_order_relaxed);
    }

    const auto attempt_start = std::chrono::steady_clock::now();
    Result<Execution> run = RunAttempt(request, strategy, attempt_options);
    ++attempts_run;
    if (run.ok()) {
      RecordLatency(std::chrono::steady_clock::now() - attempt_start);
      ServiceReply reply;
      reply.execution = std::move(*run);
      reply.attempts = attempt + 1;
      reply.degradation_level = level;
      outcome = std::move(reply);
      break;
    }
    if (level >= 3 && run.status().code() == StatusCode::kUnsupported) {
      // The nested loop refuses queries outside Definition 2. That
      // refusal says nothing about the request, which the batched rungs
      // accepted: end on their last error, and do not retry a refusal
      // that every further attempt would repeat.
      break;
    }
    last = run.status();
    if (!Retryable(last)) break;
    transient_failures_.fetch_add(1, std::memory_order_relaxed);
    if (attempt + 1 == options_.retry.max_attempts) break;

    // Exponential backoff with seeded jitter. The stream depends only on
    // (seed, ticket, attempt), so a replayed fault schedule sleeps the
    // same way.
    double scale = 1.0;
    for (size_t i = 0; i < attempt; ++i) {
      scale *= kBackoffMultiplier;
    }
    auto backoff = std::chrono::nanoseconds(static_cast<int64_t>(
        static_cast<double>(options_.retry.initial_backoff.count()) * scale));
    backoff = std::min(backoff, options_.retry.max_backoff);
    const double u =
        ToUnit(SplitMix64(options_.seed ^ SplitMix64(ticket) ^ attempt));
    auto sleep = std::chrono::nanoseconds(static_cast<int64_t>(
        static_cast<double>(backoff.count()) *
        (1.0 - options_.retry.jitter * u)));
    if (has_deadline &&
        std::chrono::steady_clock::now() + sleep >= deadline) {
      // No budget left to back off; report the transient failure now.
      break;
    }
    if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
    retries_.fetch_add(1, std::memory_order_relaxed);
  }

  if (outcome.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (Retryable(last)) {
    // The fault class the service is *for*: report one uniform transient
    // verdict ("try again later") carrying the last underlying error, and
    // the attempts that ran (a deadline or a last-rung refusal can end
    // the ladder before max_attempts).
    return Status::Transient("attempts exhausted (" +
                             std::to_string(attempts_run) +
                             "); last error: " + last.ToString());
  }
  return last;
}

Result<ServiceReply> QueryService::Run(const std::string& text,
                                       Strategy strategy,
                                       const QueryOptions& options,
                                       Priority priority) {
  ServiceRequest request;
  request.text = text;
  request.strategy = strategy;
  request.options = options;
  request.priority = priority;
  return Submit(request);
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  s.queue_timeouts = queue_timeouts_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.transient_failures =
      transient_failures_.load(std::memory_order_relaxed);
  s.degraded_serial = degraded_serial_.load(std::memory_order_relaxed);
  s.degraded_cache_bypass =
      degraded_cache_bypass_.load(std::memory_order_relaxed);
  s.degraded_tuple_engine =
      degraded_tuple_engine_.load(std::memory_order_relaxed);
  s.overload_degraded = overload_degraded_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.peak_running = peak_running_;
    s.peak_waiting = peak_waiting_;
  }
  return s;
}

uint64_t RetryAfterMsHint(const Status& status) {
  const std::string& message = status.message();
  const std::string tag = "retry-after-ms=";
  size_t pos = message.find(tag);
  if (pos == std::string::npos) return 0;
  return std::strtoull(message.c_str() + pos + tag.size(), nullptr, 10);
}

}  // namespace bryql
