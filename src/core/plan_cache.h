#ifndef BRYQL_CORE_PLAN_CACHE_H_
#define BRYQL_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace bryql {

struct PreparedQuery;
using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// Cache-effectiveness counters.
struct PlanCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;

  std::string ToString() const {
    return "hits=" + std::to_string(hits) +
           " misses=" + std::to_string(misses) +
           " evictions=" + std::to_string(evictions);
  }
};

/// A bounded LRU cache of prepared queries, keyed on the full preparation
/// context (query text + strategy + plan-shaping options — see
/// QueryProcessor::CacheKey). Entries are shared immutable snapshots, so a
/// hit is one map lookup plus a shared_ptr copy. An entry prepared against
/// another catalog version (PreparedQuery::db_version) is stale: Get
/// counts it as a miss, and the caller's Put of the re-prepared query
/// replaces it.
///
/// Thread-safe: a single mutex guards the map and the recency list; the
/// hit/miss/eviction counters are atomics, so stats() never takes the
/// lock and concurrent Get/Put callers never lose an increment. The cache
/// is a lookaside structure — the lock is held for map/list manipulation
/// only, never across preparation work.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The entry under `key` prepared against catalog version
  /// `db_version`, refreshed as most-recently used; null (a miss) when
  /// there is none or it is stale.
  PreparedQueryPtr Get(const std::string& key, uint64_t db_version);

  /// Inserts (or replaces) the entry under `key`, evicting the
  /// least-recently-used entry when over capacity.
  void Put(const std::string& key, PreparedQueryPtr prepared);

  /// Drops every entry (views/options changed; counters are kept).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// A lock-free snapshot of the counters. Concurrent mutators may land
  /// between the three loads; each individual counter is exact.
  PlanCacheStats stats() const {
    PlanCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  using Entry = std::pair<std::string, PreparedQueryPtr>;

  const size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> evictions_{0};
};

}  // namespace bryql

#endif  // BRYQL_CORE_PLAN_CACHE_H_
