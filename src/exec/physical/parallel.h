#ifndef BRYQL_EXEC_PHYSICAL_PARALLEL_H_
#define BRYQL_EXEC_PHYSICAL_PARALLEL_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/physical_plan.h"
#include "common/governor.h"
#include "common/result.h"
#include "exec/physical/operator.h"
#include "exec/stats.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace bryql {

/// Rows per morsel claim. Aligned with kDefaultBatchSize so one claim
/// feeds one output batch in the common configuration; small enough that
/// skewed partitions rebalance (a worker that finishes early claims more),
/// large enough that the claim atomic is touched ~once per thousand rows.
inline constexpr size_t kMorselSize = 1024;

/// An atomic dispenser of row ranges over one scan input. Workers claim
/// [begin, end) morsels until the input is exhausted; collectively the
/// claims cover each row exactly once, so parallel scan admissions total
/// exactly the serial count.
class MorselSource {
 public:
  explicit MorselSource(size_t size) : size_(size) {}

  /// Claims the next morsel; false when the input is exhausted.
  bool Claim(size_t* begin, size_t* end) {
    const size_t b = next_.fetch_add(kMorselSize, std::memory_order_relaxed);
    if (b >= size_) return false;
    *begin = b;
    *end = b + kMorselSize < size_ ? b + kMorselSize : size_;
    return true;
  }

  size_t size() const { return size_; }

 private:
  std::atomic<size_t> next_{0};
  size_t size_;
};

/// A globally shared dedup set, sharded 64 ways by tuple hash so
/// concurrent inserts from different workers rarely contend. Sharing the
/// set (instead of deduping per worker) is what keeps parallel
/// materialize-admission totals *exactly* equal to serial: each globally
/// fresh tuple is admitted exactly once, by whichever worker wins the
/// insert. Each shard is a TupleTable set.
class ShardedTupleSet {
 public:
  /// True when `t` was fresh (this call inserted it).
  bool Insert(const Tuple& t) {
    const size_t hash = t.Hash();
    Shard& shard = shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.set.Insert(t.values(), hash);
  }

  /// True when (src[cols[0]], ...) was fresh; hashed in place, as
  /// TupleTable::InsertKey.
  bool InsertKey(const Tuple& src, const std::vector<size_t>& cols) {
    const size_t hash = TupleTable::KeyHash(src, cols);
    Shard& shard = shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.set.InsertKey(src, cols, hash);
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      n += shard.set.size();
    }
    return n;
  }

 private:
  static constexpr size_t kShards = 64;
  static size_t ShardOf(size_t hash) {
    // The table's slots consume the low bits of the mixed hash; take the
    // top bits of the product so the shard choice barely overlaps them.
    return (hash * 0x9e3779b97f4a7c15ULL) >> 58;
  }
  struct Shard {
    mutable std::mutex mutex;
    TupleTable set;
  };
  std::array<Shard, kShards> shards_;
};

/// The shared build side of one parallel hash/complement join: 64
/// key-sharded TupleTables, each a multimap of build rows
/// (kInner/kLeftOuter, partner values kept) or a key set
/// (kSemi/kAnti/kMark, membership only). Built concurrently by the build
/// phase's workers under per-shard locks; after the phase barrier the
/// probe phase reads it lock-free (the fork/join edges of RunOnWorkers
/// provide the happens-before).
class SharedJoinBuild {
 public:
  /// `build_columns` are the join key columns of a build row.
  SharedJoinBuild(bool table_mode, std::vector<size_t> build_columns)
      : build_columns_(std::move(build_columns)) {
    if (table_mode) {
      for (Shard& shard : shards_) shard.rows = TupleTable(build_columns_);
    }
  }

  /// Build phase (locked). Add stores a build row (table mode);
  /// InsertKey stores its key and returns whether the key was fresh.
  void Add(const Tuple& row) {
    const size_t hash = TupleTable::KeyHash(row, build_columns_);
    Shard& shard = shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.rows.Add(row, hash);
  }
  bool InsertKey(const Tuple& row) {
    const size_t hash = TupleTable::KeyHash(row, build_columns_);
    Shard& shard = shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.rows.InsertKey(row, build_columns_, hash);
  }

  /// Probe phase (lock-free; only valid after the build phase barrier):
  /// the shard holding every key whose KeyHash is `hash`.
  const TupleTable& TableFor(size_t hash) const {
    return shards_[ShardOf(hash)].rows;
  }

 private:
  static constexpr size_t kShards = 64;
  static size_t ShardOf(size_t hash) {
    return (hash * 0x9e3779b97f4a7c15ULL) >> 58;
  }
  struct Shard {
    std::mutex mutex;
    TupleTable rows;
  };
  std::vector<size_t> build_columns_;
  std::array<Shard, kShards> shards_;
};

/// The coordinator's registry of everything a parallel pipeline shares,
/// keyed by PhysicalNode identity. Populated single-threaded between
/// phases (PrepareSpine), read concurrently by workers during a phase —
/// the maps themselves are never mutated while workers run.
///
/// PlanRuntime::Build consults this registry (via PhysicalContext::shared)
/// when instantiating a worker's operator tree:
///   * a node in `relations` becomes a borrowed-relation scan (its morsel
///     source, when present, partitions the materialized rows);
///   * a scan node in `morsels` reads from the shared dispenser instead
///     of scanning [0, n) privately;
///   * a join node in `builds` skips its build side entirely and probes
///     the shared table;
///   * a project/union node in `seen_sets` dedups against the global
///     sharded set instead of a private one.
struct ParallelShared {
  std::unordered_map<const PhysicalNode*, std::unique_ptr<MorselSource>>
      morsels;
  std::unordered_map<const PhysicalNode*, std::unique_ptr<Relation>>
      relations;
  std::unordered_map<const PhysicalNode*, std::unique_ptr<SharedJoinBuild>>
      builds;
  std::unordered_map<const PhysicalNode*, std::unique_ptr<ShardedTupleSet>>
      seen_sets;

  MorselSource* FindMorsels(const PhysicalNode* node) const {
    auto it = morsels.find(node);
    return it == morsels.end() ? nullptr : it->second.get();
  }
  const Relation* FindRelation(const PhysicalNode* node) const {
    auto it = relations.find(node);
    return it == relations.end() ? nullptr : it->second.get();
  }
  const SharedJoinBuild* FindBuild(const PhysicalNode* node) const {
    auto it = builds.find(node);
    return it == builds.end() ? nullptr : it->second.get();
  }
  ShardedTupleSet* FindSeen(const PhysicalNode* node) const {
    auto it = seen_sets.find(node);
    return it == seen_sets.end() ? nullptr : it->second.get();
  }
};

/// Morsel-driven parallel plan execution (the num_threads > 0 path).
///
/// The runtime walks the plan's *spine* — the streaming path from the
/// root through filters, projects, unions, product left inputs and join
/// probe inputs down to the scans — and replicates it once per worker.
/// Everything hanging off the spine is shared, computed exactly once:
/// join build sides are drained (themselves in parallel) into a
/// SharedJoinBuild, product right sides and blocking operators
/// (divisions, group count) are materialized by the coordinator, and
/// boolean subtrees evaluate through the same first-witness machinery. Spine scans draw morsels from shared
/// dispensers, dedup operators share sharded seen-sets, and the final
/// merge dedups worker outputs through one more sharded set — order-
/// insensitive, which is sound because relations are sets.
///
/// Budget/status parity with serial execution is a design invariant, not
/// an accident: morsels cover each input row exactly once, shared builds
/// and seen-sets admit each materialization exactly once, and per-worker
/// governor shards reconcile real counts (never estimates) into the
/// phase's SharedBudget — so a budget that trips serially trips in
/// parallel and vice versa, with the same status code. The exception is
/// the first-witness non-emptiness test under a *finite tuple budget*,
/// where "witness found" vs. "budget tripped" is a race by nature; that
/// combination falls back to serial so closed queries stay deterministic.
class ParallelRuntime {
 public:
  /// `num_threads` ≥ 1; the Executor maps num_threads == 0 to the serial
  /// PlanRuntime before ever constructing one of these.
  ParallelRuntime(const Database* db, size_t batch_size, ExecStats* stats,
                  ResourceGovernor* governor, size_t num_threads);

  /// Materializes the plan's full answer, partition-parallel.
  Result<Relation> Run(const PhysicalPlanPtr& plan);

  /// Boolean evaluation with the paper's short-circuits: composites
  /// evaluate sequentially (their children each parallel), non-emptiness
  /// races all workers to the first witness and stops the losers through
  /// the phase's stop flag.
  Result<bool> RunBool(const PhysicalPlanPtr& plan);

 private:
  /// One fork/join phase: every worker instantiates `spine_root` against
  /// the shared registry and runs `consume(worker, op, ctx, budget)`.
  /// Worker stats and the phase's SharedBudget are absorbed into the
  /// run's stats/governor before returning.
  Status RunPhase(
      const PhysicalPlanPtr& spine_root,
      const std::function<Status(size_t, PhysicalOperator*, PhysicalContext&,
                                 SharedBudget*)>& consume);

  /// Recursively prepares the spine under `node`: morsel sources for
  /// scans, parallel drains for join builds, coordinator materialization
  /// for blocking/boolean/product-right subtrees, shared seen-sets for
  /// dedup operators.
  Status PrepareSpine(const PhysicalPlanPtr& node);

  /// Drains `node`'s build side (in parallel) into a SharedJoinBuild.
  Status BuildJoinShared(const PhysicalPlanPtr& node);

  /// Runs `node`'s subtree serially on the coordinator. `counted` drains
  /// with per-tuple materialize admissions (the serial semantics of a
  /// product's right side); uncounted matches blocking operators, whose
  /// outputs serial execution streams without admissions.
  Result<Relation> MaterializeSerial(const PhysicalPlanPtr& node,
                                     bool counted);

  const Database* db_;
  size_t batch_size_;
  ExecStats* stats_;
  ResourceGovernor* governor_;
  size_t workers_;
  ParallelShared shared_;
};

}  // namespace bryql

#endif  // BRYQL_EXEC_PHYSICAL_PARALLEL_H_
