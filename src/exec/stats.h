#ifndef BRYQL_EXEC_STATS_H_
#define BRYQL_EXEC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bryql {

/// Per-physical-operator instrumentation: how many batches and rows one
/// operator instance produced and how long it spent doing so. Collected by
/// the batched runtime (src/exec/physical/runtime) so an EXPLAIN
/// ANALYZE-style report can attribute time to operators instead of one
/// global bucket.
struct OperatorStats {
  /// The operator's physical label, e.g. "HashJoin(anti, build=right, ...)".
  std::string label;
  /// Plan depth of the operator (0 = root), for indented reports.
  size_t depth = 0;
  /// Total NextBatch invocations, including the final empty one.
  size_t batches = 0;
  /// Tuples emitted across all batches.
  size_t rows = 0;
  /// Wall time inside Open(), inclusive of children.
  uint64_t open_ns = 0;
  /// Wall time inside clocked NextBatch() calls, inclusive of children.
  uint64_t next_ns = 0;
  /// NextBatch calls left off the clock: capacity-1 pulls below the plan
  /// root. One clock read costs more than the row such a pull moves, so
  /// their time is counted only in an ancestor's `next_ns` (the root is
  /// always clocked). Still counted in `batches` and `rows`.
  size_t unclocked_batches = 0;
};

/// Instrumentation counters for one or more evaluations. These are the
/// quantities the paper's efficiency arguments are phrased in: how many
/// tuples are read from relations, how many comparisons are performed, and
/// how much intermediate state is materialized.
struct ExecStats {
  /// Tuples read out of base relations (each Scan reads its relation once;
  /// a relation scanned twice counts twice — the paper's "each range
  /// relation is searched only once" property shows up here).
  size_t tuples_scanned = 0;
  /// Tuples inserted into intermediate state: hash tables, dedup sets, and
  /// materialized results.
  size_t tuples_materialized = 0;
  /// Value comparisons performed by predicates and join-key checks.
  size_t comparisons = 0;
  /// Hash-table probes performed by join-family operators. The constrained
  /// outer-join's "do not search U for tuples already found in T" property
  /// (§3.3) shows up here.
  size_t hash_probes = 0;
  /// Operator instances evaluated (iterator openings / physical operator
  /// instantiations).
  size_t operators = 0;
  /// Zone-map segments whose rows a zone-pruned scan evaluated (or
  /// emitted wholesale on an all-match zone verdict).
  size_t segments_scanned = 0;
  /// Zone-map segments skipped entirely by a zone verdict. Budget
  /// accounting still admits their rows (parity with the row path);
  /// pruning saves comparisons, which `comparisons` shows.
  size_t segments_pruned = 0;
  /// Per-operator detail, in plan-instantiation order (root first). Empty
  /// under the tuple-at-a-time engine, which has no per-operator clock.
  std::vector<OperatorStats> operator_stats;

  void Add(const ExecStats& other) {
    tuples_scanned += other.tuples_scanned;
    tuples_materialized += other.tuples_materialized;
    comparisons += other.comparisons;
    hash_probes += other.hash_probes;
    operators += other.operators;
    segments_scanned += other.segments_scanned;
    segments_pruned += other.segments_pruned;
    operator_stats.insert(operator_stats.end(),
                          other.operator_stats.begin(),
                          other.operator_stats.end());
  }

  std::string ToString() const {
    std::string out;
    out += "scanned=" + std::to_string(tuples_scanned);
    out += " materialized=" + std::to_string(tuples_materialized);
    out += " comparisons=" + std::to_string(comparisons);
    out += " probes=" + std::to_string(hash_probes);
    out += " operators=" + std::to_string(operators);
    // Segment counters only appear when a zone-pruned scan ran, keeping
    // the line stable for the (row-only) golden outputs.
    if (segments_scanned != 0 || segments_pruned != 0) {
      out += " segments=" + std::to_string(segments_scanned);
      out += " pruned=" + std::to_string(segments_pruned);
    }
    return out;
  }

  /// EXPLAIN ANALYZE-style multi-line report: the global counters followed
  /// by one line per physical operator with batch/row counters and timing
  /// (times are inclusive of children, like the classic EXPLAIN ANALYZE).
  /// An operator pulled one row at a time below the root adds
  /// "unclocked=N (in parent)": those N pulls' time is in its ancestors'.
  std::string Report() const {
    std::string out = ToString();
    for (const OperatorStats& op : operator_stats) {
      out += "\n";
      out.append(2 + op.depth * 2, ' ');
      out += op.label + "  batches=" + std::to_string(op.batches) +
             " rows=" + std::to_string(op.rows) +
             " open=" + FormatNs(op.open_ns) +
             " next=" + FormatNs(op.next_ns);
      if (op.unclocked_batches != 0) {
        out += " unclocked=" + std::to_string(op.unclocked_batches) +
               " (in parent)";
      }
    }
    return out;
  }

 private:
  static std::string FormatNs(uint64_t ns) {
    if (ns >= 1000000) return std::to_string(ns / 1000000) + "ms";
    if (ns >= 1000) return std::to_string(ns / 1000) + "us";
    return std::to_string(ns) + "ns";
  }
};

}  // namespace bryql

#endif  // BRYQL_EXEC_STATS_H_
