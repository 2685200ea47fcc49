#ifndef BRYQL_STORAGE_ZONE_MAP_H_
#define BRYQL_STORAGE_ZONE_MAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/value.h"

namespace bryql {

/// Rows per zone-map segment. Deliberately equal to kDefaultBatchSize and
/// to the morsel size (exec/physical/parallel.h): one segment is one
/// batch is one morsel, so a parallel worker's claim is always
/// segment-aligned and never splits a segment's zone verdict.
inline constexpr size_t kSegmentRows = 1024;

/// Statistics of one column over one segment of row ids. min/max use the
/// engine's total Value order (kind-first, with the int/double numeric
/// exception), which is exactly the order CompareValues evaluates
/// predicates in, so bound-based pruning is sound for any mix of kinds,
/// the internal ∅/⊥ symbols included.
struct ZoneMap {
  uint32_t count = 0;
  /// Rows holding the ∅ symbol: powers IsNull/IsNotNull pruning.
  uint32_t nulls = 0;
  /// Smallest and largest value in the segment (valid when count > 0).
  Value min;
  Value max;
  /// A NaN double was added. NaN is incomparable under the Value order,
  /// so min/max stop being sound bounds and every verdict over the
  /// column is "maybe" for the segment.
  bool unordered = false;
};

/// Per-column zone maps over a relation's own rows: one ZoneMap per
/// (segment, column), for segments of kSegmentRows consecutive row ids.
/// They hold statistics only, never a row or a value per row, and are
/// kept in lockstep with the rows by Relation::Insert, so segment s
/// covers row ids [s · kSegmentRows, (s + 1) · kSegmentRows). A moved-from
/// ZoneMaps is empty, like the moved-from relation's rows.
class ZoneMaps {
 public:
  explicit ZoneMaps(size_t arity) : arity_(arity) {}

  /// Adds row `id`. The caller (Relation) adds every row once, in id
  /// order from 0, with the relation's arity.
  void Append(size_t id, std::span<const Value> row);

  /// Column `column`'s zone map over segment `seg`, which must hold a
  /// row.
  const ZoneMap& zone(size_t column, size_t seg) const {
    return zones_[seg * arity_ + column];
  }

 private:
  size_t arity_;
  /// Segment-major: segment s's zone maps are zones_[s · arity_, ...).
  std::vector<ZoneMap> zones_;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_ZONE_MAP_H_
