#include "storage/zone_map.h"

#include <cmath>

namespace bryql {

namespace {

void UpdateZone(ZoneMap* zone, const Value& v) {
  if (zone->count == 0) {
    zone->min = v;
    zone->max = v;
  } else {
    if (v < zone->min) zone->min = v;
    if (zone->max < v) zone->max = v;
  }
  ++zone->count;
  if (v.is_null()) ++zone->nulls;
  if (v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble())) {
    zone->unordered = true;
  }
}

}  // namespace

void ZoneMaps::Append(size_t id, std::span<const Value> row) {
  if (id % kSegmentRows == 0) zones_.resize(zones_.size() + arity_);
  ZoneMap* segment = zones_.data() + (id / kSegmentRows) * arity_;
  for (size_t c = 0; c < arity_; ++c) UpdateZone(&segment[c], row[c]);
}

}  // namespace bryql
