#include "algebra/physical_plan.h"

#include <cmath>

#include "common/str_util.h"

namespace bryql {

const char* JoinVariantName(JoinVariant variant) {
  switch (variant) {
    case JoinVariant::kInner:
      return "inner";
    case JoinVariant::kSemi:
      return "semi";
    case JoinVariant::kAnti:
      return "anti";
    case JoinVariant::kLeftOuter:
      return "left-outer";
    case JoinVariant::kMark:
      return "mark";
  }
  return "?";
}

const char* PhysicalKindName(PhysicalKind kind) {
  switch (kind) {
    case PhysicalKind::kTableScan:
      return "TableScan";
    case PhysicalKind::kLiteralScan:
      return "LiteralScan";
    case PhysicalKind::kIndexScan:
      return "IndexScan";
    case PhysicalKind::kFilter:
      return "Filter";
    case PhysicalKind::kProject:
      return "Project";
    case PhysicalKind::kProduct:
      return "Product";
    case PhysicalKind::kHashJoin:
      return "HashJoin";
    case PhysicalKind::kProbeJoin:
      return "ProbeJoin";
    case PhysicalKind::kDivision:
      return "Division";
    case PhysicalKind::kGroupDivision:
      return "GroupDivision";
    case PhysicalKind::kGroupCount:
      return "GroupCount";
    case PhysicalKind::kUnion:
      return "Union";
    case PhysicalKind::kNonEmpty:
      return "NonEmpty";
    case PhysicalKind::kBoolNot:
      return "BoolNot";
    case PhysicalKind::kBoolAnd:
      return "BoolAnd";
    case PhysicalKind::kBoolOr:
      return "BoolOr";
  }
  return "?";
}

namespace {

std::string KeysToString(const std::vector<JoinKey>& keys) {
  std::string out = "[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(keys[i].left) + "=" + std::to_string(keys[i].right);
  }
  return out + "]";
}

std::string Rounded(double v) {
  if (v >= 100) return std::to_string(static_cast<long long>(std::llround(v)));
  // Keep one decimal for small estimates so selectivities stay visible.
  double r = std::round(v * 10) / 10;
  std::string s = std::to_string(r);
  return s.substr(0, s.find('.') + 2);
}

}  // namespace

std::string PhysicalNode::Label() const {
  std::string out = PhysicalKindName(kind);
  switch (kind) {
    case PhysicalKind::kTableScan:
      out += " " + relation_name;
      if (predicate != nullptr) out += " [" + predicate->ToString() + "]";
      break;
    case PhysicalKind::kLiteralScan:
      out += " (" + std::to_string(literal != nullptr ? literal->size() : 0) +
             " rows inline)";
      break;
    case PhysicalKind::kIndexScan:
      out += " " + relation_name + " [$" + std::to_string(index_column) +
             " = " + index_value.ToString() + "]";
      if (predicate != nullptr) out += " residual " + predicate->ToString();
      break;
    case PhysicalKind::kFilter:
      out += " " + predicate->ToString();
      break;
    case PhysicalKind::kProject: {
      out += " [";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += "$" + std::to_string(columns[i]);
      }
      out += "]";
      break;
    }
    case PhysicalKind::kHashJoin:
      out += "(" + std::string(JoinVariantName(variant)) +
             ", build=" + (build_left ? "left" : "right") +
             ", keys=" + KeysToString(keys);
      if (predicate != nullptr) {
        out += (variant == JoinVariant::kInner ? ", residual " : ", if ") +
               predicate->ToString();
      }
      out += ")";
      break;
    case PhysicalKind::kProbeJoin: {
      // Keys name the stored relation's columns, whichever path probes.
      std::vector<JoinKey> stored = keys;
      if (probe_by_index) stored[0].right = index_column;
      out += "(" + std::string(JoinVariantName(variant)) + ", " +
             relation_name + (probe_by_index ? ", index" : ", contains") +
             ", keys=" + KeysToString(stored) + ")";
      break;
    }
    case PhysicalKind::kGroupDivision:
    case PhysicalKind::kGroupCount:
      out += "(group=" + std::to_string(group_arity) + ")";
      break;
    default:
      break;
  }
  return out;
}

namespace {

void AppendTree(const PhysicalNode& node, std::string* out, int indent) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += node.Label();
  *out += "  (arity=" + std::to_string(node.arity) +
          ", rows~" + Rounded(node.est_rows) +
          ", cost~" + Rounded(node.est_cost) + ")\n";
  for (const PhysicalPlanPtr& child : node.children) {
    AppendTree(*child, out, indent + 1);
  }
}

}  // namespace

std::string PhysicalNode::ToString() const {
  std::string out;
  AppendTree(*this, &out, 0);
  return out;
}

size_t PhysicalNode::Size() const {
  size_t n = 1;
  for (const PhysicalPlanPtr& child : children) n += child->Size();
  return n;
}

}  // namespace bryql
