#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/builder.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace bryql {
namespace {

TEST(TupleTest, ConcatAndProject) {
  Tuple a = Ints({1, 2});
  Tuple b = Ints({3});
  Tuple c = a.Concat(b);
  EXPECT_EQ(c.arity(), 3u);
  EXPECT_EQ(c.at(2), Value::Int(3));
  Tuple p = c.Project({2, 0, 0});
  EXPECT_EQ(p, Ints({3, 1, 1}));
}

TEST(TupleTest, EqualityAndOrdering) {
  EXPECT_EQ(Ints({1, 2}), Ints({1, 2}));
  EXPECT_NE(Ints({1, 2}), Ints({2, 1}));
  EXPECT_LT(Ints({1, 2}), Ints({1, 3}));
  EXPECT_LT(Ints({1}), Ints({1, 0}));  // shorter first
}

TEST(TupleTest, HashConsistency) {
  EXPECT_EQ(Ints({1, 2}).Hash(), Ints({1, 2}).Hash());
}

TEST(TupleTest, ToString) {
  EXPECT_EQ(Strs({"a", "b"}).ToString(), "('a', 'b')");
  EXPECT_EQ(Tuple{}.ToString(), "()");
}

TEST(RelationTest, SetSemantics) {
  Relation r(1);
  EXPECT_TRUE(*r.Insert(Ints({1})));
  EXPECT_FALSE(*r.Insert(Ints({1})));  // duplicate collapses
  EXPECT_TRUE(*r.Insert(Ints({2})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Ints({1})));
  EXPECT_FALSE(r.Contains(Ints({3})));
}

TEST(RelationTest, InsertRejectsArityMismatch) {
  Relation r(2);
  auto bad = r.Insert(Ints({1}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.size(), 0u);  // rejected tuple never lands in the row store
  auto also_bad = r.Insert(Ints({1, 2, 3}));
  EXPECT_FALSE(also_bad.ok());
  EXPECT_TRUE(*r.Insert(Ints({1, 2})));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, BuildIndexRejectsOutOfRangeColumn) {
  Relation r(2);
  EXPECT_TRUE(*r.Insert(Ints({1, 2})));
  EXPECT_TRUE(r.BuildIndex(1).ok());
  auto bad = r.BuildIndex(2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, MatchesWithoutIndexIsEmptyNotUB) {
  Relation r(2);
  EXPECT_TRUE(*r.Insert(Ints({1, 2})));
  // No index on column 0: degrade to "no hits" instead of asserting.
  EXPECT_TRUE(r.Matches(0, Value::Int(1)).empty());
}

TEST(RelationTest, FromRowsRejectsMixedArity) {
  auto bad = Relation::FromRows({Ints({1}), Ints({1, 2})});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, FromRowsDeduplicates) {
  auto r = Relation::FromRows({Ints({1}), Ints({1}), Ints({2})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(RelationTest, EqualityIsOrderInsensitive) {
  auto a = Relation::FromRows({Ints({1}), Ints({2})});
  auto b = Relation::FromRows({Ints({2}), Ints({1})});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(RelationTest, InequalityBySizeAndContent) {
  auto a = Relation::FromRows({Ints({1})});
  auto b = Relation::FromRows({Ints({2})});
  auto c = Relation::FromRows({Ints({1}), Ints({2})});
  EXPECT_NE(*a, *b);
  EXPECT_NE(*a, *c);
}

TEST(RelationTest, ArityZeroEncodesBooleans) {
  Relation fals(0);
  Relation tru(0);
  tru.Insert(Tuple{});
  EXPECT_TRUE(fals.empty());
  EXPECT_EQ(tru.size(), 1u);
  EXPECT_FALSE(*tru.Insert(Tuple{}));  // only one empty tuple exists
  EXPECT_FALSE(fals.Contains(Tuple{}));
  EXPECT_TRUE(tru.Contains(Tuple{}));
  EXPECT_FALSE(fals == tru);
  EXPECT_TRUE(fals == Relation(0));
  Relation copy = tru;
  EXPECT_TRUE(copy == tru);
  EXPECT_FALSE(*copy.Insert(Tuple{}));
  EXPECT_EQ(copy.size(), 1u);
}

TEST(RelationTest, SortedRows) {
  auto r = Relation::FromRows({Ints({3}), Ints({1}), Ints({2})});
  std::vector<Tuple> sorted = r->SortedRows();
  EXPECT_EQ(sorted.front(), Ints({1}));
  EXPECT_EQ(sorted.back(), Ints({3}));
}

// --- membership against a linear-scan reference ---------------------

/// Draws values that collide often: Int(k) and Double(k) are one value,
/// NaN equals nothing (so a NaN row never dedups), ∅ and ⊥ equal
/// themselves only.
Value RandomValue(std::mt19937_64& rng, int64_t spread) {
  const int64_t k = static_cast<int64_t>(rng() % spread);
  switch (rng() % 10) {
    case 0:
    case 1:
    case 2:
    case 3:
      return Value::Int(k);
    case 4:
    case 5:
      return Value::Double(static_cast<double>(k));
    case 6:
      return Value::Double(static_cast<double>(k) + 0.5);
    case 7:
      return Value::String("s" + std::to_string(k));
    case 8:
      return rng() % 4 == 0 ? Value::Double(std::nan("")) : Value::Int(-k);
    default:
      return rng() % 2 == 0 ? Value::Null() : Value::Mark();
  }
}

Tuple RandomTuple(std::mt19937_64& rng, size_t arity, int64_t spread) {
  std::vector<Value> values;
  for (size_t i = 0; i < arity; ++i) values.push_back(RandomValue(rng, spread));
  return Tuple(std::move(values));
}

bool ReferenceContains(const std::vector<Tuple>& rows, const Tuple& t) {
  return std::find(rows.begin(), rows.end(), t) != rows.end();
}

/// Same kinds and renderings, so a NaN row matches itself and Int(2)
/// does not pass for Double(2.0).
bool SameRow(const Tuple& a, const Tuple& b) {
  if (a.arity() != b.arity()) return false;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (a.at(i).kind() != b.at(i).kind() ||
        a.at(i).ToString() != b.at(i).ToString()) {
      return false;
    }
  }
  return true;
}

/// Checks `rel` row for row, in insertion order, against `reference`,
/// and every probe's membership against a linear scan.
void ExpectMatchesReference(const Relation& rel,
                            const std::vector<Tuple>& reference,
                            const std::vector<Tuple>& probes) {
  ASSERT_EQ(rel.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(SameRow(rel.rows()[i], reference[i]))
        << i << ": " << rel.rows()[i].ToString() << " vs "
        << reference[i].ToString();
  }
  for (const Tuple& t : reference) {
    EXPECT_EQ(rel.Contains(t), ReferenceContains(reference, t))
        << t.ToString();
  }
  for (const Tuple& t : probes) {
    EXPECT_EQ(rel.Contains(t), ReferenceContains(reference, t))
        << t.ToString();
  }
}

bool IsNan(const Value& v) {
  return v.kind() == ValueKind::kDouble && std::isnan(v.AsDouble());
}

/// Set equality by linear scan: the rows pair one to one, each value
/// equal or both NaN (NaN rows never dedup, so they pair like a
/// multiset).
bool ReferenceEqual(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  std::vector<bool> used(b.size(), false);
  for (const Tuple& t : a) {
    bool paired = false;
    for (size_t j = 0; j < b.size() && !paired; ++j) {
      if (used[j]) continue;
      bool same = true;
      for (size_t i = 0; i < t.arity(); ++i) {
        same = same && (t.at(i) == b[j].at(i) ||
                        (IsNan(t.at(i)) && IsNan(b[j].at(i))));
      }
      used[j] = paired = same;
    }
    if (!paired) return false;
  }
  return true;
}

TEST(RelationMembershipTest, RandomizedAgainstLinearScan) {
  std::mt19937_64 rng(20240917);
  // Sizes straddle the slot table's doublings (8, 16, ... slots at load
  // one half) up to a few thousand rows.
  for (size_t target : {0, 1, 3, 4, 5, 8, 9, 31, 33, 64, 65, 500, 2049, 5000}) {
    SCOPED_TRACE("target " + std::to_string(target));
    const size_t arity = 1 + target % 3;
    const int64_t spread =
        2 + static_cast<int64_t>(std::sqrt(static_cast<double>(target)));
    Relation rel(arity);
    std::vector<Tuple> reference;
    for (size_t attempt = 0; attempt < 2 * target; ++attempt) {
      Tuple t = RandomTuple(rng, arity, spread);
      const bool expected = !ReferenceContains(reference, t);
      Tuple copy = t;
      auto inserted = rel.Insert(std::move(t));
      ASSERT_TRUE(inserted.ok());
      ASSERT_EQ(*inserted, expected) << copy.ToString();
      if (expected) reference.push_back(std::move(copy));
      ASSERT_EQ(rel.size(), reference.size());
    }
    std::vector<Tuple> probes;
    for (size_t i = 0; i < 200; ++i) {
      probes.push_back(RandomTuple(rng, arity, spread + 3));
    }
    ExpectMatchesReference(rel, reference, probes);

    // The same rows in another order: equal exactly when the reference
    // says so (NaN rows pair with NaN rows).
    std::vector<Tuple> shuffled = reference;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    Relation other(arity);
    for (const Tuple& t : shuffled) ASSERT_TRUE(other.Insert(t).ok());
    EXPECT_EQ(rel == other, ReferenceEqual(reference, shuffled));
    EXPECT_EQ(rel == rel, ReferenceEqual(reference, reference));
    if (!reference.empty()) {
      // Drop one row and add a row the relation lacks: never equal.
      Relation different(arity);
      for (size_t i = 1; i < shuffled.size(); ++i) {
        ASSERT_TRUE(different.Insert(shuffled[i]).ok());
      }
      ASSERT_TRUE(different.Insert(Tuple(std::vector<Value>(
                                       arity, Value::String("absent"))))
                      .ok());
      EXPECT_FALSE(rel == different);
    }
  }
}

TEST(RelationMembershipTest, IntAndDoubleCollapseNanNeverDedups) {
  Relation r(1);
  EXPECT_TRUE(*r.Insert(Tuple({Value::Int(2)})));
  EXPECT_FALSE(*r.Insert(Tuple({Value::Double(2.0)})));
  EXPECT_TRUE(r.Contains(Tuple({Value::Double(2.0)})));
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(*r.Insert(Tuple({nan})));
  EXPECT_TRUE(*r.Insert(Tuple({nan})));
  EXPECT_FALSE(r.Contains(Tuple({nan})));
  EXPECT_TRUE(*r.Insert(Tuple({Value::Null()})));
  EXPECT_FALSE(*r.Insert(Tuple({Value::Null()})));
  EXPECT_TRUE(*r.Insert(Tuple({Value::Mark()})));
  EXPECT_FALSE(*r.Insert(Tuple({Value::Mark()})));
  EXPECT_TRUE(r.Contains(Tuple({Value::Mark()})));
  EXPECT_FALSE(r.Contains(Tuple({Value::String("2")})));
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.rows()[0].at(0).kind(), ValueKind::kInt);  // first one kept
}

/// ContainsKey asks Contains of the key (src[cols[0]], ...) without
/// building it: the two agree on every probe, including the Int/Double
/// collapse, NaN (never found), ∅ and ⊥, and a column list of another
/// width than the arity finds nothing.
TEST(RelationMembershipTest, ContainsKeyAgreesWithContainsOnTheBuiltKey) {
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  Relation r(2);
  ASSERT_TRUE(*r.Insert(Tuple({Value::Int(2), Value::String("a")})));
  ASSERT_TRUE(*r.Insert(Tuple({Value::Null(), Value::Mark()})));
  ASSERT_TRUE(*r.Insert(Tuple({nan, Value::String("n")})));
  // Probe rows carry the key in reversed order behind a spare column.
  const std::vector<size_t> cols = {2, 1};
  const Value probes[][2] = {
      {Value::Int(2), Value::String("a")},
      {Value::Double(2.0), Value::String("a")},
      {Value::Int(2), Value::String("b")},
      {Value::Null(), Value::Mark()},
      {Value::Mark(), Value::Null()},
      {nan, Value::String("n")},
  };
  for (const auto& key : probes) {
    const Tuple src({Value::Int(0), key[1], key[0]});
    const Tuple built({key[0], key[1]});
    EXPECT_EQ(r.ContainsKey(src, cols), r.Contains(built))
        << built.ToString();
  }
  EXPECT_TRUE(r.ContainsKey(Tuple({Value::Int(0), Value::String("a"),
                                   Value::Double(2.0)}),
                            cols));
  EXPECT_TRUE(r.ContainsKey(
      Tuple({Value::Int(0), Value::Mark(), Value::Null()}), cols));
  EXPECT_FALSE(r.ContainsKey(
      Tuple({Value::Int(0), Value::String("n"), nan}), cols));
  // Another width than the arity is never a stored row.
  const Tuple wide({Value::Int(2), Value::String("a"), Value::Int(2)});
  EXPECT_FALSE(r.ContainsKey(wide, {0}));
  EXPECT_FALSE(r.ContainsKey(wide, {0, 1, 2}));
  EXPECT_FALSE(r.ContainsKey(wide, {}));
}

TEST(RelationMembershipTest, NanRowsPairInSetEquality) {
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  Relation one(1);
  ASSERT_TRUE(*one.Insert(Tuple({nan})));
  EXPECT_TRUE(one == one);
  const Relation copy = one;
  EXPECT_TRUE(one == copy);
  EXPECT_TRUE(copy == one);

  // Two NaN rows (they never dedup) are not one.
  Relation two = one;
  ASSERT_TRUE(*two.Insert(Tuple({nan})));
  EXPECT_EQ(two.size(), 2u);
  EXPECT_FALSE(one == two);
  EXPECT_FALSE(two == one);
  EXPECT_TRUE(two == Relation(two));

  // NaN equals no other value, in any column.
  Relation number(1);
  ASSERT_TRUE(*number.Insert(Tuple({Value::Double(1.5)})));
  EXPECT_FALSE(one == number);
  EXPECT_FALSE(number == one);
  Relation mixed(2), other(2);
  ASSERT_TRUE(*mixed.Insert(Tuple({Value::Int(1), nan})));
  ASSERT_TRUE(*mixed.Insert(Tuple({Value::Int(2), Value::Int(3)})));
  ASSERT_TRUE(*other.Insert(Tuple({Value::Int(2), Value::Double(3.0)})));
  ASSERT_TRUE(*other.Insert(Tuple({Value::Int(1), nan})));
  EXPECT_TRUE(mixed == other);  // order-insensitive, Int/Double collapse
  Relation shifted(2);
  ASSERT_TRUE(*shifted.Insert(Tuple({Value::Int(2), nan})));
  ASSERT_TRUE(*shifted.Insert(Tuple({Value::Int(2), Value::Int(3)})));
  EXPECT_FALSE(mixed == shifted);
}

TEST(RelationMembershipTest, CopiesAreIndependent) {
  // 4 rows fill 8 slots to one half, so the next insert into either side
  // grows its table; neither may see the other's rows.
  for (size_t size : {0, 4, 5, 1000}) {
    SCOPED_TRACE("size " + std::to_string(size));
    Relation original(2);
    for (size_t i = 0; i < size; ++i) {
      ASSERT_TRUE(*original.Insert(Ints({static_cast<int64_t>(i), 7})));
    }
    Relation copy = original;
    Relation assigned(5);
    assigned = original;
    EXPECT_EQ(assigned.arity(), 2u);
    EXPECT_TRUE(copy == original);
    EXPECT_TRUE(assigned == original);

    EXPECT_TRUE(*copy.Insert(Ints({-1, 0})));
    EXPECT_TRUE(*assigned.Insert(Ints({-2, 0})));
    EXPECT_TRUE(*original.Insert(Ints({-3, 0})));
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(copy.Insert(Ints({i, 100})).ok());
    }

    EXPECT_EQ(original.size(), size + 1);
    EXPECT_EQ(assigned.size(), size + 1);
    EXPECT_EQ(copy.size(), size + 101);
    EXPECT_FALSE(original.Contains(Ints({-1, 0})));
    EXPECT_FALSE(original.Contains(Ints({-2, 0})));
    EXPECT_FALSE(original.Contains(Ints({5, 100})));
    EXPECT_FALSE(copy.Contains(Ints({-3, 0})));
    EXPECT_FALSE(assigned.Contains(Ints({-3, 0})));
    EXPECT_FALSE(assigned.Contains(Ints({-1, 0})));
    EXPECT_TRUE(copy.Contains(Ints({5, 100})));
    for (size_t i = 0; i < size; ++i) {
      const Tuple t = Ints({static_cast<int64_t>(i), 7});
      EXPECT_TRUE(original.Contains(t));
      EXPECT_TRUE(copy.Contains(t));
      EXPECT_TRUE(assigned.Contains(t));
    }
    EXPECT_FALSE(copy == original);
  }
}

TEST(RelationMembershipTest, MovedFromIsEmptyAndUsable) {
  Relation source(1);
  for (int64_t i = 0; i < 50; ++i) ASSERT_TRUE(*source.Insert(Ints({i})));
  Relation moved = std::move(source);
  EXPECT_EQ(moved.size(), 50u);
  EXPECT_TRUE(moved.Contains(Ints({49})));
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is tested.
  EXPECT_TRUE(source.empty());
  EXPECT_TRUE(source.rows().empty());
  EXPECT_FALSE(source.Contains(Ints({0})));
  EXPECT_TRUE(*source.Insert(Ints({3})));
  EXPECT_TRUE(source.Contains(Ints({3})));
  EXPECT_EQ(source.size(), 1u);

  Relation target(1);
  ASSERT_TRUE(*target.Insert(Ints({-1})));
  target = std::move(moved);
  EXPECT_EQ(target.size(), 50u);
  EXPECT_FALSE(target.Contains(Ints({-1})));
  EXPECT_TRUE(moved.empty());
  EXPECT_FALSE(moved.Contains(Ints({49})));
  EXPECT_TRUE(*moved.Insert(Ints({49})));
  EXPECT_TRUE(moved.Contains(Ints({49})));
  EXPECT_FALSE(*moved.Insert(Ints({49})));
}

TEST(RelationMembershipTest, MatchesPositionsIndexRows) {
  std::mt19937_64 rng(77);
  Relation rel(2);
  ASSERT_TRUE(rel.BuildIndex(0).ok());  // maintained by Insert from here
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rel.Insert(RandomTuple(rng, 2, 40)).ok());
  }
  ASSERT_TRUE(rel.BuildIndex(1).ok());  // built over the existing rows
  for (size_t column : {0, 1}) {
    for (int64_t k = -3; k < 45; ++k) {
      for (const Value& v : {Value::Int(k), Value::Double(k + 0.5),
                             Value::String("s" + std::to_string(k))}) {
        size_t expected = 0;
        for (const Tuple& t : rel.rows()) expected += t.at(column) == v;
        const std::span<const uint32_t> hits = rel.Matches(column, v);
        EXPECT_EQ(hits.size(), expected) << column << " " << v.ToString();
        for (size_t pos : hits) {
          ASSERT_LT(pos, rel.size());
          EXPECT_EQ(rel.rows()[pos].at(column), v);
        }
      }
    }
  }
}

// rows() is a random-access range of row views; a view binds to
// `const Tuple&` (as a copy), so `for (const Tuple& t : rel.rows())`
// compiles, as callers outside the library write it.
static_assert(std::ranges::random_access_range<RowRange>);
static_assert(std::ranges::borrowed_range<RowRange>);
static_assert(std::is_convertible_v<std::ranges::range_reference_t<RowRange>,
                                    const Tuple&>);

TEST(RelationRowsTest, RowViewsBindToConstTupleRef) {
  const Relation rel = StringPairs({{"a", "x"}, {"b", "y"}, {"a", "y"}});
  std::vector<Tuple> seen;
  for (const Tuple& t : rel.rows()) seen.push_back(t);
  EXPECT_EQ(seen, (std::vector<Tuple>{Strs({"a", "x"}), Strs({"b", "y"}),
                                      Strs({"a", "y"})}));
  const RowRange rows = rel.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.end() - rows.begin(), 3);
  EXPECT_EQ(rows[1], Strs({"b", "y"}));
  EXPECT_EQ(rows[2].ToString(), "('a', 'y')");
  EXPECT_EQ(rel.Row(0).data(), rows.front().values().data());  // in place
  EXPECT_EQ(std::ranges::find(rel.rows(), Strs({"b", "y"})) - rows.begin(), 1);
}

/// Checks `rel` against `reference` (its rows in insertion order): rows()
/// and Row() row for row, membership of every row and probe, the index
/// positions of every value on each indexed column, and the column
/// store's rows when there is one.
void ExpectFlatRowsMatch(const Relation& rel,
                         const std::vector<Tuple>& reference,
                         const std::vector<Tuple>& probes) {
  ExpectMatchesReference(rel, reference, probes);
  ASSERT_EQ(rel.rows().size(), reference.size());
  size_t i = 0;
  for (const RowView row : rel.rows()) {
    ASSERT_EQ(row.arity(), rel.arity());
    ASSERT_EQ(row.values().data(), rel.Row(i).data());
    ASSERT_TRUE(SameRow(row, reference[i++]));
  }
  for (size_t column = 0; column < rel.arity(); ++column) {
    if (!rel.HasIndex(column)) continue;
    for (const Tuple& t : probes) {
      std::vector<uint32_t> expected;
      for (size_t r = 0; r < reference.size(); ++r) {
        if (reference[r].at(column) == t.at(column)) expected.push_back(r);
      }
      const std::span<const uint32_t> hits = rel.Matches(column, t.at(column));
      EXPECT_EQ(std::vector<uint32_t>(hits.begin(), hits.end()), expected)
          << "column " << column << " value " << t.at(column).ToString();
    }
  }
  if (const ZoneMaps* zones = rel.zone_maps()) {
    // Each segment's zone counts its rows and bounds their values.
    for (size_t r = 0; r < reference.size(); ++r) {
      const size_t seg = r / kSegmentRows;
      for (size_t c = 0; c < rel.arity(); ++c) {
        const ZoneMap& zone = zones->zone(c, seg);
        ASSERT_EQ(zone.count, std::min(kSegmentRows,
                                       reference.size() - seg * kSegmentRows));
        const Value& v = reference[r].at(c);
        if (zone.unordered) continue;
        ASSERT_FALSE(v < zone.min) << r;
        ASSERT_FALSE(zone.max < v) << r;
      }
    }
  }
}

/// Inserts up to `attempts` random rows into `rel` and `reference`
/// alike, checking each Insert's verdict against a linear scan.
void InsertRandom(std::mt19937_64& rng, size_t attempts, int64_t spread,
                  Relation* rel, std::vector<Tuple>* reference) {
  for (size_t a = 0; a < attempts; ++a) {
    const Tuple t = RandomTuple(rng, rel->arity(), spread);
    const bool fresh = !ReferenceContains(*reference, t);
    const Result<bool> inserted = rel->Insert(t);
    ASSERT_TRUE(inserted.ok());
    ASSERT_EQ(*inserted, fresh) << t.ToString();
    if (fresh) reference->push_back(t);
  }
}

TEST(RelationMembershipTest, FlatRowsAgainstVectorReference) {
  std::mt19937_64 rng(16);
  // Sizes straddle the arena's chunks (1024 rows of arity 1, 512 of
  // arity 2 and 3) and the slot table's doublings.
  for (size_t arity : {1, 2, 3}) {
    for (size_t target : {0, 1, 7, 600, 1300}) {
      for (bool build_before_copy : {true, false}) {
        SCOPED_TRACE("arity " + std::to_string(arity) + " target " +
                     std::to_string(target) +
                     (build_before_copy ? " built before" : " built after"));
        const int64_t spread = 2 + static_cast<int64_t>(target);
        Relation rel(arity);
        std::vector<Tuple> reference;
        if (build_before_copy) {
          ASSERT_TRUE(rel.BuildIndex(0).ok());  // maintained by Insert
          rel.BuildZoneMaps();
        }
        InsertRandom(rng, target + target / 4, spread, &rel, &reference);
        std::vector<Tuple> probes;
        for (size_t i = 0; i < 100; ++i) {
          probes.push_back(RandomTuple(rng, arity, spread + 3));
        }
        ExpectFlatRowsMatch(rel, reference, probes);

        // A commit: copy, insert into the copy, install it with Put.
        Relation copy = rel;
        std::vector<Tuple> copy_reference = reference;
        if (!build_before_copy) {
          ASSERT_TRUE(copy.BuildIndex(arity - 1).ok());
          copy.BuildZoneMaps();
        }
        InsertRandom(rng, target / 2 + 3, spread + 1, &copy, &copy_reference);
        ExpectFlatRowsMatch(rel, reference, probes);  // unchanged
        ExpectFlatRowsMatch(copy, copy_reference, probes);
        EXPECT_EQ(copy == rel, ReferenceEqual(copy_reference, reference));

        Database db;
        db.Put("r", rel);
        db.Put("r", std::move(copy));
        // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state.
        EXPECT_TRUE(copy.empty());
        EXPECT_TRUE(copy.rows().empty());
        EXPECT_FALSE(copy.Contains(copy_reference.empty()
                                       ? Tuple(std::vector<Value>(arity))
                                       : copy_reference.front()));
        const Relation* installed = *db.Get("r");
        ExpectFlatRowsMatch(*installed, copy_reference, probes);

        // The moved-from relation takes rows again, from an empty arena.
        std::vector<Tuple> moved_reference;
        InsertRandom(rng, 40, spread, &copy, &moved_reference);
        ExpectFlatRowsMatch(copy, moved_reference, probes);
      }
    }
  }
}

TEST(RelationMembershipTest, FlatRowsOfArityZero) {
  Relation no(0);  // {}: false
  EXPECT_TRUE(no.empty());
  EXPECT_TRUE(no.rows().empty());
  EXPECT_FALSE(no.Contains(Tuple{}));
  EXPECT_EQ(no.ToString(), "[0 tuples, arity 0]\n");

  Relation yes = no;  // {()}: true
  EXPECT_TRUE(*yes.Insert(Tuple{}));
  EXPECT_FALSE(*yes.Insert(Tuple{}));
  EXPECT_EQ(yes.size(), 1u);
  EXPECT_TRUE(yes.Contains(Tuple{}));
  EXPECT_FALSE(no.Contains(Tuple{}));
  EXPECT_EQ(yes.rows()[0].arity(), 0u);
  EXPECT_TRUE(yes.Row(0).empty());
  EXPECT_EQ(yes.rows()[0], Tuple{});
  EXPECT_FALSE(yes.Insert(Ints({1})).ok());  // arity mismatch
  EXPECT_FALSE(yes == no);

  Database db;
  db.Put("t", yes);
  Relation copy = **db.Get("t");
  EXPECT_TRUE(copy == yes);
  Relation moved = std::move(copy);
  EXPECT_TRUE(moved.Contains(Tuple{}));
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state.
  EXPECT_TRUE(copy.empty());
  EXPECT_FALSE(copy.Contains(Tuple{}));
  EXPECT_TRUE(*copy.Insert(Tuple{}));
  db.Put("t", std::move(moved));
  EXPECT_TRUE((*db.Get("t"))->Contains(Tuple{}));
}

TEST(RelationMembershipTest, ContainsRejectsAProbeOfAnotherArity) {
  Relation rel(2);
  ASSERT_TRUE(*rel.Insert(Ints({1, 2})));
  EXPECT_FALSE(rel.Contains(Ints({1})));
  EXPECT_FALSE(rel.Contains(Ints({1, 2, 3})));
  EXPECT_FALSE(rel.Contains(Tuple{}));
  EXPECT_TRUE(rel.Contains(Ints({1, 2})));
}

TEST(BuilderTest, Helpers) {
  Relation u = UnaryStrings({"a", "b", "a"});
  EXPECT_EQ(u.size(), 2u);
  Relation p = StringPairs({{"a", "x"}, {"b", "y"}});
  EXPECT_EQ(p.arity(), 2u);
  EXPECT_TRUE(p.Contains(Strs({"b", "y"})));
  EXPECT_EQ(UnaryInts({1, 2, 3}).size(), 3u);
}

}  // namespace
}  // namespace bryql
