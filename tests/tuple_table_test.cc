// TupleTable, the batched engine's flat hash table, against the standard
// containers it replaced: a seeded randomized differential over sizes
// 0..20k (growth through many doublings) with single-, multi- and
// zero-column keys, plus the equality corner cases the engine relies on:
// Int/Double collapse, NaN (never matches, never dedups), ∅ and ⊥, and
// reuse after Clear(). Multimap partners must come out in build order.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/tuple_table.h"

namespace bryql {
namespace {

using TupleSet = std::unordered_set<Tuple, TupleHash>;
using TupleMultimap = std::unordered_multimap<Tuple, Tuple, TupleHash>;

const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A value from a small domain, so keys repeat: ints, the same numbers as
/// doubles (which must collapse onto them), half-integers, short strings,
/// ∅, ⊥ and, rarely, NaN.
Value RandomValue(std::mt19937_64& rng, int domain) {
  const int k = static_cast<int>(rng() % static_cast<uint64_t>(domain));
  switch (rng() % 16) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4:
      return Value::Int(k);
    case 5:
    case 6:
      return Value::Double(k);
    case 7:
      return Value::Double(k + 0.5);
    case 8:
    case 9:
    case 10:
    case 11:
      return Value::String("v" + std::to_string(k));
    case 12:
      return Value::Null();
    case 13:
      return Value::Mark();
    case 14:
      return rng() % 8 == 0 ? Value::Double(kNaN) : Value::Int(k);
    default:
      return Value::String("a much longer string value " + std::to_string(k));
  }
}

Tuple RandomRow(std::mt19937_64& rng, size_t arity, int domain) {
  std::vector<Value> values;
  for (size_t i = 0; i < arity; ++i) values.push_back(RandomValue(rng, domain));
  return Tuple(std::move(values));
}

/// The rows of `table`'s chain for the key src[cols], walked with Find /
/// Next.
std::vector<Tuple> Partners(const TupleTable& table, const Tuple& src,
                            const std::vector<size_t>& cols) {
  std::vector<Tuple> out;
  for (uint32_t row = table.Find(src, cols); row != TupleTable::kNoRow;
       row = table.Next(row)) {
    const std::span<const Value> values = table.Row(row);
    out.push_back(Tuple(std::vector<Value>(values.begin(), values.end())));
  }
  return out;
}

const size_t kSizes[] = {0, 1, 2, 3, 7, 8, 9, 31, 100, 1000, 4097, 20000};

/// Multimap differential: build rows carry their build position in the
/// last column, so build order is checkable as ascending positions.
void CheckMultimap(uint64_t seed, size_t n, std::vector<size_t> key_cols,
                   TupleTable* table) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
               " key width=" + std::to_string(key_cols.size()));
  std::mt19937_64 rng(seed);
  const int domain = 1 + static_cast<int>(n / 4);
  const size_t payload = 3;
  TupleMultimap oracle;
  for (size_t i = 0; i < n; ++i) {
    Tuple row = RandomRow(rng, payload, domain);
    row.Append(Value::Int(static_cast<int64_t>(i)));
    oracle.emplace(row.Project(key_cols), row);
    table->Add(row);
  }
  ASSERT_EQ(table->size(), n);
  // Probe rows: the key columns of a probe sit elsewhere in its row, and
  // half the probes reuse a build row's key (Int/Double swapped in).
  std::vector<size_t> probe_cols;
  for (size_t j = 0; j < key_cols.size(); ++j) probe_cols.push_back(2 * j + 1);
  // With no key columns every probe walks all n rows; a few suffice.
  const size_t probes = key_cols.empty() ? 8 : n + 50;
  for (size_t p = 0; p < probes; ++p) {
    Tuple key = RandomRow(rng, key_cols.size(), domain);
    if (n > 0 && rng() % 2 == 0) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng() % std::min<size_t>(n, 64)));
      key = it->first;
    }
    std::vector<Value> probe(2 * key_cols.size() + 1, Value::String("x"));
    for (size_t j = 0; j < key_cols.size(); ++j) {
      Value v = key.at(j);
      if (v.kind() == ValueKind::kInt && rng() % 2 == 0) {
        v = Value::Double(static_cast<double>(v.AsInt()));
      }
      probe[probe_cols[j]] = v;
    }
    const Tuple probe_row(std::move(probe));
    // Partners are compared by build position: the table must yield
    // exactly the oracle's rows, in ascending position (build order).
    std::vector<int64_t> got;
    for (const Tuple& partner : Partners(*table, probe_row, probe_cols)) {
      got.push_back(partner.at(payload).AsInt());
    }
    std::vector<int64_t> want;
    auto [begin, end] = oracle.equal_range(probe_row.Project(probe_cols));
    for (auto it = begin; it != end; ++it) {
      want.push_back(it->second.at(payload).AsInt());
    }
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "partners of " << probe_row.ToString();
  }
}

void CheckSet(uint64_t seed, size_t n, size_t arity, TupleTable* table) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
               " arity=" + std::to_string(arity));
  std::mt19937_64 rng(seed);
  const int domain = 1 + static_cast<int>(n / 3);
  // Rows are inserted as the projection of a wider source row onto
  // `cols` (InsertKey) or whole (Insert), alternately.
  std::vector<size_t> cols;
  for (size_t j = 0; j < arity; ++j) cols.push_back(arity - j);
  TupleSet oracle;
  for (size_t i = 0; i < n; ++i) {
    const Tuple src = RandomRow(rng, arity + 1, domain);
    const Tuple key = src.Project(cols);
    const bool want = oracle.insert(key).second;
    const bool got = i % 2 == 0 ? table->InsertKey(src, cols)
                                : table->Insert(key);
    ASSERT_EQ(got, want) << key.ToString();
    ASSERT_EQ(table->size(), oracle.size());
  }
  for (size_t p = 0; p < n + 50; ++p) {
    const Tuple src = RandomRow(rng, arity + 1, domain);
    ASSERT_EQ(table->ContainsKey(src, cols),
              oracle.count(src.Project(cols)) != 0)
        << src.ToString();
  }
}

TEST(TupleTableDifferentialTest, MultimapMatchesStdUnorderedMultimap) {
  uint64_t seed = 1;
  for (size_t n : kSizes) {
    for (const std::vector<size_t>& key_cols :
         {std::vector<size_t>{0}, std::vector<size_t>{2, 0},
          std::vector<size_t>{0, 1, 2}, std::vector<size_t>{}}) {
      TupleTable table(key_cols);
      CheckMultimap(seed++, n, key_cols, &table);
    }
  }
}

TEST(TupleTableDifferentialTest, SetMatchesStdUnorderedSet) {
  uint64_t seed = 1000;
  for (size_t n : kSizes) {
    for (size_t arity : {1, 2, 3}) {
      TupleTable table;
      CheckSet(seed++, n, arity, &table);
    }
  }
}

TEST(TupleTableDifferentialTest, ClearedTablesAreReusable) {
  // One table per use, cleared between runs of growing and shrinking
  // size and changing arity: nothing of an earlier run may leak through.
  TupleTable set;
  TupleTable multimap(std::vector<size_t>{1});
  uint64_t seed = 5000;
  for (size_t n : {20000, 0, 9, 4097, 1}) {
    set.Clear();
    CheckSet(seed++, n, 1 + n % 3, &set);
    multimap.Clear();
    CheckMultimap(seed++, n, {1}, &multimap);
  }
}

TEST(TupleTableTest, IntAndDoubleOfOneNumberAreOneKey) {
  TupleTable set;
  EXPECT_TRUE(set.Insert(Tuple({Value::Int(3), Value::String("a")})));
  EXPECT_FALSE(set.Insert(Tuple({Value::Double(3.0), Value::String("a")})));
  EXPECT_TRUE(set.Insert(Tuple({Value::Double(3.5), Value::String("a")})));
  EXPECT_EQ(set.size(), 2u);

  TupleTable table(std::vector<size_t>{0});
  table.Add(Tuple({Value::Int(3), Value::Int(1)}));
  table.Add(Tuple({Value::Double(3.0), Value::Int(2)}));
  const Tuple probe({Value::Double(3.0)});
  const std::vector<Tuple> partners = Partners(table, probe, {0});
  ASSERT_EQ(partners.size(), 2u);
  EXPECT_EQ(partners[0].at(1), Value::Int(1));
  EXPECT_EQ(partners[1].at(1), Value::Int(2));
}

TEST(TupleTableTest, NaNNeverMatchesAndNeverDedups) {
  const Tuple nan({Value::Double(kNaN)});
  TupleTable set;
  EXPECT_TRUE(set.Insert(nan));
  EXPECT_TRUE(set.Insert(nan));  // NaN != NaN: a second, fresh row
  EXPECT_TRUE(set.InsertKey(Tuple({Value::Int(0), Value::Double(kNaN)}), {1}));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_FALSE(set.ContainsKey(nan, {0}));

  TupleTable table(std::vector<size_t>{0});
  table.Add(Tuple({Value::Double(kNaN), Value::Int(1)}));
  table.Add(Tuple({Value::Double(kNaN), Value::Int(2)}));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(nan, {0}), TupleTable::kNoRow);
}

TEST(TupleTableTest, NullAndMarkEqualOnlyThemselves) {
  TupleTable set;
  EXPECT_TRUE(set.Insert(Tuple({Value::Null()})));
  EXPECT_FALSE(set.Insert(Tuple({Value::Null()})));
  EXPECT_TRUE(set.Insert(Tuple({Value::Mark()})));
  EXPECT_FALSE(set.Insert(Tuple({Value::Mark()})));
  EXPECT_TRUE(set.Insert(Tuple({Value::Int(0)})));
  EXPECT_TRUE(set.Insert(Tuple({Value::String("")})));
  EXPECT_EQ(set.size(), 4u);

  TupleTable table(std::vector<size_t>{0});
  table.Add(Tuple({Value::Null(), Value::Int(1)}));
  table.Add(Tuple({Value::Mark(), Value::Int(2)}));
  EXPECT_EQ(Partners(table, Tuple({Value::Null()}), {0}).size(), 1u);
  EXPECT_EQ(Partners(table, Tuple({Value::Mark()}), {0}).size(), 1u);
  EXPECT_TRUE(Partners(table, Tuple({Value::Int(0)}), {0}).empty());
}

TEST(TupleTableTest, NullaryRowsFormOneKey) {
  TupleTable set;
  EXPECT_TRUE(set.Insert(Tuple{}));
  EXPECT_FALSE(set.Insert(Tuple{}));
  EXPECT_TRUE(set.ContainsKey(Tuple({Value::Int(7)}), {}));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.Row(0).size(), 0u);
}

TEST(TupleTableTest, KeyHashIsTheHashOfTheProjection) {
  const Tuple row({Value::Int(1), Value::String("b"), Value::Double(2.5)});
  const std::vector<size_t> cols = {2, 0};
  EXPECT_EQ(TupleTable::KeyHash(row, cols), row.Project(cols).Hash());
  EXPECT_EQ(TupleTable::KeyHash(row, {0, 1, 2}), row.Hash());
}

}  // namespace
}  // namespace bryql
