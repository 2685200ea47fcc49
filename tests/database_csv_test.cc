#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <random>
#include <vector>

#include "storage/builder.h"
#include "storage/csv.h"
#include "storage/database.h"

namespace bryql {
namespace {

TEST(DatabaseTest, PutGetAndNames) {
  Database db;
  db.Put("p", UnaryStrings({"a", "b"}));
  db.Put("q", StringPairs({{"a", "b"}}));
  EXPECT_TRUE(db.Has("p"));
  EXPECT_FALSE(db.Has("r"));
  auto p = db.Get("p");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->size(), 2u);
  EXPECT_EQ(db.Names(), (std::vector<std::string>{"p", "q"}));
  EXPECT_EQ(db.TotalTuples(), 3u);
}

TEST(DatabaseTest, GetMissingIsNotFound) {
  Database db;
  auto r = db.Get("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, ArityOf) {
  Database db;
  db.Put("q", StringPairs({{"a", "b"}}));
  auto a = db.ArityOf("q");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 2u);
}

TEST(DatabaseTest, PutReplaces) {
  Database db;
  db.Put("p", UnaryStrings({"a"}));
  db.Put("p", UnaryStrings({"a", "b", "c"}));
  EXPECT_EQ((*db.Get("p"))->size(), 3u);
}

TEST(DatabaseTest, ActiveDomainCollectsAllValues) {
  // The "dom" view of §2.1 (Domain Closure Assumption).
  Database db;
  db.Put("p", StringPairs({{"a", "b"}, {"b", "c"}}));
  db.Put("q", UnaryStrings({"d"}));
  Relation dom = db.ActiveDomain();
  EXPECT_EQ(dom.arity(), 1u);
  EXPECT_EQ(dom.size(), 4u);  // a, b, c, d
  EXPECT_TRUE(dom.Contains(Strs({"c"})));
}

TEST(CsvTest, ParsesTypesPerCell) {
  auto r = RelationFromCsv("1, 2.5, hello, 'quoted, no'\n");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 1u);
  const Tuple& t = r->rows()[0];
  EXPECT_EQ(t.at(0), Value::Int(1));
  EXPECT_EQ(t.at(1), Value::Double(2.5));
  EXPECT_EQ(t.at(2), Value::String("hello"));
}

TEST(CsvTest, SkipsCommentsAndBlanks) {
  auto r = RelationFromCsv("# header\n\n a, 1 \n b, 2 \n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(CsvTest, RejectsMixedArity) {
  auto r = RelationFromCsv("a,b\nc\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, RaggedRowRejectionNamesTheLine) {
  // Line 1 is a comment, line 2 blank, line 3 fixes the arity at 2; the
  // ragged row sits on physical line 5 and the error must say so.
  auto r = RelationFromCsv("# header\n\na,1\nb,2\nc,3,4\nd,5\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 5"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("got 3"), std::string::npos)
      << r.status().message();

  // Short rows are just as ragged as long ones.
  auto s = RelationFromCsv("a,1\nb\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.status().message().find("line 2"), std::string::npos)
      << s.status().message();
}

TEST(CsvTest, RoundTrip) {
  Relation in = StringPairs({{"a", "x"}, {"b", "y"}});
  auto text = RelationToCsv(in);
  ASSERT_TRUE(text.ok());
  auto back = RelationFromCsv(*text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, in);
}

TEST(CsvTest, RefusesInternalSymbols) {
  Relation r(1);
  r.Insert(Tuple({Value::Mark()}));
  EXPECT_FALSE(RelationToCsv(r).ok());
}

TEST(CsvTest, RefusesSeparatorsInStrings) {
  // The reader splits on every ',' and line break: such a string would
  // come back as other cells, so the writer refuses it.
  for (const char* text : {"a,b", "a\nb", "a\r\nb", ","}) {
    Relation r(1);
    ASSERT_TRUE(*r.Insert(Tuple({Value::String(text)})));
    auto csv = RelationToCsv(r);
    ASSERT_FALSE(csv.ok()) << text;
    EXPECT_EQ(csv.status().code(), StatusCode::kInvalidArgument);
  }
  Database db;
  db.Put("p", UnaryStrings({"fine", "a,b"}));
  Status saved = SaveDatabase(db, ::testing::TempDir() + "/bryql_persist_comma");
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
}

/// Writes `value` as a one-row CSV and reads it back.
Value CsvRoundTrip(double value) {
  Relation r(1);
  EXPECT_TRUE(*r.Insert(Tuple({Value::Double(value)})));
  auto text = RelationToCsv(r);
  EXPECT_TRUE(text.ok());
  auto back = RelationFromCsv(*text);
  EXPECT_TRUE(back.ok()) << *text;
  EXPECT_EQ(back->size(), 1u) << *text;
  return back->rows().front().at(0);
}

TEST(CsvTest, DoublesRoundTripExactly) {
  std::vector<double> values = {
      0.0, -0.0, 3.0, -3.0, 0.1, 0.1234567891, 1e16, 123456789012345680.0,
      1e300, -1e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon()};
  std::mt19937_64 rng(1989);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(unit(rng));
    // Any bit pattern: every exponent, subnormals included.
    const double any = std::bit_cast<double>(rng());
    if (!std::isnan(any)) values.push_back(any);
  }
  for (double value : values) {
    Value back = CsvRoundTrip(value);
    ASSERT_EQ(back.kind(), ValueKind::kDouble) << value;
    EXPECT_EQ(std::bit_cast<uint64_t>(back.AsDouble()),
              std::bit_cast<uint64_t>(value))
        << value;
  }
  Value nan = CsvRoundTrip(std::numeric_limits<double>::quiet_NaN());
  ASSERT_EQ(nan.kind(), ValueKind::kDouble);
  EXPECT_TRUE(std::isnan(nan.AsDouble()));
}

TEST(PersistenceTest, DoublesSurviveSaveAndLoad) {
  Database db;
  Relation r(2);
  ASSERT_TRUE(*r.Insert(Tuple({Value::Double(0.1234567891), Value::Int(3)})));
  ASSERT_TRUE(*r.Insert(Tuple({Value::Double(3.0), Value::String("x")})));
  db.Put("d", std::move(r));
  std::string dir = ::testing::TempDir() + "/bryql_persist_doubles";
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Relation& back = **loaded->Get("d");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.rows()[0].at(0).kind(), ValueKind::kDouble);
  EXPECT_EQ(back.rows()[0].at(0).AsDouble(), 0.1234567891);
  EXPECT_EQ(back.rows()[0].at(1).kind(), ValueKind::kInt);
  EXPECT_EQ(back.rows()[1].at(0).kind(), ValueKind::kDouble);
  EXPECT_EQ(back.rows()[1].at(0).AsDouble(), 3.0);
}

TEST(CsvTest, MissingFileIsNotFound) {
  auto r = RelationFromCsvFile("/nonexistent/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PersistenceTest, SaveAndLoadRoundTrip) {
  Database db;
  db.Put("p", UnaryStrings({"a", "b"}));
  db.Put("q", StringPairs({{"a", "x"}, {"b", "y"}}));
  db.Put("numbers", UnaryInts({1, 2, 3}));
  std::string dir =
      ::testing::TempDir() + "/bryql_persist_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Names(), db.Names());
  for (const std::string& name : db.Names()) {
    EXPECT_EQ(*(*loaded->Get(name)), *(*db.Get(name))) << name;
  }
}

TEST(PersistenceTest, EmptyRelationKeepsArity) {
  Database db;
  db.Put("empty3", Relation(3));
  std::string dir = ::testing::TempDir() + "/bryql_persist_empty";
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded->ArityOf("empty3"), 3u);
  EXPECT_TRUE((*loaded->Get("empty3"))->empty());
}

// Arity 0 encodes a truth value: {} is false, {()} true. Neither has a
// cell to write, so both must come back from the manifest alone.
TEST(PersistenceTest, NullaryFalseSurvivesSaveAndLoad) {
  Database db;
  db.Put("f", Relation(0));
  std::string dir = ::testing::TempDir() + "/bryql_persist_nullary_false";
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded->ArityOf("f"), 0u);
  EXPECT_TRUE((*loaded->Get("f"))->empty());
}

TEST(PersistenceTest, NullaryTrueSurvivesSaveAndLoad) {
  Database db;
  Relation t(0);
  ASSERT_TRUE(*t.Insert(Tuple{}));
  db.Put("t", std::move(t));
  db.Put("p", UnaryStrings({"a"}));
  std::string dir = ::testing::TempDir() + "/bryql_persist_nullary_true";
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Relation& back = **loaded->Get("t");
  EXPECT_EQ(back.arity(), 0u);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back.Contains(Tuple{}));
  EXPECT_EQ(*(*loaded->Get("p")), *(*db.Get("p")));
}

TEST(PersistenceTest, NullaryWithTwoTuplesRejected) {
  Database db;
  db.Put("t", Relation(0));
  std::string dir = ::testing::TempDir() + "/bryql_persist_nullary_bad";
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  {
    std::ofstream manifest(dir + "/MANIFEST");
    manifest << "t,0,2\n";
  }
  auto r = LoadDatabase(dir);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, MissingManifestIsNotFound) {
  auto r = LoadDatabase("/nonexistent/dir");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PersistenceTest, ManifestMismatchRejected) {
  Database db;
  db.Put("p", UnaryStrings({"a", "b"}));
  std::string dir = ::testing::TempDir() + "/bryql_persist_bad";
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  // Corrupt the manifest's cardinality.
  {
    std::ofstream manifest(dir + "/MANIFEST");
    manifest << "p,1,99\n";
  }
  auto r = LoadDatabase(dir);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bryql
