// Proposition 5 (§3.3): a disjunctive filter P(x) ∧ [Λ1 T1(x) ∨ ... ∨
// Λn Tn(x)] evaluates through a chain of constrained outer-joins that (a)
// builds no union, (b) scans the producer once, and (c) probes each Ti
// only for tuples not yet accepted. Verified against direct semantics for
// every negation pattern up to n = 3, on randomized data, plus the
// structural claims.

#include <gtest/gtest.h>

#include <random>

#include "core/query_processor.h"
#include "exec/executor.h"
#include "storage/builder.h"

namespace bryql {
namespace {

Database RandomUnaryDb(unsigned seed, int domain) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> value(0, domain - 1);
  Database db;
  for (const char* name : {"P", "T1", "T2", "T3"}) {
    Relation rel(1);
    int rows = 5 + static_cast<int>(rng() % 20);
    for (int i = 0; i < rows; ++i) rel.Insert(Ints({value(rng)}));
    db.Put(name, std::move(rel));
  }
  return db;
}

/// Builds "{ x | P(x) & (s1 T1(x) | s2 T2(x) | ...) }" with signs.
std::string DisjunctiveQuery(const std::vector<bool>& negated) {
  std::string q = "{ x | P(x) & (";
  for (size_t i = 0; i < negated.size(); ++i) {
    if (i > 0) q += " | ";
    if (negated[i]) q += "~";
    q += "T" + std::to_string(i + 1) + "(x)";
  }
  q += ") }";
  return q;
}

struct Pattern {
  std::vector<bool> negated;
  unsigned seed;
};

class Proposition5Test
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(Proposition5Test, AllSignPatternsMatchReference) {
  auto [n, seed] = GetParam();
  Database db = RandomUnaryDb(seed, 12);
  QueryProcessor qp(&db);
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<bool> negated;
    for (int i = 0; i < n; ++i) negated.push_back(mask & (1 << i));
    std::string text = DisjunctiveQuery(negated);
    auto reference = qp.Run(text, Strategy::kNestedLoop);
    ASSERT_TRUE(reference.ok()) << text << ": " << reference.status();
    for (Strategy s :
         {Strategy::kBry, Strategy::kBryUnionFilters, Strategy::kClassical}) {
      auto got = qp.Run(text, s);
      ASSERT_TRUE(got.ok()) << StrategyName(s) << " " << text << ": "
                            << got.status();
      EXPECT_EQ(got->answer.relation, reference->answer.relation)
          << StrategyName(s) << " on " << text << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Proposition5Test,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0u, 1u, 2u, 3u)));

bool PlanContains(const ExprPtr& e, ExprKind kind) {
  if (e->kind() == kind) return true;
  for (const ExprPtr& c : e->children()) {
    if (PlanContains(c, kind)) return true;
  }
  return false;
}

TEST(Proposition5Shapes, ChainBuildsNoUnion) {
  Database db = RandomUnaryDb(7, 12);
  QueryProcessor qp(&db);
  auto exec = qp.Explain(DisjunctiveQuery({false, true, false}),
                         Strategy::kBry);
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_TRUE(PlanContains(exec->plan, ExprKind::kMarkJoin))
      << exec->plan->ToString();
  EXPECT_FALSE(PlanContains(exec->plan, ExprKind::kUnion))
      << exec->plan->ToString();
}

TEST(Proposition5Shapes, UnionStrategyBuildsUnions) {
  Database db = RandomUnaryDb(7, 12);
  QueryProcessor qp(&db);
  auto exec = qp.Explain(DisjunctiveQuery({false, false}),
                         Strategy::kBryUnionFilters);
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(PlanContains(exec->plan, ExprKind::kUnion));
  EXPECT_FALSE(PlanContains(exec->plan, ExprKind::kMarkJoin));
}

TEST(Proposition5Claims, ProducerScannedOnceAndProbesSkipped) {
  // Deterministic setup: P = {0..99}, T1 = {0..49}, T2 = {0..99 even}.
  Database db;
  Relation p(1), t1(1), t2(1);
  for (int i = 0; i < 100; ++i) {
    p.Insert(Ints({i}));
    if (i < 50) t1.Insert(Ints({i}));
    if (i % 2 == 0) t2.Insert(Ints({i}));
  }
  db.Put("P", p);
  db.Put("T1", t1);
  db.Put("T2", t2);
  QueryProcessor qp(&db);
  // Rows the plan's scans of P produced, over every scan of P.
  auto rows_of_p = [](const ExecStats& stats) {
    size_t rows = 0;
    for (const OperatorStats& op : stats.operator_stats) {
      if (op.label == "TableScan P") rows += op.rows;
    }
    return rows;
  };
  auto chained = qp.Run("{ x | P(x) & (T1(x) | T2(x)) }", Strategy::kBry);
  ASSERT_TRUE(chained.ok()) << chained.status();
  EXPECT_EQ(chained->answer.relation.size(), 75u);
  // (b) each relation scanned exactly once: 100 + 50 + 50, P once.
  EXPECT_EQ(chained->stats.tuples_scanned, 200u);
  EXPECT_EQ(rows_of_p(chained->stats), 100u) << chained->stats.Report();
  // (c) T2 probed only for the 50 tuples T1 did not accept:
  // 100 probes into T1 + 50 into T2.
  EXPECT_EQ(chained->stats.hash_probes, 150u);

  // The union baseline scans P twice and probes both relations fully.
  auto unioned =
      qp.Run("{ x | P(x) & (T1(x) | T2(x)) }", Strategy::kBryUnionFilters);
  ASSERT_TRUE(unioned.ok());
  EXPECT_EQ(unioned->answer.relation, chained->answer.relation);
  EXPECT_EQ(rows_of_p(unioned->stats), 200u) << unioned->stats.Report();
  EXPECT_GT(unioned->stats.hash_probes, chained->stats.hash_probes);
}

TEST(Proposition5Extensions, ReorderedChainSavesProbes) {
  // T2 is much larger (accepts more of P): with reordering it is probed
  // first, so fewer tuples reach the T1 probe. Same answers either way.
  Database db;
  Relation p(1), t1(1), t2(1);
  for (int i = 0; i < 1000; ++i) {
    p.Insert(Ints({i}));
    if (i < 50) t1.Insert(Ints({i}));
    if (i < 900) t2.Insert(Ints({i}));
  }
  db.Put("P", p);
  db.Put("T1", t1);
  db.Put("T2", t2);
  auto query = ParseQuery("{ x | P(x) & (T1(x) | T2(x)) }");
  ASSERT_TRUE(query.ok());
  auto run = [&](bool reorder) {
    TranslateOptions options;
    options.reorder_disjuncts = reorder;
    Translator translator(&db, options);
    auto plan = translator.TranslateOpen(*query);
    EXPECT_TRUE(plan.ok()) << plan.status();
    Executor exec(&db);
    auto rel = exec.Evaluate(plan->expr);
    EXPECT_TRUE(rel.ok()) << rel.status();
    return std::make_pair(rel.ok() ? *rel : Relation(0),
                          exec.stats().hash_probes);
  };
  auto [plain_rel, plain_probes] = run(false);
  auto [reordered_rel, reordered_probes] = run(true);
  EXPECT_EQ(plain_rel, reordered_rel);
  // Plain order: 1000 probes into T1, 950 into T2 → 1950.
  // Reordered: 1000 into T2, 100 into T1 → 1100.
  EXPECT_LT(reordered_probes, plain_probes);
}

TEST(Proposition5Extensions, QuantifiedDisjunct) {
  // §2.3: a quantified subformula as a disjunct of a filter — "x speaks
  // all roman languages" style.
  Database db;
  db.Put("person", UnaryStrings({"ann", "bob", "cal"}));
  db.Put("speaks", StringPairs({{"ann", "french"},
                                {"bob", "latin"},
                                {"bob", "italian"},
                                {"cal", "german"}}));
  db.Put("roman", UnaryStrings({"latin", "italian"}));
  QueryProcessor qp(&db);
  const char* text =
      "{ x | person(x) & (speaks(x, french) | "
      "(forall y: roman(y) -> speaks(x, y))) }";
  auto reference = qp.Run(text, Strategy::kNestedLoop);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->answer.relation, UnaryStrings({"ann", "bob"}));
  for (Strategy s : {Strategy::kBry, Strategy::kBryUnionFilters}) {
    auto got = qp.Run(text, s);
    ASSERT_TRUE(got.ok()) << StrategyName(s) << ": " << got.status();
    EXPECT_EQ(got->answer.relation, reference->answer.relation)
        << StrategyName(s);
  }
}

TEST(Proposition5Extensions, ComparisonDisjunctInlines) {
  Database db;
  db.Put("P", UnaryInts({1, 2, 3, 4, 5}));
  db.Put("T1", UnaryInts({2}));
  QueryProcessor qp(&db);
  const char* text = "{ x | P(x) & (T1(x) | x > 4) }";
  auto got = qp.Run(text, Strategy::kBry);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->answer.relation, UnaryInts({2, 5}));
  auto reference = qp.Run(text, Strategy::kNestedLoop);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(got->answer.relation, reference->answer.relation);
}

TEST(Proposition5Extensions, ConjunctiveDisjunct) {
  // A disjunct that is itself a conjunction: (T1 ∧ T2) ∨ T3.
  Database db;
  db.Put("P", UnaryInts({1, 2, 3, 4, 5, 6}));
  db.Put("T1", UnaryInts({1, 2, 3}));
  db.Put("T2", UnaryInts({2, 3, 4}));
  db.Put("T3", UnaryInts({6}));
  QueryProcessor qp(&db);
  const char* text = "{ x | P(x) & ((T1(x) & T2(x)) | T3(x)) }";
  auto reference = qp.Run(text, Strategy::kNestedLoop);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->answer.relation, UnaryInts({2, 3, 6}));
  for (Strategy s : {Strategy::kBry, Strategy::kBryUnionFilters,
                     Strategy::kClassical}) {
    auto got = qp.Run(text, s);
    ASSERT_TRUE(got.ok()) << StrategyName(s) << ": " << got.status();
    EXPECT_EQ(got->answer.relation, reference->answer.relation)
        << StrategyName(s);
  }
}

TEST(Proposition5Extensions, MixedPolarityThreeWay) {
  Database db;
  db.Put("P", UnaryInts({1, 2, 3, 4, 5, 6, 7, 8}));
  db.Put("T1", UnaryInts({1, 2}));
  db.Put("T2", UnaryInts({2, 3, 4}));
  db.Put("T3", UnaryInts({5}));
  QueryProcessor qp(&db);
  const char* text = "{ x | P(x) & (~T1(x) | T2(x) | ~T3(x)) }";
  auto reference = qp.Run(text, Strategy::kNestedLoop);
  ASSERT_TRUE(reference.ok());
  for (Strategy s : {Strategy::kBry, Strategy::kBryUnionFilters}) {
    auto got = qp.Run(text, s);
    ASSERT_TRUE(got.ok()) << StrategyName(s) << ": " << got.status();
    EXPECT_EQ(got->answer.relation, reference->answer.relation)
        << StrategyName(s);
  }
}

TEST(Proposition5Extensions, BinaryRelationDisjuncts) {
  // "Proposition 5 extends easily to ... n-ary relations."
  Database db;
  db.Put("member", StringPairs({{"ann", "cs"}, {"bob", "math"},
                                {"cal", "cs"}}));
  db.Put("skill", StringPairs({{"ann", "db"}, {"cal", "ai"}}));
  db.Put("makes", StringPairs({{"bob", "phd"}}));
  QueryProcessor qp(&db);
  const char* text =
      "{ x, d | member(x, d) & (skill(x, db) | makes(x, phd)) }";
  auto reference = qp.Run(text, Strategy::kNestedLoop);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (Strategy s : {Strategy::kBry, Strategy::kBryUnionFilters}) {
    auto got = qp.Run(text, s);
    ASSERT_TRUE(got.ok()) << StrategyName(s) << ": " << got.status();
    EXPECT_EQ(got->answer.relation, reference->answer.relation);
  }
  EXPECT_EQ(reference->answer.relation.size(), 2u);  // (ann,cs),(bob,math)
}

}  // namespace
}  // namespace bryql
