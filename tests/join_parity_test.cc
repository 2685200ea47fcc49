// Join-family reference check: every member of the join family — inner,
// semi, anti (complement-join), outer, mark (constrained outer-join), plus
// the difference/intersection reductions — must produce exactly what a
// double loop written here computes from Definitions 6/7. Parameterized
// over seeds so the inputs cover duplicates, empty partner sets and skewed
// keys, plus an empty left and an empty right input. With several
// partners per key, the inner hash join must emit rows in probe order,
// partners in insertion order, and its work counters, also under a
// first-witness test, are pinned at every batch size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "core/query_processor.h"
#include "exec/executor.h"
#include "storage/database.h"

namespace bryql {
namespace {

/// Deterministic pseudo-random binary relation: n tuples with keys drawn
/// from [0, key_range) so cross-relation overlap is partial and skewed.
Relation RandomPairs(size_t n, int64_t key_range, uint64_t seed) {
  Relation rel(2);
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t i = 0; i < n; ++i) {
    rel.Insert(
        Tuple({Value::Int(static_cast<int64_t>(next()) % key_range),
               Value::Int(static_cast<int64_t>(next()) % 5)}));
  }
  return rel;
}

// The reference: a double loop over the two binary inputs, keyed on
// column 0 of each side, written from the definitions rather than from
// any operator.

bool KeyMatch(const Tuple& l, const Tuple& r) { return l.at(0) == r.at(0); }

bool HasPartner(const Tuple& l, const Relation& right) {
  for (const Tuple& r : right.rows()) {
    if (KeyMatch(l, r)) return true;
  }
  return false;
}

/// The constraint of the constrained cases: left payload $1 < 3.
bool Constraint(const Tuple& l) { return l.at(1).AsInt() < 3; }

Relation InnerRef(const Relation& left, const Relation& right,
                  bool residual) {
  Relation out(4);
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      if (!KeyMatch(l, r)) continue;
      if (residual && l.at(1) == r.at(1)) continue;  // $1 != $3
      (void)out.Insert(Tuple({l.at(0), l.at(1), r.at(0), r.at(1)}));
    }
  }
  return out;
}

Relation SemiAntiRef(const Relation& left, const Relation& right,
                     bool anti) {
  Relation out(2);
  for (const Tuple& l : left.rows()) {
    if (HasPartner(l, right) != anti) (void)out.Insert(l);
  }
  return out;
}

/// Definition 7: a left row failing the constraint is not probed and pads
/// with ∅; otherwise it pairs with every partner, or pads when it has none.
Relation OuterRef(const Relation& left, const Relation& right,
                  bool constrained) {
  Relation out(4);
  for (const Tuple& l : left.rows()) {
    const bool probe = !constrained || Constraint(l);
    bool matched = false;
    for (const Tuple& r : right.rows()) {
      if (!probe || !KeyMatch(l, r)) continue;
      matched = true;
      (void)out.Insert(Tuple({l.at(0), l.at(1), r.at(0), r.at(1)}));
    }
    if (!matched) {
      (void)out.Insert(Tuple({l.at(0), l.at(1), Value::Null(), Value::Null()}));
    }
  }
  return out;
}

/// The constrained outer-join as a mark: ⊥ when the row passes the
/// constraint and has a partner, ∅ otherwise.
Relation MarkRef(const Relation& left, const Relation& right,
                 bool constrained) {
  Relation out(3);
  for (const Tuple& l : left.rows()) {
    const bool marked =
        (!constrained || Constraint(l)) && HasPartner(l, right);
    (void)out.Insert(
        Tuple({l.at(0), l.at(1), marked ? Value::Mark() : Value::Null()}));
  }
  return out;
}

/// Difference keeps the left rows absent from the right, intersection
/// those present: whole-tuple equality.
Relation SetOpRef(const Relation& left, const Relation& right,
                  bool intersect) {
  Relation out(2);
  for (const Tuple& l : left.rows()) {
    const bool found = std::ranges::find(right.rows(), l) != right.rows().end();
    if (found == intersect) (void)out.Insert(l);
  }
  return out;
}

struct JoinCase {
  std::string name;
  /// Builds the logical expression for this member of the join family.
  ExprPtr (*make)(ExprPtr left, ExprPtr right);
  /// Computes the expected answer by the double loop.
  Relation (*reference)(const Relation& left, const Relation& right);
};

const JoinCase kJoinCases[] = {
    {"inner",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Join(std::move(l), std::move(r), {{0, 0}}, nullptr);
     },
     [](const Relation& l, const Relation& r) {
       return InnerRef(l, r, /*residual=*/false);
     }},
    {"inner-residual",
     [](ExprPtr l, ExprPtr r) {
       // Residual over the concatenated tuple: $1 (left payload) != $3
       // (right payload).
       return Expr::Join(std::move(l), std::move(r), {{0, 0}},
                         Predicate::ColCol(CompareOp::kNe, 1, 3));
     },
     [](const Relation& l, const Relation& r) {
       return InnerRef(l, r, /*residual=*/true);
     }},
    {"semi",
     [](ExprPtr l, ExprPtr r) {
       return Expr::SemiJoin(std::move(l), std::move(r), {{0, 0}});
     },
     [](const Relation& l, const Relation& r) {
       return SemiAntiRef(l, r, /*anti=*/false);
     }},
    {"anti",
     [](ExprPtr l, ExprPtr r) {
       return Expr::AntiJoin(std::move(l), std::move(r), {{0, 0}});
     },
     [](const Relation& l, const Relation& r) {
       return SemiAntiRef(l, r, /*anti=*/true);
     }},
    {"outer",
     [](ExprPtr l, ExprPtr r) {
       return Expr::OuterJoin(std::move(l), std::move(r), {{0, 0}});
     },
     [](const Relation& l, const Relation& r) {
       return OuterRef(l, r, /*constrained=*/false);
     }},
    {"outer-constrained",
     [](ExprPtr l, ExprPtr r) {
       return Expr::OuterJoin(std::move(l), std::move(r), {{0, 0}},
                              Predicate::ColVal(CompareOp::kLt, 1,
                                                Value::Int(3)));
     },
     [](const Relation& l, const Relation& r) {
       return OuterRef(l, r, /*constrained=*/true);
     }},
    {"mark",
     [](ExprPtr l, ExprPtr r) {
       return Expr::MarkJoin(std::move(l), std::move(r), {{0, 0}});
     },
     [](const Relation& l, const Relation& r) {
       return MarkRef(l, r, /*constrained=*/false);
     }},
    {"mark-constrained",
     [](ExprPtr l, ExprPtr r) {
       return Expr::MarkJoin(std::move(l), std::move(r), {{0, 0}},
                             Predicate::ColVal(CompareOp::kLt, 1,
                                               Value::Int(3)));
     },
     [](const Relation& l, const Relation& r) {
       return MarkRef(l, r, /*constrained=*/true);
     }},
    {"difference",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Difference(std::move(l), std::move(r));
     },
     [](const Relation& l, const Relation& r) {
       return SetOpRef(l, r, /*intersect=*/false);
     }},
    {"intersect",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Intersect(std::move(l), std::move(r));
     },
     [](const Relation& l, const Relation& r) {
       return SetOpRef(l, r, /*intersect=*/true);
     }},
};

/// Runs every join case over `left`/`right` at batch sizes 1 and 1024 and
/// compares each answer with the double loop's.
void ExpectEveryJoinKindMatchesReference(const Relation& left,
                                         const Relation& right,
                                         const std::string& label) {
  Database db;
  db.Put("left", left);
  db.Put("right", right);
  for (const JoinCase& jc : kJoinCases) {
    const ExprPtr expr = jc.make(Expr::Scan("left"), Expr::Scan("right"));
    const Relation want = jc.reference(left, right);
    for (size_t batch_size : {1u, 1024u}) {
      ExecOptions options;
      options.batch_size = batch_size;
      Executor executor(&db, options);
      auto got = executor.Evaluate(expr);
      ASSERT_TRUE(got.ok()) << jc.name << " " << label << ": "
                            << got.status();
      EXPECT_EQ(*got, want)
          << jc.name << " " << label << " batch_size=" << batch_size
          << "\ngot " << got->ToString() << "want " << want.ToString();
    }
  }
}

class JoinParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinParityTest, EveryJoinKindMatchesDoubleLoop) {
  const uint64_t seed = GetParam();
  const Relation left = RandomPairs(60, 20, seed);
  const Relation right = RandomPairs(40, 20, seed + 1000);
  const std::string label = "seed " + std::to_string(seed);
  ExpectEveryJoinKindMatchesReference(left, right, label);
  ExpectEveryJoinKindMatchesReference(Relation(2), right,
                                      label + " empty left");
  ExpectEveryJoinKindMatchesReference(left, Relation(2),
                                      label + " empty right");
}

/// Batch-size 1 degrades the batched engine to tuple-at-a-time data flow;
/// results must be unchanged.
TEST_P(JoinParityTest, TinyBatchesDoNotChangeAnswers) {
  const uint64_t seed = GetParam();
  Database db;
  db.Put("left", RandomPairs(50, 15, seed));
  db.Put("right", RandomPairs(30, 15, seed + 1000));

  for (const JoinCase& jc : kJoinCases) {
    const ExprPtr expr = jc.make(Expr::Scan("left"), Expr::Scan("right"));
    ExecOptions big;
    Executor ref(&db, big);
    auto expected = ref.Evaluate(expr);
    ASSERT_TRUE(expected.ok()) << jc.name << ": " << expected.status();
    for (size_t batch_size : {1u, 2u, 7u}) {
      ExecOptions options;
      options.batch_size = batch_size;
      Executor executor(&db, options);
      auto got = executor.Evaluate(expr);
      ASSERT_TRUE(got.ok()) << jc.name << ": " << got.status();
      EXPECT_EQ(*got, *expected)
          << jc.name << " batch_size=" << batch_size << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinParityTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 11u));

/// Partner order: an inner hash join emits each probe row's partners in
/// build order, so with several partners per key the rows come out in
/// exactly a double loop's order — probe rows in order, partners in
/// insertion order — and the work counters are the same at any batch
/// size. The counters are literals: a change to them is a change to the
/// engine's cost accounting and must be made deliberately.
TEST(HashJoinOrderTest, ManyPartnersPerKeyEmitInDoubleLoopOrder) {
  Database db;
  Relation left(2), right(2);
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(left.Insert(Tuple({Value::Int(i % 4), Value::Int(i)})).ok());
  }
  // Seven partners per key, inserted interleaved across keys.
  for (int64_t j = 0; j < 28; ++j) {
    ASSERT_TRUE(
        right.Insert(Tuple({Value::Int(j % 4), Value::Int(100 + j)})).ok());
  }
  std::vector<Tuple> want;
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      if (l.at(0) == r.at(0)) {
        want.push_back(Tuple({l.at(0), l.at(1), r.at(0), r.at(1)}));
      }
    }
  }
  ASSERT_EQ(want.size(), 30u * 7u);
  db.Put("left", std::move(left));
  db.Put("right", std::move(right));
  const ExprPtr join =
      Expr::Join(Expr::Scan("left"), Expr::Scan("right"), {{0, 0}}, nullptr);

  for (size_t batch_size : {1u, 7u, 1024u}) {
    ExecOptions options;
    options.batch_size = batch_size;
    Executor batched(&db, options);
    // 30 probe rows against 28 build rows: the cost model builds on the
    // right, the conventional side the expected order assumes.
    auto plan = batched.Lower(join);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ((*plan)->kind, PhysicalKind::kHashJoin);
    ASSERT_FALSE((*plan)->build_left);
    auto got = batched.Evaluate(join);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(std::vector<Tuple>(got->rows().begin(), got->rows().end()),
              want)
        << "batch_size=" << batch_size;
    EXPECT_EQ(batched.stats().ToString(),
              "scanned=58 materialized=238 comparisons=30 probes=30 "
              "operators=3")
        << "batch_size=" << batch_size;
  }
}

/// A violated integrity check (E17 c3: a student enrolled in two
/// departments) stops at its first witness. Which joined row is first
/// depends on partner order, so every batch size must stop after the same
/// scans, probes and materializations, pinned here as literals.
TEST(HashJoinOrderTest, ViolatedCheckStopsAtFirstWitnessCounters) {
  Database db;
  Relation enrolled(2);
  auto add = [&](const char* student, const char* department) {
    ASSERT_TRUE(enrolled
                    .Insert(Tuple({Value::String(student),
                                   Value::String(department)}))
                    .ok());
  };
  add("ann", "cs");
  add("bob", "cs");
  add("cid", "math");
  add("bob", "math");  // bob's partners: cs, math, physics, in that order
  add("dan", "cs");
  add("bob", "physics");
  add("eve", "math");
  db.Put("enrolled", std::move(enrolled));
  const char* check =
      "forall x d1 d2: (enrolled(x, d1) & enrolled(x, d2)) -> d1 = d2";

  QueryProcessor batched(&db);
  for (size_t batch_size : {1u, 1024u}) {
    ExecOptions options;
    options.batch_size = batch_size;
    batched.SetExecOptions(options);
    auto got = batched.Run(check);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->answer.truth);
    const std::string label = "batch_size=" + std::to_string(batch_size);
    EXPECT_EQ(got->stats.tuples_scanned, 9u) << label;
    EXPECT_EQ(got->stats.hash_probes, 2u) << label;
    EXPECT_EQ(got->stats.tuples_materialized, 10u) << label;
  }
}

}  // namespace
}  // namespace bryql
