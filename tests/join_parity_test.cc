// Join-algorithm parity: every member of the join family — inner, semi,
// anti (complement-join), outer, mark (constrained outer-join), plus the
// difference/intersection reductions — must produce identical relations
// under hash and sort-merge lowering. Parameterized over seeds so the
// inputs cover duplicates, empty partner sets and skewed keys. With
// several partners per key, the inner hash join must emit rows in probe
// order, partners in insertion order, and its work counters, also under a
// first-witness test, are pinned at every batch size.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/predicate.h"
#include "core/query_processor.h"
#include "exec/executor.h"
#include "storage/database.h"
#include "workload/university.h"

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

struct JoinCase {
  std::string name;
  /// Builds the logical expression for this member of the join family.
  ExprPtr (*make)(ExprPtr left, ExprPtr right);
};

const JoinCase kJoinCases[] = {
    {"inner",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Join(std::move(l), std::move(r), {{0, 0}}, nullptr);
     }},
    {"inner-residual",
     [](ExprPtr l, ExprPtr r) {
       // Residual over the concatenated tuple: $1 (left payload) != $3
       // (right payload).
       return Expr::Join(std::move(l), std::move(r), {{0, 0}},
                         Predicate::ColCol(CompareOp::kNe, 1, 3));
     }},
    {"semi",
     [](ExprPtr l, ExprPtr r) {
       return Expr::SemiJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"anti",
     [](ExprPtr l, ExprPtr r) {
       return Expr::AntiJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"outer",
     [](ExprPtr l, ExprPtr r) {
       return Expr::OuterJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"outer-constrained",
     [](ExprPtr l, ExprPtr r) {
       return Expr::OuterJoin(std::move(l), std::move(r), {{0, 0}},
                              Predicate::ColVal(CompareOp::kLt, 1,
                                                Value::Int(3)));
     }},
    {"mark",
     [](ExprPtr l, ExprPtr r) {
       return Expr::MarkJoin(std::move(l), std::move(r), {{0, 0}});
     }},
    {"mark-constrained",
     [](ExprPtr l, ExprPtr r) {
       return Expr::MarkJoin(std::move(l), std::move(r), {{0, 0}},
                             Predicate::ColVal(CompareOp::kLt, 1,
                                               Value::Int(3)));
     }},
    {"difference",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Difference(std::move(l), std::move(r));
     }},
    {"intersect",
     [](ExprPtr l, ExprPtr r) {
       return Expr::Intersect(std::move(l), std::move(r));
     }},
};

class JoinParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinParityTest, HashAndSortMergeAgreeOnEveryJoinKind) {
  const uint64_t seed = GetParam();
  Database db;
  db.Put("left", RandomPairs(60, 20, seed));
  db.Put("right", RandomPairs(40, 20, seed + 1000));

  for (const JoinCase& jc : kJoinCases) {
    const ExprPtr expr = jc.make(Expr::Scan("left"), Expr::Scan("right"));

    Relation reference{0};
    bool first = true;
    for (ExecOptions::JoinAlgorithm algo :
         {ExecOptions::JoinAlgorithm::kHash,
          ExecOptions::JoinAlgorithm::kSortMerge}) {
      ExecOptions options;
      options.join_algorithm = algo;
      Executor executor(&db, options);
      auto got = executor.Evaluate(expr);
      const char* config =
          algo == ExecOptions::JoinAlgorithm::kHash ? "hash" : "sort-merge";
      ASSERT_TRUE(got.ok())
          << jc.name << " [" << config << "] seed " << seed << ": "
          << got.status();
      if (first) {
        reference = std::move(*got);
        first = false;
      } else {
        EXPECT_EQ(*got, reference)
            << jc.name << ": " << config << " vs hash seed " << seed;
      }
    }
  }
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
    EXPECT_EQ(got->rows(), want) << "batch_size=" << batch_size;
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

/// End-to-end parity on the paper suite: the QueryProcessor run under
/// sort-merge lowering agrees with the default hash lowering.
TEST(JoinParityEndToEndTest, PaperSuiteAgreesAcrossJoinAlgorithms) {
  UniversityConfig config;
  config.students = 40;
  config.professors = 10;
  config.lectures = 18;
  config.seed = 5;
  Database db = MakeUniversity(config);

  QueryProcessor hash_qp(&db);
  QueryProcessor merge_qp(&db);
  ExecOptions merge;
  merge.join_algorithm = ExecOptions::JoinAlgorithm::kSortMerge;
  merge_qp.SetExecOptions(merge);

  for (const NamedQuery& nq : PaperQuerySuite()) {
    auto a = hash_qp.Run(nq.text);
    auto b = merge_qp.Run(nq.text);
    ASSERT_TRUE(a.ok()) << nq.name << ": " << a.status();
    ASSERT_TRUE(b.ok()) << nq.name << ": " << b.status();
    if (a->answer.closed) {
      EXPECT_EQ(a->answer.truth, b->answer.truth) << nq.name;
    } else {
      EXPECT_EQ(a->answer.relation, b->answer.relation) << nq.name;
    }
  }
}

}  // namespace
}  // namespace bryql
