// Row hand-off between physical operators: BatchCursor pulls at any
// capacity yield the child's rows in order, a row taken from the cursor
// stays the caller's across refills, and ProjectOp, which builds each
// projection in the next output slot, gives a duplicate's slot back
// without leaving it visible or counting it as materialized.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/batch.h"
#include "common/governor.h"
#include "exec/physical/filter.h"  // ProjectOp
#include "exec/physical/operator.h"
#include "exec/physical/scan.h"
#include "exec/stats.h"

namespace bryql {
namespace {

/// Strings long enough to live on the heap, so a row handed over by
/// pointer swap versus by copy is observable through its storage.
Value LongString(const std::string& tag) {
  return Value::String("row-" + tag + "-with-a-heap-allocated-payload");
}

Relation MakeRows(size_t n) {
  Relation rel(2);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(*rel.Insert(
        Tuple({LongString(std::to_string(i)), Value::Int(int64_t(i))})));
  }
  return rel;
}

TEST(BatchCursorTest, PullsAtAnyCapacityYieldTheRowsInOrder) {
  const Relation rel = MakeRows(10);
  for (size_t capacity : {1u, 3u, 1024u}) {
    RelationSourceOp source{Relation(rel)};
    ASSERT_TRUE(source.Open().ok());
    BatchCursor cursor(&source);
    std::vector<Tuple> pulled;
    Tuple t;
    while (true) {
      bool have = false;
      ASSERT_TRUE(cursor.Next(&t, &have, capacity).ok());
      if (!have) break;
      pulled.push_back(t);
    }
    EXPECT_EQ(pulled, std::vector<Tuple>(rel.rows().begin(), rel.rows().end()))
        << "capacity " << capacity;
  }
}

TEST(BatchCursorTest, HeldRowSurvivesTheNextRefill) {
  const Relation rel = MakeRows(7);
  RelationSourceOp source{Relation(rel)};
  ASSERT_TRUE(source.Open().ok());
  BatchCursor cursor(&source);
  bool have = false;
  Tuple held;
  ASSERT_TRUE(cursor.Next(&held, &have, 3).ok());
  ASSERT_TRUE(have);
  // Rows 1 and 2 drain the first batch of three; row 3 refills it.
  Tuple other;
  for (size_t i = 1; i < rel.size(); ++i) {
    ASSERT_TRUE(cursor.Next(&other, &have, 3).ok());
    ASSERT_TRUE(have);
    EXPECT_EQ(other, rel.rows()[i]);
    EXPECT_EQ(held, rel.rows()[0]) << "after pulling row " << i;
  }
  ASSERT_TRUE(cursor.Next(&other, &have, 3).ok());
  EXPECT_FALSE(have);
  EXPECT_EQ(held, rel.rows()[0]);
}

TEST(TupleBatchTest, PopSlotHidesTheRowAndReusesTheSlot) {
  TupleBatch batch(4);
  *batch.AddSlot() = Tuple({LongString("kept")});
  Tuple* dropped = batch.AddSlot();
  *dropped = Tuple({LongString("dropped")});
  batch.PopSlot();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], Tuple({LongString("kept")}));
  EXPECT_EQ(batch.AddSlot(), dropped);  // the same warm slot again
  EXPECT_EQ(batch.size(), 2u);
}

class ProjectOpTest : public ::testing::Test {
 protected:
  /// π_$0 over (a,1) (a,2) (b,3) (b,4) (c,5) (c,6): every second row is
  /// a duplicate of the one before it, the last one included.
  ProjectOpTest() : rel_(2) {
    for (const char* name : {"a", "b", "c"}) {
      for (int k = 0; k < 2; ++k) {
        EXPECT_TRUE(*rel_.Insert(
            Tuple({LongString(name), Value::Int(int64_t(rel_.size()))})));
      }
    }
    ctx_.stats = &stats_;
    ctx_.governor = &governor_;
  }

  /// Drains a fresh ProjectOp in pulls of `capacity` rows into `out`,
  /// which starts warm: filled with rows that must not show through.
  std::vector<Tuple> Drain(size_t capacity) {
    ProjectOp project(PhysicalOpPtr(new RelationSourceOp(Relation(rel_))),
                      {0}, ctx_);
    EXPECT_TRUE(project.Open().ok());
    TupleBatch out(8);
    for (int i = 0; i < 8; ++i) *out.AddSlot() = Tuple({LongString("stale")});
    out.set_capacity(capacity);
    std::vector<Tuple> rows;
    while (true) {
      EXPECT_TRUE(project.NextBatch(&out).ok());
      if (out.empty()) break;
      EXPECT_LE(out.size(), capacity);
      for (size_t i = 0; i < out.size(); ++i) rows.push_back(out[i]);
    }
    return rows;
  }

  Relation rel_;
  ExecStats stats_;
  ResourceGovernor governor_;
  PhysicalContext ctx_;
};

TEST_F(ProjectOpTest, DuplicatesLeaveNoStaleRowAtAnyCapacity) {
  const std::vector<Tuple> expected = {Tuple({LongString("a")}),
                                       Tuple({LongString("b")}),
                                       Tuple({LongString("c")})};
  for (size_t capacity : {1u, 3u, 1024u}) {
    stats_ = ExecStats();
    EXPECT_EQ(Drain(capacity), expected) << "capacity " << capacity;
    // One materialization per fresh row; duplicates only tick.
    EXPECT_EQ(stats_.tuples_materialized, expected.size())
        << "capacity " << capacity;
  }
}

TEST_F(ProjectOpTest, TrippedAdmissionLeavesNoRowBehind) {
  QueryOptions options;
  options.max_materialized_tuples = 1;
  ResourceGovernor capped(options);
  ctx_.governor = &capped;
  ProjectOp project(PhysicalOpPtr(new RelationSourceOp(Relation(rel_))), {0},
                    ctx_);
  ASSERT_TRUE(project.Open().ok());
  TupleBatch out(1024);
  Status status = project.NextBatch(&out);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Only the admitted row is in the batch, not the one that tripped.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Tuple({LongString("a")}));
}

}  // namespace
}  // namespace bryql
