#include "metrics.h"

#include <gtest/gtest.h>

#include "oracle.h"
#include "storage/builder.h"

namespace yardstick {
namespace {

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesFor(0.95), 200u);
  EXPECT_FALSE(SupportsPercentile(199, 0.95));
  EXPECT_TRUE(SupportsPercentile(200, 0.95));
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_FALSE(SupportsPercentile(0, 0.5));
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(Percentile(v, 0.95), 190.0);
  EXPECT_EQ(Percentile(v, 0.5), 100.0);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // Exactly ten samples lie above the reported p95.
  size_t above = 0;
  for (double x : v) above += x > Percentile(v, 0.95);
  EXPECT_EQ(above, kMinTailSamples);
}

TEST(Generators, ZipfIsDeterministicPerSeedAndSkewed) {
  Zipf zipf(8000, 1.0);
  std::mt19937_64 a(7), b(7), c(8);
  std::vector<size_t> xa, xb, xc;
  for (int i = 0; i < 1000; ++i) {
    xa.push_back(zipf.Sample(a));
    xb.push_back(zipf.Sample(b));
    xc.push_back(zipf.Sample(c));
  }
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
  // Rank 0 has weight 1/H(8000) ≈ 10.5% under s = 1.
  size_t top = 0;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 100000; ++i) top += zipf.Sample(rng) == 0;
  EXPECT_NEAR(static_cast<double>(top) / 100000, 0.105, 0.01);
  for (size_t x : xa) EXPECT_LT(x, 8000u);
}

TEST(Generators, ScheduleIsDeterministicPerSeed) {
  auto a = PoissonSchedule(100, 10, 42);
  auto b = PoissonSchedule(100, 10, 42);
  auto c = PoissonSchedule(100, 10, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 1000, 150);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 10'000'000'000ull);
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
}

TEST(Generators, ViolationPlanHasTheSameMixOnEverySeed) {
  auto a = ViolationPlan(40, 6, 5);
  EXPECT_EQ(a, ViolationPlan(40, 6, 5));
  EXPECT_NE(a, ViolationPlan(40, 6, 6));  // positions follow the seed
  for (uint64_t seed = 0; seed < 20; ++seed) {
    std::vector<int> per_kind(6, 0);
    size_t clean = 0;
    for (int kind : ViolationPlan(40, 6, seed)) {
      if (kind < 0) {
        ++clean;
      } else {
        ASSERT_LT(kind, 6);
        ++per_kind[static_cast<size_t>(kind)];
      }
    }
    EXPECT_EQ(clean, 30u);
    EXPECT_EQ(per_kind, (std::vector<int>{2, 2, 2, 2, 1, 1}));
  }
}

TEST(Slices, SliceRatesAndPercentiles) {
  std::vector<double> reads;
  for (int i = 300; i >= 1; --i) reads.push_back(i);
  Slice s = MakeSlice(50, 0.5, 0.25, reads);
  EXPECT_EQ(s.reads, 300u);
  EXPECT_EQ(s.p50_ms, 150.0);
  EXPECT_EQ(s.p95_ms, 285.0);
  EXPECT_DOUBLE_EQ(s.ops_per_s(), 100.0);
  EXPECT_DOUBLE_EQ(s.cpu_ms_per_op(), 5.0);
  EXPECT_EQ(Slice().ops_per_s(), 0.0);
}

TEST(Slices, QuietValueIgnoresSlowedSlices) {
  // Twenty slices at the program's own speed, interleaved with twenty
  // that a busy neighbour slowed by up to 2x.
  std::vector<double> latency, rate;
  for (int i = 0; i < 20; ++i) {
    latency.push_back(1.0 + 0.001 * i);
    latency.push_back(1.5 + 0.025 * i);
    rate.push_back(1000.0 - i);
    rate.push_back(500.0 + 10 * i);
  }
  EXPECT_DOUBLE_EQ(QuietValue(latency, true), 1.003);  // 4th of 40
  EXPECT_DOUBLE_EQ(QuietValue(rate, false), 997.0);    // 4th from the top
  // A uniformly slower program moves the quiet value with it.
  for (double& v : latency) v *= 1.3;
  EXPECT_DOUBLE_EQ(QuietValue(latency, true), 1.003 * 1.3);
}

TEST(Placement, QuickestCpusAreTheFastestProbes) {
  const std::vector<int> cpus = {0, 1, 2, 3};
  const std::vector<double> ms = {3.9, 2.2, 2.4, 2.2};
  EXPECT_EQ(QuickestCpus(cpus, ms, 1), (std::vector<int>{1}));
  EXPECT_EQ(QuickestCpus(cpus, ms, 3), (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(QuickestCpus(cpus, ms, 8), (std::vector<int>{1, 3, 2, 0}));
  EXPECT_EQ(QuickestCpus({5, 7}, {1.0, 0.5}, 1), (std::vector<int>{7}));
}

Span MakeSpan(const char* name, uint64_t start, uint64_t end,
              int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime) {
  std::vector<Span> spans = {
      MakeSpan("op", 0, 100, -1),
      MakeSpan("a", 10, 30, 0),
      MakeSpan("b", 20, 50, 0),  // overlaps a: 10..50 covered once
      MakeSpan("c", 90, 120, 0),  // runs past its parent: clipped to 90..100
      MakeSpan("leaf", 12, 18, 1),
  };
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 20u - 6u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);
  auto by_name = SelfTimesByName(spans);
  EXPECT_DOUBLE_EQ(by_name["op"][0], 0.05);  // µs
}

TEST(Spans, TracerRecordsParentsAndRequests) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 7);
    ScopedSpan inner(&tracer, "inner", 7);
  }
  ScopedSpan untraced(nullptr, "ignored");
  std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(Accounting, WrongExpectedAnswerLowersOkFrac) {
  bryql::Database db;
  db.Put("student", bryql::UnaryStrings({"ann", "bob", "cal"}));
  db.Put("speaks", bryql::StringPairs({{"ann", "french"}, {"cal", "latin"}}));
  bryql::QueryProcessor qp(&db);
  const std::string text = "{ x | student(x) & speaks(x, french) }";
  auto query = bryql::ParseQuery(text);
  ASSERT_TRUE(query.ok());
  auto right = Reference(db, *query);
  ASSERT_TRUE(right.ok());
  bryql::Answer wrong = *right;
  wrong.relation = bryql::UnaryStrings({"ann", "bob"});

  OkCounter ok;
  for (const bryql::Answer* expected : {&*right, &wrong, &*right}) {
    auto run = qp.Run(text);
    ok.Record(run.ok() && SameAnswer(run->answer, *expected));
  }
  EXPECT_EQ(ok.attempted(), 3u);
  EXPECT_EQ(ok.failed(), 1u);
  EXPECT_DOUBLE_EQ(ok.frac(), 2.0 / 3.0);
  EXPECT_EQ(AnswerCount(*right), 1u);
}

}  // namespace
}  // namespace yardstick
