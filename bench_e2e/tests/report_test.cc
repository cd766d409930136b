// Tests of the benchmark's own arithmetic: the percentile rule, the
// request accounting behind error_rate, and the quartile spread the
// benchmark's steadiness is judged by.

#include <gtest/gtest.h>

#include <vector>

#include "report.h"

namespace qbism::e2e {
namespace {

TEST(PercentileRule, ReportsHighestPercentileWithTenSamplesBeyond) {
  // p99 over 1000 samples is rank 990: exactly 10 samples lie beyond.
  EXPECT_EQ(SupportedTailPercentile(1000), 99.0);
  // One sample fewer leaves only 9 beyond p99; p95 is the answer.
  EXPECT_EQ(SupportedTailPercentile(999), 95.0);
  // p99.9 needs 10 beyond rank ceil(0.999 n): n = 10000 gives exactly 10.
  EXPECT_EQ(SupportedTailPercentile(10000), 99.9);
  EXPECT_EQ(SupportedTailPercentile(9999), 99.0);
  EXPECT_EQ(SupportedTailPercentile(200), 95.0);
  EXPECT_EQ(SupportedTailPercentile(100), 90.0);
  EXPECT_EQ(SupportedTailPercentile(20), 50.0);
  EXPECT_EQ(SupportedTailPercentile(19), std::nullopt);
  EXPECT_EQ(SupportedTailPercentile(0), std::nullopt);
}

TEST(PercentileRule, EverySupportedPercentileLeavesTenBeyond) {
  for (size_t n = 1; n < 3000; ++n) {
    auto pct = SupportedTailPercentile(n);
    if (!pct) continue;
    size_t rank = NearestRankIndex(n, *pct) + 1;
    EXPECT_GE(n - rank, kMinSamplesBeyond) << "n=" << n;
  }
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  EXPECT_EQ(Percentile(&v, 50.0), 50.0);
  EXPECT_EQ(Percentile(&v, 99.0), 99.0);
  EXPECT_EQ(Percentile(&v, 100.0), 100.0);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 50.0), 0.0);
}

TEST(ErrorAccounting, RefusedAndFailedBothCountAsAttempted) {
  Accounting a;
  a.ok = 90;
  a.failed = 4;
  a.refused = 5;
  a.wrong = 1;
  EXPECT_EQ(a.attempted(), 100u);
  EXPECT_EQ(a.errors(), 10u);
  EXPECT_DOUBLE_EQ(a.ErrorRate(), 0.10);

  Accounting refused_only;
  refused_only.refused = 3;
  EXPECT_EQ(refused_only.attempted(), 3u);
  EXPECT_DOUBLE_EQ(refused_only.ErrorRate(), 1.0);

  Accounting none;
  EXPECT_EQ(none.attempted(), 0u);
  EXPECT_DOUBLE_EQ(none.ErrorRate(), 0.0);

  a += refused_only;
  EXPECT_EQ(a.attempted(), 103u);
  EXPECT_EQ(a.errors(), 13u);
}

TEST(ErrorAccounting, ResultLineCountsEveryErrorAsFailed) {
  Accounting a;
  a.ok = 7;
  a.refused = 2;
  a.failed = 1;
  MetricSet m;
  m.Set("qps", 12.5);
  std::string line = ResultLine(true, a, {{"qps", "1/s"}}, m);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 3, "
            "\"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}");
}

TEST(Quartiles, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  Quartiles q = ComputeQuartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolated)
  Quartiles two = ComputeQuartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
  Quartiles four = ComputeQuartiles({3, 1, 2, 4});
  EXPECT_DOUBLE_EQ(four.q1, 1.25);
  EXPECT_DOUBLE_EQ(four.q3, 3.75);
  EXPECT_DOUBLE_EQ(four.RelativeSpread(), 1.0);
}

TEST(Names, MetricNamesAreUniqueAndWellFormed) {
  std::vector<std::string> seen;
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      std::string name = d.name;
      EXPECT_LE(name.size(), 64u);
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(name[0])));
      for (const std::string& other : seen) EXPECT_NE(other, name);
      seen.push_back(name);
    }
  }
}

}  // namespace
}  // namespace qbism::e2e
