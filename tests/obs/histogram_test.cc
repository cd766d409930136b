// obs::Histogram against exact nearest-rank percentiles over sorted
// samples, its exact buckets and top-bucket clamp, and recording from
// several threads while another summarizes.

#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qbism::obs {
namespace {

/// The exact nearest-rank percentile: the ceil(p * n)-th smallest.
uint64_t ExactPercentile(const std::vector<uint64_t>& sorted, double p) {
  double rank = std::ceil(p * static_cast<double>(sorted.size()) - 1e-9);
  size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

struct Distribution {
  std::string name;
  std::function<uint64_t(std::mt19937_64&)> draw;  // nanoseconds
};

std::vector<Distribution> Distributions() {
  return {
      {"lognormal_2ms",
       [](std::mt19937_64& rng) {
         std::lognormal_distribution<double> d(std::log(2e6), 0.5);
         return static_cast<uint64_t>(d(rng));
       }},
      {"bimodal_1ms_100ms",
       [](std::mt19937_64& rng) {
         std::bernoulli_distribution slow(0.1);
         double mode = slow(rng) ? 100e6 : 1e6;
         std::lognormal_distribution<double> d(std::log(mode), 0.1);
         return static_cast<uint64_t>(d(rng));
       }},
      {"uniform_0_50ms",
       [](std::mt19937_64& rng) {
         return std::uniform_int_distribution<uint64_t>(0, 50'000'000)(rng);
       }},
      {"pareto_heavy_tail",
       [](std::mt19937_64& rng) {
         // Pareto with shape 1.1 and scale 100 us: infinite variance.
         double u = std::uniform_real_distribution<double>(1e-12, 1.0)(rng);
         return static_cast<uint64_t>(100e3 / std::pow(u, 1.0 / 1.1));
       }},
  };
}

TEST(HistogramTest, PercentilesWithinOneThirtySecondOfExactNearestRank) {
  for (const Distribution& dist : Distributions()) {
    for (size_t n : {size_t{100}, size_t{10'000}, size_t{200'000}}) {
      SCOPED_TRACE(dist.name + " n=" + std::to_string(n));
      std::mt19937_64 rng(n);
      Histogram hist;
      std::vector<uint64_t> samples;
      uint64_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t v = dist.draw(rng);
        samples.push_back(v);
        total += v;
        hist.Record(v);
      }
      std::sort(samples.begin(), samples.end());
      ASSERT_LT(samples.back(), uint64_t{1} << Histogram::kMaxExponent);

      Histogram::Summary s = hist.Summarize();
      EXPECT_EQ(s.count, n);
      EXPECT_EQ(s.total_nanos, total);
      EXPECT_EQ(s.max_nanos, samples.back());
      const std::pair<double, double> reported[] = {{0.50, s.p50_nanos},
                                                    {0.95, s.p95_nanos},
                                                    {0.99, s.p99_nanos},
                                                    {0.999, s.p999_nanos}};
      for (const auto& [p, estimate] : reported) {
        double exact = static_cast<double>(ExactPercentile(samples, p));
        EXPECT_LE(std::abs(estimate - exact), exact / 32.0) << "p=" << p;
      }
    }
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram hist;
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketOf(v), static_cast<int>(v));
    hist.Record(v);
  }
  Histogram::Summary s = hist.Summarize();
  EXPECT_EQ(s.count, 16u);
  EXPECT_EQ(s.total_nanos, 120u);
  EXPECT_EQ(s.max_nanos, 15u);
  EXPECT_EQ(s.p50_nanos, 7.0);   // rank 8 of 0..15
  EXPECT_EQ(s.p95_nanos, 15.0);  // rank 16
}

TEST(HistogramTest, FixedFootprintAndTopBucketClamp) {
  // The footprint is the bucket array whatever the sample count.
  EXPECT_LE(sizeof(Histogram), 6 * 1024u);
  const uint64_t top = uint64_t{1} << Histogram::kMaxExponent;
  EXPECT_EQ(Histogram::BucketOf(top - 1), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketOf(top), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketOf(~0ull), Histogram::kBuckets - 1);

  Histogram hist;
  hist.Record(~0ull);
  Histogram::Summary s = hist.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max_nanos, ~0ull);
  EXPECT_GT(s.p50_nanos, static_cast<double>(top / 2));
  EXPECT_LE(s.p999_nanos, static_cast<double>(s.max_nanos));
}

TEST(HistogramTest, RecordSecondsClampsNegativeToZero) {
  Histogram hist;
  hist.RecordSeconds(-1.0);
  hist.RecordSeconds(0.5);
  Histogram::Summary s = hist.Summarize();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.total_nanos, 500'000'000u);
  EXPECT_EQ(s.max_nanos, 500'000'000u);
  EXPECT_EQ(s.p50_nanos, 0.0);
}

TEST(HistogramTest, ConcurrentRecordAndSummarizeThenReset) {
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 100'000;
  Histogram hist;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&hist, &writers_left, t] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        hist.Record((i % 1000 + 1) * 1000 * static_cast<uint64_t>(t + 1));
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&hist, &writers_left] {
    while (writers_left.load() > 0) {
      Histogram::Summary s = hist.Summarize();
      EXPECT_LE(s.p50_nanos, s.p95_nanos);
      EXPECT_LE(s.p95_nanos, s.p99_nanos);
      EXPECT_LE(s.p99_nanos, s.p999_nanos);
      EXPECT_LE(s.p999_nanos, static_cast<double>(s.max_nanos));
    }
  });
  for (std::thread& th : threads) th.join();

  // Each writer records (1..1000) us times (t + 1), 100 times over.
  uint64_t total = 0;
  for (uint64_t t = 1; t <= kWriters; ++t) {
    total += 100 * 1000 * (500'500 * t);
  }
  Histogram::Summary s = hist.Summarize();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
  EXPECT_EQ(hist.count(), kWriters * kPerWriter);
  EXPECT_EQ(s.total_nanos, total);
  EXPECT_EQ(s.max_nanos, 1000u * 1000u * kWriters);

  hist.Reset();
  s = hist.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.total_nanos, 0u);
  EXPECT_EQ(s.max_nanos, 0u);
  EXPECT_EQ(s.p99_nanos, 0.0);
  hist.Record(42);
  s = hist.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.p50_nanos, 42.0);
}

}  // namespace
}  // namespace qbism::obs
