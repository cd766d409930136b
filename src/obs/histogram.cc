#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

namespace qbism::obs {

namespace {

/// Midpoint of the integer nanosecond values bucket `i` holds (the
/// inverse of Histogram::BucketOf). It is within half a sub-bucket
/// width, at most 1/32, of any of them.
double BucketMidpoint(int i) {
  if (i < Histogram::kSubBuckets) return static_cast<double>(i);
  int shift = i / Histogram::kSubBuckets - 1;
  uint64_t lower =
      static_cast<uint64_t>(i % Histogram::kSubBuckets + Histogram::kSubBuckets)
      << shift;
  uint64_t width = uint64_t{1} << shift;
  return static_cast<double>(lower) + static_cast<double>(width - 1) / 2.0;
}

}  // namespace

void Histogram::RecordSeconds(double seconds) {
  double nanos = seconds * 1e9;
  if (!(nanos > 0.0)) nanos = 0.0;
  Record(nanos < 0x1p64 ? static_cast<uint64_t>(nanos) : ~uint64_t{0});
}

Histogram::Summary Histogram::Summarize() const {
  Summary out;
  out.count = count_.load(std::memory_order_relaxed);
  out.total_nanos = total_nanos_.load(std::memory_order_relaxed);
  out.max_nanos = max_nanos_.load(std::memory_order_relaxed);

  uint64_t counts[kBuckets];
  uint64_t n = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    n += counts[i];
  }
  if (n == 0) return out;
  const double max = static_cast<double>(out.max_nanos);
  auto percentile = [&](double p) {
    // Nearest rank: the ceil(p * n)-th smallest sample, 1-based.
    uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(n) - 1e-9)));
    uint64_t seen = 0;
    int i = 0;
    for (; i < kBuckets - 1; ++i) {
      seen += counts[i];
      if (seen >= rank) break;
    }
    return std::min(BucketMidpoint(i), max);
  };
  out.p50_nanos = percentile(0.50);
  out.p95_nanos = percentile(0.95);
  out.p99_nanos = percentile(0.99);
  out.p999_nanos = percentile(0.999);
  return out;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  total_nanos_.store(0, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

}  // namespace qbism::obs
