#ifndef QBISM_OBS_HISTOGRAM_H_
#define QBISM_OBS_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <cstdint>

namespace qbism::obs {

/// Lock-free log-linear latency histogram over nanoseconds: the one
/// histogram behind the tracer's per-stage summaries and the service's
/// and socket server's request latencies. Values below 16 ns get exact
/// buckets; above that each power of two is split into 16 linear
/// sub-buckets, up to 2^48 ns (~78 hours), and larger values share the
/// top bucket. Count, total and max are exact. Every field is a relaxed
/// atomic, so recording from many threads never takes a lock.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 16
  static constexpr int kMaxExponent = 48;
  static constexpr int kBuckets =
      (kMaxExponent - kSubBits + 1) * kSubBuckets;  // 720

  /// Point-in-time view. Percentiles are nearest-rank (the smallest
  /// sample with at least p of the samples at or below it), reported at
  /// the midpoint of that sample's bucket and clamped to the max, so
  /// each is within 1/32 of the exact sample.
  struct Summary {
    uint64_t count = 0;
    uint64_t total_nanos = 0;
    uint64_t max_nanos = 0;
    double p50_nanos = 0.0;
    double p95_nanos = 0.0;
    double p99_nanos = 0.0;
    double p999_nanos = 0.0;
  };

  void Record(uint64_t nanos) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = max_nanos_.load(std::memory_order_relaxed);
    while (nanos > prev && !max_nanos_.compare_exchange_weak(
                               prev, nanos, std::memory_order_relaxed)) {
    }
  }

  /// Records a duration in seconds; negative durations record as 0.
  void RecordSeconds(double seconds);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Safe to call while other threads record: percentile ranks come
  /// from the sum of the bucket counts read, not from count(), so a
  /// concurrent summary never walks past the last bucket.
  Summary Summarize() const;

  /// Not thread-safe against concurrent Record; quiesce first.
  void Reset();

  static int BucketOf(uint64_t nanos) {
    if (nanos < kSubBuckets) return static_cast<int>(nanos);
    int exponent = 63 - std::countl_zero(nanos);  // >= kSubBits
    if (exponent >= kMaxExponent) return kBuckets - 1;
    // nanos >> shift keeps the leading one and the next kSubBits bits,
    // i.e. kSubBuckets + the linear sub-bucket, and (shift + 1) *
    // kSubBuckets buckets lie below this power of two.
    int shift = exponent - kSubBits;
    return shift * kSubBuckets + static_cast<int>(nanos >> shift);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_nanos_{0};
  std::atomic<uint64_t> max_nanos_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

}  // namespace qbism::obs

#endif  // QBISM_OBS_HISTOGRAM_H_
