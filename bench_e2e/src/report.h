#ifndef QBISM_BENCH_E2E_REPORT_H_
#define QBISM_BENCH_E2E_REPORT_H_

// Measurement arithmetic and result output for the end-to-end
// benchmark: the percentile rule, request accounting, quartile spreads,
// the metric name tables (which must match BENCHMARK.json) and the one
// JSON line the benchmark ends with.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace qbism::e2e {

/// The percentiles the benchmark may report as a tail, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank index (0-based) of percentile `pct` over `n` sorted
/// samples: the smallest sample with at least pct% of samples at or
/// below it. Precondition: n > 0.
size_t NearestRankIndex(size_t n, double pct);

/// The highest percentile of kTailLadder that has at least
/// kMinSamplesBeyond samples beyond it among `n` samples, or nullopt when
/// even the median is unsupported.
std::optional<double> SupportedTailPercentile(size_t n);

/// Nearest-rank percentile of `samples` (sorted in place). 0 when empty.
double Percentile(std::vector<double>* samples, double pct);

/// Python's statistics.quantiles(values, n=4) (the default "exclusive"
/// method): returns {q1, median, q3}. Needs at least two values; one
/// value yields {v, v, v}, none yields zeros.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median, 0 when the median is 0.
  double RelativeSpread() const;
};
Quartiles ComputeQuartiles(std::vector<double> values);

/// Outcome accounting for one run. Every request the benchmark issues
/// is attempted; one that fails, is refused by admission, or returns a
/// wrong answer is an error.
struct Accounting {
  uint64_t ok = 0;       // completed with a verified answer
  uint64_t failed = 0;   // the system returned an error
  uint64_t refused = 0;  // bounced before execution (quota / busy / full)
  uint64_t wrong = 0;    // completed, but the answer did not verify

  uint64_t attempted() const { return ok + failed + refused + wrong; }
  uint64_t errors() const { return failed + refused + wrong; }
  /// errors / attempted (0 when nothing was attempted).
  double ErrorRate() const;
  Accounting& operator+=(const Accounting& other);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
/// End-to-end metrics (untraced runs) and per-layer metrics (traced
/// runs), in BENCHMARK.json order.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Ordered name -> value bag; units come from the tables above.
class MetricSet {
 public:
  void Set(const std::string& name, double value);
  std::optional<double> Get(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

/// Renders a number with every significant digit a double carries, as a
/// JSON number (non-finite values become 0).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

/// The final result line: {"correct", "attempted", "failed", "metrics"}
/// with every metric of `defs` (missing ones are an error the caller
/// must prevent; they are reported as 0 here).
std::string ResultLine(bool correct, const Accounting& accounting,
                       const std::vector<MetricDef>& defs,
                       const MetricSet& metrics);

}  // namespace qbism::e2e

#endif  // QBISM_BENCH_E2E_REPORT_H_
