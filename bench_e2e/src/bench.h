#ifndef QBISM_BENCH_E2E_BENCH_H_
#define QBISM_BENCH_E2E_BENCH_H_

// Shared pieces of the end-to-end benchmark's workloads: run options,
// the run result, answer fingerprints, and small timing helpers. Every
// layer is driven from outside through its public functions; nothing
// here reaches into src/ internals.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "qbism/medical_server.h"
#include "region/encoding.h"
#include "report.h"
#include "spans.h"
#include "volume/volume.h"

namespace qbism::e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run produced. `metrics` holds every metric the run
/// measured; `notes` are human-readable lines printed before the result.
struct RunResult {
  bool correct = true;
  Accounting accounting;
  MetricSet metrics;
  std::vector<std::string> notes;
  SpanLog spans;
  std::map<std::string, double> extra;  // unbounded context for the log

  /// Marks the run incorrect; the first few reasons are kept as notes.
  void Fail(const std::string& why) {
    correct = false;
    if (++failures <= 10) notes.push_back("CHECK FAILED: " + why);
  }
  int failures = 0;
};

/// Set-up repetitions per untraced run; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;

/// The four request classes of the §6.1 query shapes.
enum class WireClass : int { kFull = 0, kBox, kStructure, kBand, kCount };
const char* WireClassName(WireClass c);
WireClass ClassOf(const QuerySpec& spec);

/// Order-sensitive 64-bit digest of an answer: the region's runs and
/// the voxel values, plus their counts. Two answers with equal
/// fingerprints and equal encoded payload sizes are taken as equal.
struct Fingerprint {
  uint64_t voxels = 0;
  uint64_t runs = 0;
  uint64_t digest = 0;
  uint64_t payload_bytes = 0;  // EncodeAnswerPayload size
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};
uint64_t HashBytes(const void* data, size_t size, uint64_t seed);
/// The wire side: the payload size comes from the answer's header.
Fingerprint FingerprintOf(const volume::DataRegion& data,
                          uint64_t payload_bytes);
/// The reference side: encodes the answer the way the server does (in
/// the extension's region encoding) to learn its payload size.
Fingerprint ReferenceFingerprint(const volume::DataRegion& data,
                                 region::RegionEncoding encoding);

inline double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wall seconds of one call.
template <typename Fn>
double TimeCall(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return Since(start);
}

/// Fisher-Yates shuffle driven by the workload's seeded generator.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBounded(i)]);
  }
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// num / den, 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sets `name` to the median of `values`; does nothing when empty.
void SetMedian(RunResult* out, const std::string& name,
               const std::vector<double>& values);

/// The cost model with all modeled charges off (no 3 s compile charge).
inline ServerCostModel NoModeledCosts() {
  ServerCostModel cost;
  cost.sql_compile_seconds = 0.0;
  return cost;
}

/// Peak resident set size of this process so far, in MB (VmHWM).
double PeakRssMb();

/// Runs `make` kSetupRepetitions times (or once when `repeat` is false),
/// destroying each world before building the next, and keeps the last.
/// Appends each set-up's wall seconds to `seconds`.
template <typename T>
std::unique_ptr<T> SetUpRepeatedly(bool repeat,
                                   const std::function<std::unique_ptr<T>()>& make,
                                   std::vector<double>* seconds) {
  std::unique_ptr<T> world;
  int reps = repeat ? kSetupRepetitions : 1;
  for (int i = 0; i < reps; ++i) {
    world.reset();
    auto start = std::chrono::steady_clock::now();
    world = make();
    seconds->push_back(Since(start));
  }
  return world;
}

/// "<voxels> voxels <runs> runs <bytes> B #<digest>" for check notes.
std::string Describe(const Fingerprint& print);

/// Sets `qps` (verified answers per wall second) and `p99_ms` (the tail
/// rule over `latency_ms`, where an error enters at the run's length)
/// and notes both with the percentile and sample count used.
void ReportThroughput(std::vector<double> latency_ms, uint64_t ok,
                      double wall, RunResult* out);

/// Sets `name` to the nearest-rank median of `ms` and notes it with its
/// sample count; does nothing when `ms` is empty.
void ReportClassMedian(const std::string& name, std::vector<double> ms,
                       RunResult* out);

/// Sets `name` to the median of `values` and `spread_name` to their
/// interquartile range (statistics.quantiles, n=4).
void ReportQuartiles(const std::string& name, const std::string& spread_name,
                     const std::vector<double>& values, RunResult* out);

/// A replayed request: the latency it had under load and the traced
/// segment it came from. Its spans carry its index as the trace id.
struct ReplayedRequest {
  double loaded_seconds = 0.0;
  int segment = 0;
};

/// trace.coverage / trace.coverage_spread: per traced segment, the
/// replayed layer self times of its requests over their latency under
/// load; median and interquartile range over the segments.
void ReportCoverage(const std::vector<ReplayedRequest>& requests,
                    int segments, RunResult* out);

/// The workloads (wire.cc, population.cc).
RunResult RunClinic(const RunOptions& options, bool hot);
RunResult RunIngestMixed(const RunOptions& options);
RunResult RunPopulation(const RunOptions& options);

}  // namespace qbism::e2e

#endif  // QBISM_BENCH_E2E_BENCH_H_
