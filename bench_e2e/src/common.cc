#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "common/macros.h"
#include "server/codec.h"

namespace qbism::e2e {

const char* WireClassName(WireClass c) {
  switch (c) {
    case WireClass::kFull:
      return "full";
    case WireClass::kBox:
      return "box";
    case WireClass::kStructure:
      return "structure";
    case WireClass::kBand:
      return "band";
    case WireClass::kCount:
      break;
  }
  return "?";
}

WireClass ClassOf(const QuerySpec& spec) {
  if (spec.box) return WireClass::kBox;
  if (spec.structure_name) return WireClass::kStructure;
  if (spec.intensity_range) return WireClass::kBand;
  return WireClass::kFull;
}

uint64_t HashBytes(const void* data, size_t size, uint64_t seed) {
  // Word-at-a-time multiply-xorshift; fast enough to digest a 2 MB
  // full-study answer in well under a millisecond.
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = seed ^ (0x9e3779b97f4a7c15ull * (size + 1));
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  if (size > i) std::memcpy(&tail, bytes + i, size - i);
  h = (h ^ tail) * 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 29);
}

Fingerprint FingerprintOf(const volume::DataRegion& data,
                          uint64_t payload_bytes) {
  Fingerprint out;
  const auto& runs = data.region().runs();
  out.voxels = data.VoxelCount();
  out.runs = runs.size();
  uint64_t h = HashBytes(runs.data(), runs.size() * sizeof(runs[0]), 1);
  out.digest =
      HashBytes(data.values().data(), data.values().size(), h);
  out.payload_bytes = payload_bytes;
  return out;
}

Fingerprint ReferenceFingerprint(const volume::DataRegion& data,
                                 region::RegionEncoding encoding) {
  auto payload = server::EncodeAnswerPayload(data, encoding);
  QBISM_CHECK(payload.ok());
  return FingerprintOf(data, payload->size());
}

std::string Describe(const Fingerprint& print) {
  char buf[120];
  std::snprintf(buf, sizeof(buf), "%llu voxels %llu runs %llu B #%016llx",
                static_cast<unsigned long long>(print.voxels),
                static_cast<unsigned long long>(print.runs),
                static_cast<unsigned long long>(print.payload_bytes),
                static_cast<unsigned long long>(print.digest));
  return buf;
}

void ReportThroughput(std::vector<double> latency_ms, uint64_t ok,
                      double wall, RunResult* out) {
  size_t n = latency_ms.size();
  double pct = SupportedTailPercentile(n).value_or(50.0);
  double tail = Percentile(&latency_ms, pct);
  double qps = wall > 0 ? static_cast<double>(ok) / wall : 0.0;
  out->metrics.Set("qps", qps);
  out->metrics.Set("p99_ms", tail);
  char line[160];
  std::snprintf(line, sizeof(line),
                "qps %.1f over %.2f s; tail p%.1f %.2f ms over %zu samples",
                qps, wall, pct, tail, n);
  out->notes.push_back(line);
}

void ReportClassMedian(const std::string& name, std::vector<double> ms,
                       RunResult* out) {
  if (ms.empty()) return;
  size_t n = ms.size();
  double p50 = Percentile(&ms, 50.0);
  out->metrics.Set(name, p50);
  char line[120];
  std::snprintf(line, sizeof(line), "%-24s %9.3f ms over %zu samples",
                name.c_str(), p50, n);
  out->notes.push_back(line);
}

void ReportQuartiles(const std::string& name, const std::string& spread_name,
                     const std::vector<double>& values, RunResult* out) {
  Quartiles q = ComputeQuartiles(values);
  out->metrics.Set(name, q.median);
  out->metrics.Set(spread_name, q.q3 - q.q1);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s %.4g (quartiles %.4g .. %.4g over %zu values)",
                name.c_str(), q.median, q.q1, q.q3, values.size());
  out->notes.push_back(line);
}

void ReportCoverage(const std::vector<ReplayedRequest>& requests,
                    int segments, RunResult* out) {
  std::vector<double> covered(static_cast<size_t>(segments), 0.0);
  std::vector<double> loaded(static_cast<size_t>(segments), 0.0);
  for (size_t i = 0; i < requests.size(); ++i) {
    covered[requests[i].segment] += out->spans.TreeSelfSum(i);
    loaded[requests[i].segment] += requests[i].loaded_seconds;
  }
  std::vector<double> coverage;
  for (int s = 0; s < segments; ++s) {
    if (loaded[s] > 0) coverage.push_back(covered[s] / loaded[s]);
  }
  ReportQuartiles("trace.coverage", "trace.coverage_spread", coverage, out);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void SetMedian(RunResult* out, const std::string& name,
               const std::vector<double>& values) {
  if (!values.empty()) out->metrics.Set(name, Median(values));
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace qbism::e2e
