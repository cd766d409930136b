#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qbism::e2e {

size_t NearestRankIndex(size_t n, double pct) {
  double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  if (rank < 1.0) rank = 1.0;
  size_t index = static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

std::optional<double> SupportedTailPercentile(size_t n) {
  if (n == 0) return std::nullopt;
  for (double pct : kTailLadder) {
    size_t beyond = n - 1 - NearestRankIndex(n, pct);
    if (beyond >= kMinSamplesBeyond) return pct;
  }
  return std::nullopt;
}

double Percentile(std::vector<double>* samples, double pct) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[NearestRankIndex(samples->size(), pct)];
}

double Quartiles::RelativeSpread() const {
  return median == 0.0 ? 0.0 : (q3 - q1) / median;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"), step for step: m = n + 1,
  // j = i*m // 4 clamped to [1, n-1], delta = i*m - 4j (it may leave
  // [0, 4] after the clamp, which extrapolates exactly as Python does).
  auto cut = [&](long i) {
    long m = static_cast<long>(n) + 1;
    long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
    long delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.median = cut(2);
  out.q3 = cut(3);
  return out;
}

double Accounting::ErrorRate() const {
  uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(errors()) / static_cast<double>(n);
}

Accounting& Accounting::operator+=(const Accounting& other) {
  ok += other.ok;
  failed += other.failed;
  refused += other.refused;
  wrong += other.wrong;
  return *this;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "clinic_cold", "clinic_hot", "ingest_mixed", "population"};
  return kNames;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"qps", "1/s"},
      {"p99_ms", "ms"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      // Request classes, from the untraced segments of the traced run.
      {"class.full_p50_ms", "ms"},
      {"class.box_p50_ms", "ms"},
      {"class.structure_p50_ms", "ms"},
      {"class.band_p50_ms", "ms"},
      {"class.probe_p50_ms", "ms"},
      {"class.scan_p50_ms", "ms"},
      {"class.intersect_p50_ms", "ms"},
      {"class.commit_p50_ms", "ms"},
      {"class.commits_per_s", "1/s"},
      {"class.error_rate", "ratio"},
      // server
      {"server.wire_self_ms", "ms"},
      {"server.encode_answer_ms", "ms"},
      {"server.decode_answer_ms", "ms"},
      {"server.ship_bytes_per_query", "B"},
      {"server.frames_per_query", "count"},
      {"server.admission_waited", "ratio"},
      // service
      {"service.self_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_hit_ms", "ms"},
      {"service.cache_invalidations_per_commit", "count"},
      // qbism
      {"qbism.self_ms", "ms"},
      {"qbism.extract_ms", "ms"},
      {"qbism.extract_coalescing_ratio", "ratio"},
      {"qbism.extract_parallel_efficiency", "ratio"},
      {"qbism.ingest_ms", "ms"},
      {"qbism.store_study_ms", "ms"},
      {"qbism.consistent_band_ms", "ms"},
      // viz
      {"viz.import_ms", "ms"},
      // sql
      {"sql.info_ms", "ms"},
      {"sql.data_self_ms", "ms"},
      {"sql.plan_cache_hit_ratio", "ratio"},
      {"sql.explain_ms", "ms"},
      {"sql.rows_examined_per_row", "ratio"},
      // index
      {"index.probe_ms", "ms"},
      {"index.pages_per_probe", "count"},
      {"index.candidate_fraction", "ratio"},
      {"index.useful_ratio", "ratio"},
      // region
      {"region.load_ms", "ms"},
      {"region.intersect_n_ms", "ms"},
      // storage
      {"storage.lfm_pages_per_query", "count"},
      {"storage.rel_pages_per_query", "count"},
      {"storage.bufferpool_hit_ratio", "ratio"},
      {"storage.plan_read_ms", "ms"},
      {"storage.wal_bytes_per_commit", "B"},
      {"storage.wal_syncs_per_commit", "count"},
      {"storage.wal_bytes_per_user_byte", "ratio"},
      {"storage.vacuum_ms", "ms"},
      {"storage.vacuum_pages_freed_per_commit", "count"},
      // warp
      {"warp.warp_ms", "ms"},
      // traced-run health
      {"trace.coverage", "ratio"},
      {"trace.coverage_spread", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.overhead_spread_pct", "%"},
  };
  return kDefs;
}

void MetricSet::Set(const std::string& name, double value) {
  for (auto& [key, existing] : entries_) {
    if (key == name) {
      existing = value;
      return;
    }
  }
  entries_.emplace_back(name, value);
}

std::optional<double> MetricSet::Get(const std::string& name) const {
  for (const auto& [key, value] : entries_) {
    if (key == name) return value;
  }
  return std::nullopt;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultLine(bool correct, const Accounting& accounting,
                       const std::vector<MetricDef>& defs,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(accounting.attempted());
  out += ", \"failed\": " + std::to_string(accounting.errors());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(defs[i].name) + ": {\"value\": " +
           JsonNumber(metrics.Get(defs[i].name).value_or(0.0)) +
           ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace qbism::e2e
