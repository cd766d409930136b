#include "service/metrics.h"

#include <cstdio>

namespace qbism::service {

LatencySummary SummarizeLatency(const obs::Histogram::Summary& h) {
  LatencySummary out;
  out.count = h.count;
  if (h.count > 0) {
    out.mean = static_cast<double>(h.total_nanos) * 1e-9 /
               static_cast<double>(h.count);
  }
  out.p50 = h.p50_nanos * 1e-9;
  out.p95 = h.p95_nanos * 1e-9;
  out.p99 = h.p99_nanos * 1e-9;
  out.max = static_cast<double>(h.max_nanos) * 1e-9;
  return out;
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  MetricsSnapshot out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  out.cancelled = cancelled_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.giveups = giveups_.load(std::memory_order_relaxed);
  out.unauthorized = unauthorized_.load(std::memory_order_relaxed);
  out.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
  out.session_expired = session_expired_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.ingests = ingests_.load(std::memory_order_relaxed);
  out.ingest_failures = ingest_failures_.load(std::memory_order_relaxed);
  out.cache_invalidations =
      cache_invalidations_.load(std::memory_order_relaxed);
  out.lfm_pages = lfm_pages_.load(std::memory_order_relaxed);
  out.network_seconds = network_seconds_.load(std::memory_order_relaxed);
  out.latency = SummarizeLatency(latency_.Summarize());
  obs::Histogram::Summary queue_wait = queue_wait_.Summarize();
  out.queue_wait_seconds = static_cast<double>(queue_wait.total_nanos) * 1e-9;
  out.queue_wait = SummarizeLatency(queue_wait);
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"submitted\":%llu,"
      "\"deadline_expired\":%llu,\"cancelled\":%llu,\"failed\":%llu,"
      "\"completed\":%llu,\"retries\":%llu,\"giveups\":%llu,"
      "\"unauthorized\":%llu,\"quota_rejected\":%llu,"
      "\"session_expired\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"ingests\":%llu,\"ingest_failures\":%llu,"
      "\"cache_invalidations\":%llu,"
      "\"lfm_pages\":%llu,\"network_seconds\":%.6f,"
      "\"queue_wait_seconds\":%.6f,"
      "\"extract_extents_planned\":%llu,\"extract_pages_read\":%llu,"
      "\"extract_pages_demanded\":%llu,\"extract_bytes_moved\":%llu,"
      "\"extract_helper_tasks\":%llu,\"extract_coalescing_ratio\":%.4f,"
      "\"extract_parallel_efficiency\":%.4f,"
      "\"latency\":{\"count\":%llu,\"mean\":%.6f,\"p50\":%.6f,"
      "\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f}}",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(giveups),
      static_cast<unsigned long long>(unauthorized),
      static_cast<unsigned long long>(quota_rejected),
      static_cast<unsigned long long>(session_expired),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(ingests),
      static_cast<unsigned long long>(ingest_failures),
      static_cast<unsigned long long>(cache_invalidations),
      static_cast<unsigned long long>(lfm_pages), network_seconds,
      queue_wait_seconds,
      static_cast<unsigned long long>(extract_extents_planned),
      static_cast<unsigned long long>(extract_pages_read),
      static_cast<unsigned long long>(extract_pages_demanded),
      static_cast<unsigned long long>(extract_bytes_moved),
      static_cast<unsigned long long>(extract_helper_tasks),
      extract_coalescing_ratio, extract_parallel_efficiency,
      static_cast<unsigned long long>(latency.count),
      latency.mean, latency.p50, latency.p95, latency.p99, latency.max);
  std::string out(buf);
  if (!stages.empty()) {
    out.back() = ',';  // reopen the object to append the stages array
    out += "\"stages\":" + obs::Tracer::StagesToJson(stages) + "}";
  }
  return out;
}

}  // namespace qbism::service
