#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

namespace qbism::obs {

namespace {

using Clock = std::chrono::steady_clock;

double SteadySeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

uint32_t ThisThreadTag() {
  // A stable, compact per-thread tag for span attribution. Hash of the
  // opaque std::thread::id; collisions are harmless (display only).
  static thread_local const uint32_t tag = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return tag;
}

/// Escapes the (short, controlled) label strings for JSON output.
std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(*s) >= 0x20) out.push_back(*s);
  }
  return out;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kQuery: return "query";
    case Stage::kQueueWait: return "queue";
    case Stage::kCacheProbe: return "cache_probe";
    case Stage::kTranslate: return "translate";
    case Stage::kInfo: return "info";
    case Stage::kData: return "data";
    case Stage::kPlan: return "plan";
    case Stage::kIo: return "io";
    case Stage::kDecode: return "decode";
    case Stage::kShip: return "ship";
    case Stage::kImport: return "import";
    case Stage::kRender: return "render";
    case Stage::kExtract: return "extract";
    case Stage::kShard: return "shard";
    case Stage::kScan: return "scan";
    case Stage::kRetry: return "retry";
    case Stage::kIoWait: return "io_wait";
    case Stage::kRequest: return "request";
    case Stage::kAccept: return "accept";
    case Stage::kIngest: return "ingest";
    case Stage::kWalSync: return "wal_sync";
    case Stage::kVacuum: return "vacuum";
    case Stage::kOptimize: return "optimize";
    case Stage::kCompile: return "compile";
    case Stage::kIndexBuild: return "index_build";
    case Stage::kIndexProbe: return "index_probe";
  }
  return "unknown";
}

TraceContext& CurrentTraceContext() {
  static thread_local TraceContext ctx;
  return ctx;
}

StageSummary StageHistogram::Summarize(Stage stage) const {
  StageSummary out;
  out.stage = stage;
  out.count = count_.load(std::memory_order_relaxed);
  out.total_seconds =
      static_cast<double>(total_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  out.max_seconds =
      static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  out.pages = pages_.load(std::memory_order_relaxed);
  out.bytes = bytes_.load(std::memory_order_relaxed);
  if (out.count == 0) return out;

  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  // Percentile: walk the cumulative histogram; report the geometric
  // midpoint of the bucket the rank lands in (within 41% of the true
  // value by construction of power-of-two buckets).
  auto percentile = [&](double p) -> double {
    uint64_t rank = static_cast<uint64_t>(
        p * static_cast<double>(total > 0 ? total - 1 : 0));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) {
        return std::ldexp(1.0, i) * 1.4142135623730951 * 1e-9;
      }
    }
    return out.max_seconds;
  };
  out.p50 = std::min(percentile(0.50), out.max_seconds);
  out.p95 = std::min(percentile(0.95), out.max_seconds);
  out.p99 = std::min(percentile(0.99), out.max_seconds);
  return out;
}

void StageHistogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  total_nanos_.store(0, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
  pages_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Tracer::Tracer(TracerOptions options)
    : options_(options),
      enabled_(options.enabled),
      slots_(new Slot[std::max<size_t>(1, options.span_capacity)]),
      epoch_seconds_(SteadySeconds()) {
  options_.span_capacity = std::max<size_t>(1, options_.span_capacity);
}

double Tracer::NowSeconds() const { return SteadySeconds() - epoch_seconds_; }

void Tracer::Record(const SpanRecord& record) {
  auto& hist = histograms_[static_cast<int>(record.stage)];
  hist.Record(static_cast<uint64_t>(
      std::max(0.0, record.duration_seconds) * 1e9));
  hist.AddPayload(record.pages, record.bytes);
  recorded_.fetch_add(1, std::memory_order_relaxed);

  uint64_t idx = next_slot_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= options_.span_capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots_[idx];
  slot.record = record;
  slot.ready.store(1, std::memory_order_release);
}

std::vector<StageSummary> Tracer::StageSummaries() const {
  std::vector<StageSummary> out;
  for (int i = 0; i < kNumStages; ++i) {
    if (histograms_[i].count() == 0) continue;
    out.push_back(histograms_[i].Summarize(static_cast<Stage>(i)));
  }
  return out;
}

void Tracer::Reset() {
  uint64_t used =
      std::min<uint64_t>(next_slot_.load(std::memory_order_relaxed),
                         options_.span_capacity);
  for (uint64_t i = 0; i < used; ++i) {
    slots_[i].ready.store(0, std::memory_order_relaxed);
  }
  next_slot_.store(0, std::memory_order_relaxed);
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (auto& h : histograms_) h.Reset();
}

std::vector<SpanRecord> Tracer::Spans() const {
  uint64_t used =
      std::min<uint64_t>(next_slot_.load(std::memory_order_relaxed),
                         options_.span_capacity);
  std::vector<SpanRecord> out;
  out.reserve(used);
  for (uint64_t i = 0; i < used; ++i) {
    if (slots_[i].ready.load(std::memory_order_acquire) == 0) continue;
    out.push_back(slots_[i].record);
  }
  return out;
}

std::string Tracer::DumpTraceJsonl() const {
  std::ostringstream out;
  char buf[384];
  for (const SpanRecord& s : Spans()) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"trace\":%llu,\"span\":%llu,\"parent\":%llu,\"stage\":\"%s\","
        "\"label\":\"%s\",\"ok\":%s,\"thread\":%u,\"start\":%.9f,"
        "\"duration\":%.9f,\"pages\":%llu,\"bytes\":%llu}\n",
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_id), StageName(s.stage),
        JsonEscape(s.label).c_str(), s.ok ? "true" : "false", s.thread,
        s.start_seconds, s.duration_seconds,
        static_cast<unsigned long long>(s.pages),
        static_cast<unsigned long long>(s.bytes));
    out << buf;
  }
  return out.str();
}

std::string Tracer::DumpTraceChrome() const {
  // The chrome://tracing / Perfetto "trace_event" format: complete
  // ("ph":"X") events with microsecond timestamps. We map trace id to
  // pid so each query renders as its own process row, and the thread
  // tag to tid so donated-helper work shows up on separate tracks
  // within the owning query.
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  char buf[448];
  bool first = true;
  for (const SpanRecord& s : Spans()) {
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s%s%s\",\"cat\":\"qbism\",\"ph\":\"X\","
        "\"pid\":%llu,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"trace\":%llu,\"span\":%llu,\"parent\":%llu,"
        "\"ok\":%s,\"pages\":%llu,\"bytes\":%llu}}",
        first ? "" : ",", StageName(s.stage), s.label[0] ? ":" : "",
        JsonEscape(s.label).c_str(),
        static_cast<unsigned long long>(s.trace_id), s.thread,
        s.start_seconds * 1e6, s.duration_seconds * 1e6,
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_id), s.ok ? "true" : "false",
        static_cast<unsigned long long>(s.pages),
        static_cast<unsigned long long>(s.bytes));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return out.str();
}

std::string Tracer::DumpStatsTable() const {
  std::ostringstream out;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%-12s %9s %12s %10s %10s %10s %10s %12s\n",
                "stage", "count", "total(s)", "p50(ms)", "p95(ms)", "p99(ms)",
                "max(ms)", "pages");
  out << buf;
  for (const StageSummary& s : StageSummaries()) {
    std::snprintf(buf, sizeof(buf),
                  "%-12s %9llu %12.4f %10.3f %10.3f %10.3f %10.3f %12llu\n",
                  StageName(s.stage), static_cast<unsigned long long>(s.count),
                  s.total_seconds, 1e3 * s.p50, 1e3 * s.p95, 1e3 * s.p99,
                  1e3 * s.max_seconds,
                  static_cast<unsigned long long>(s.pages));
    out << buf;
  }
  if (dropped() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "(%llu spans dropped at capacity %llu)\n",
                  static_cast<unsigned long long>(dropped()),
                  static_cast<unsigned long long>(options_.span_capacity));
    out << buf;
  }
  return out.str();
}

std::string Tracer::StagesToJson(const std::vector<StageSummary>& stages) {
  std::ostringstream out;
  out << "[";
  char buf[256];
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageSummary& s = stages[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"stage\":\"%s\",\"count\":%llu,\"total_seconds\":%.6f,"
        "\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f,"
        "\"pages\":%llu,\"bytes\":%llu}",
        i ? "," : "", StageName(s.stage),
        static_cast<unsigned long long>(s.count), s.total_seconds, s.p50,
        s.p95, s.p99, s.max_seconds, static_cast<unsigned long long>(s.pages),
        static_cast<unsigned long long>(s.bytes));
    out << buf;
  }
  out << "]";
  return out.str();
}

Status Tracer::WriteFile(const std::string& path,
                         const std::string& contents) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out << contents;
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Span::Span(const TraceContext& parent, Stage stage) : parent_(parent) {
  Tracer* tracer = parent.tracer;
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  record_.trace_id = parent.trace_id;
  record_.span_id = tracer->NextSpanId();
  record_.parent_id = parent.span_id;
  record_.stage = stage;
  record_.thread = ThisThreadTag();
  record_.start_seconds = tracer->NowSeconds();
}

void Span::End() {
  if (tracer_ == nullptr) return;
  record_.duration_seconds = tracer_->NowSeconds() - record_.start_seconds;
  tracer_->Record(record_);
  tracer_ = nullptr;
}

}  // namespace qbism::obs
