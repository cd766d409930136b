#include "obs/trace.h"

#include <algorithm>
#include <chrono>
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

Tracer::Tracer(TracerOptions options)
    : options_(options),
      enabled_(options.enabled),
      slots_(new Slot[std::max<size_t>(1, options.span_capacity)]),
      epoch_seconds_(SteadySeconds()) {
  options_.span_capacity = std::max<size_t>(1, options_.span_capacity);
}

double Tracer::NowSeconds() const { return SteadySeconds() - epoch_seconds_; }

void Tracer::Record(const SpanRecord& record) {
  StageSlot& stage = stages_[static_cast<int>(record.stage)];
  stage.latency.RecordSeconds(record.duration_seconds);
  if (record.pages) {
    stage.pages.fetch_add(record.pages, std::memory_order_relaxed);
  }
  if (record.bytes) {
    stage.bytes.fetch_add(record.bytes, std::memory_order_relaxed);
  }
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
    const StageSlot& slot = stages_[i];
    if (slot.latency.count() == 0) continue;
    Histogram::Summary h = slot.latency.Summarize();
    StageSummary s;
    s.stage = static_cast<Stage>(i);
    s.count = h.count;
    s.total_seconds = static_cast<double>(h.total_nanos) * 1e-9;
    s.p50 = h.p50_nanos * 1e-9;
    s.p95 = h.p95_nanos * 1e-9;
    s.p99 = h.p99_nanos * 1e-9;
    s.max_seconds = static_cast<double>(h.max_nanos) * 1e-9;
    s.pages = slot.pages.load(std::memory_order_relaxed);
    s.bytes = slot.bytes.load(std::memory_order_relaxed);
    out.push_back(s);
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
  for (StageSlot& s : stages_) {
    s.latency.Reset();
    s.pages.store(0, std::memory_order_relaxed);
    s.bytes.store(0, std::memory_order_relaxed);
  }
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
