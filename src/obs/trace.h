#ifndef QBISM_OBS_TRACE_H_
#define QBISM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/histogram.h"

namespace qbism::obs {

/// Stage tags for spans. One query produces a tree: a kQuery root
/// (admission to reply) whose children partition the request's wall
/// time (kQueueWait, kTranslate, kInfo, kData, kShip, kImport,
/// kRender, ...), with the database phase decomposed further by the
/// layers it crosses (kExtract -> kPlan/kShard -> kIo; kDecode for
/// REGION/DATA_REGION unmarshalling). docs/OBSERVABILITY.md is the
/// reference for what each stage covers.
enum class Stage : uint8_t {
  kQuery = 0,   // whole request, Execute -> reply (root span)
  kQueueWait,   // tenant admission wait for a slot (recorded retroactively)
  kCacheProbe,  // shared result-cache probe (hit or miss)
  kTranslate,   // QuerySpec -> the two §3.4 SQL statements
  kInfo,        // the atlas/info query (the paper's "other" phase)
  kData,        // the data query, end to end (SQL exec + UDF depth)
  kPlan,        // LFM read planning (PlanRead / BuildReadPlan)
  kIo,          // device page transfers (LFM reads, any thread)
  kDecode,      // REGION / DATA_REGION gamma-decode + unmarshalling
  kShip,        // network shipping over the simulated channel
  kImport,      // DX executive ImportVolume
  kRender,      // DX executive rendering
  kExtract,     // one vectored EXTRACT_DATA execution
  kShard,       // one extraction shard task (caller or donated helper)
  kScan,        // one streaming whole-field scan (bandregion/volumemean)
  kRetry,       // transient-fault retry backoff sleep
  kIoWait,      // realized modeled I/O+network wait (io_wait_scale)
  kRequest,     // one wire request on the socket server (root span)
  kAccept,      // reading the request frame off the socket
  kIngest,      // one online study ingest (warp + band + store, logged)
  kWalSync,     // write-ahead-log page flush (the commit fsync)
  kVacuum,      // reclamation of dead long-field extents
  kOptimize,    // SQL cost-based planning (statistics + join order)
  kCompile,     // SQL plan -> batch-VM bytecode lowering
  kIndexBuild,  // cross-study spatial index pack/rebuild (src/index)
  kIndexProbe,  // one R-tree + bitmap candidate probe
};
inline constexpr int kNumStages = 26;

/// Stable lower-case stage name ("query", "queue", "io", ...).
const char* StageName(Stage stage);

class Tracer;

/// The propagated handle: which tracer (if any) records spans on this
/// thread, which trace (query) the work belongs to, and the span the
/// next child should hang under. Copyable POD; an all-zero context is
/// valid and means "tracing off".
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // parent span for children opened under this
};

/// The calling thread's current context. Work that crosses threads
/// (TaskPool donation) captures the submitter's context and installs it
/// on the executing thread with ScopedTraceContext, so helper work is
/// attributed to the owning query.
TraceContext& CurrentTraceContext();

/// RAII install/restore of the thread's current context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_(CurrentTraceContext()) {
    CurrentTraceContext() = ctx;
  }
  ~ScopedTraceContext() { CurrentTraceContext() = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// One finished span. `start_seconds` is relative to the tracer's
/// construction (its epoch), so spans from all threads share a clock.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  Stage stage = Stage::kQuery;
  bool ok = true;
  uint32_t thread = 0;  // stable per-thread hash, not a TID
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  uint64_t pages = 0;  // page transfers attributed to this span
  uint64_t bytes = 0;  // payload bytes attributed to this span
  char label[16] = {0};  // optional short tag ("full", "retry2", ...)
};

/// Aggregated view of one stage's histogram (count/total/max are exact;
/// percentiles are within 1/32, see obs::Histogram).
struct StageSummary {
  Stage stage = Stage::kQuery;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max_seconds = 0.0;
  uint64_t pages = 0;
  uint64_t bytes = 0;
};

struct TracerOptions {
  /// Completed spans kept for DumpTrace; further spans still feed the
  /// stage histograms but their records are dropped (counted).
  size_t span_capacity = 1 << 16;
  bool enabled = true;
};

/// The tracing sink: hands out trace/span ids, stores finished spans in
/// a bounded lock-free buffer, and aggregates per-stage histograms.
/// One Tracer is shared by a whole service (every request thread and
/// helper thread); recording is wait-free. When disabled (or when no
/// tracer is installed in the current context) every Span is inert: the
/// cost of an instrumentation point is one thread-local read and a
/// branch.
///
/// Reset() and the dump accessors may run concurrently with recording
/// (they see a consistent prefix), but Reset() concurrent with
/// recording loses the racing spans; quiesce for exact results.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Seconds since this tracer's construction (the span clock).
  double NowSeconds() const;

  /// Fresh trace: new trace id, no parent span.
  TraceContext StartTrace() {
    return TraceContext{this, next_trace_.fetch_add(1, std::memory_order_relaxed),
                        0};
  }

  uint64_t NextSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a finished span: feeds the stage histogram and (capacity
  /// permitting) the span buffer. Used by Span::End and directly for
  /// retroactive spans (queue wait).
  void Record(const SpanRecord& record);

  /// --- Aggregates ------------------------------------------------------

  /// Per-stage summaries for every stage with at least one span, in
  /// Stage order.
  std::vector<StageSummary> StageSummaries() const;

  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Clears spans and histograms (see class comment re concurrency).
  void Reset();

  /// --- Structured export (DumpTrace / DumpStats) -----------------------

  /// Finished spans currently buffered, in completion order.
  std::vector<SpanRecord> Spans() const;

  /// One JSON object per line per span.
  std::string DumpTraceJsonl() const;

  /// chrome://tracing "trace_event" JSON (open chrome://tracing or
  /// https://ui.perfetto.dev and load the file).
  std::string DumpTraceChrome() const;

  /// Human-readable per-stage table (DumpStats).
  std::string DumpStatsTable() const;

  /// Per-stage summaries as a JSON array (embeds in MetricsSnapshot).
  static std::string StagesToJson(const std::vector<StageSummary>& stages);

  Status WriteFile(const std::string& path, const std::string& contents) const;

 private:
  struct Slot {
    std::atomic<uint32_t> ready{0};
    SpanRecord record;
  };

  /// Per-stage aggregates: every span feeds these, buffered or not.
  struct StageSlot {
    Histogram latency;
    std::atomic<uint64_t> pages{0};
    std::atomic<uint64_t> bytes{0};
  };

  TracerOptions options_;
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> next_slot_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  std::unique_ptr<Slot[]> slots_;
  StageSlot stages_[kNumStages];
  double epoch_seconds_ = 0.0;  // steady-clock seconds at construction
};

/// RAII span. Construction captures the parent context (explicitly or
/// from the thread-local current context); destruction or End()
/// records. Inert — no clock reads, no allocation — when the context
/// has no tracer or the tracer is disabled.
class Span {
 public:
  explicit Span(Stage stage) : Span(CurrentTraceContext(), stage) {}
  Span(const TraceContext& parent, Stage stage);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return tracer_ != nullptr; }

  /// Context for children of this span. Falls through to the parent
  /// context when inert, so nesting code needs no special-casing.
  TraceContext context() const {
    return active()
               ? TraceContext{tracer_, record_.trace_id, record_.span_id}
               : parent_;
  }

  void AddPages(uint64_t pages) { record_.pages += pages; }
  void AddBytes(uint64_t bytes) { record_.bytes += bytes; }
  void SetFailed() { record_.ok = false; }
  void SetLabel(const char* label) {
    if (!active() || label == nullptr) return;
    std::strncpy(record_.label, label, sizeof(record_.label) - 1);
    record_.label[sizeof(record_.label) - 1] = '\0';
  }

  /// Records the span (idempotent; the destructor calls it).
  void End();

 private:
  Tracer* tracer_ = nullptr;
  TraceContext parent_;
  SpanRecord record_;
};

}  // namespace qbism::obs

#endif  // QBISM_OBS_TRACE_H_
