#ifndef QBISM_SERVICE_QUERY_SERVICE_H_
#define QBISM_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "net/channel.h"
#include "obs/trace.h"
#include "qbism/query_pipeline.h"
#include "qbism/spatial_extension.h"
#include "service/admission_queue.h"
#include "service/metrics.h"
#include "service/result_cache.h"

namespace qbism {
class IngestManager;
namespace med {
struct StudyRecord;
}  // namespace med
}  // namespace qbism

namespace qbism::service {

/// One client request: a query spec plus service-level controls. The
/// deadline is measured from admission; 0 disables it.
struct ServiceRequest {
  qbism::QuerySpec spec;
  /// Import and render the answer after it ships (the DX executive's
  /// half, §5.2); only then does the reply carry an image and import and
  /// render times.
  bool render = false;
  viz::Camera camera;
  double deadline_seconds = 0.0;
  /// When set (and its tracer is the service's), the request joins this
  /// trace instead of starting a fresh one: the kQuery root span hangs
  /// under trace_parent.span_id, so a front end (the socket server) can
  /// stitch accept -> decode -> admit -> execute -> ship into one tree.
  obs::TraceContext trace_parent;
};

/// Reply for a completed request: the ordinary single-study result plus
/// service-side accounting.
struct ServiceReply {
  qbism::StudyQueryResult result;
  bool cache_hit = false;
  int worker_id = -1;
  double queue_wait_seconds = 0.0;  // admission -> picked up by a worker
  double execute_seconds = 0.0;     // worker time (cache probe + query)
  double total_seconds = 0.0;       // admission -> reply, real wall time
};

/// Handle to an in-flight request. Cheap to copy (shared state).
class Ticket {
 public:
  Ticket() = default;

  /// Blocks until the request completes (workers enforce deadlines, so
  /// this terminates as long as the service is running or shut down).
  Result<ServiceReply> Wait() const;

  /// Best-effort cancellation: a queued request completes Cancelled
  /// when a worker reaches it; a running one aborts at the pipeline's
  /// next stage checkpoint.
  void Cancel();

  bool Done() const;
  bool Valid() const { return state_ != nullptr; }

 private:
  friend class QueryService;
  struct State;
  std::shared_ptr<State> state_;
};

/// Sizing and cost knobs for the service.
struct ServiceOptions {
  /// Fixed worker pool; every worker runs the one shared QueryPipeline
  /// over the shared extension. 0 is allowed (nothing drains — used by
  /// admission-control tests).
  int num_workers = 4;
  /// Bounded admission queue; submissions beyond this are rejected
  /// immediately with ResourceExhausted.
  size_t queue_capacity = 64;
  /// Shared LRU result cache; 0 entries disables it.
  size_t cache_entries = 128;
  uint64_t cache_bytes = 512ull << 20;
  /// When > 0, each executed query's modeled wait time — the simulated
  /// LFM/relational I/O stall plus network shipping time that the cost
  /// models charge but never spend — is realized as a real wall-clock
  /// wait of `io_wait_scale` x that many seconds. Workers overlap these
  /// waits exactly the way the 1993 system overlapped disk and RPC, so
  /// throughput benchmarks see the pool's concurrency benefit on any
  /// host. Cache hits perform no I/O and therefore never wait. 0 = off.
  double io_wait_scale = 0.0;
  /// Transient-fault handling: a query that fails with IOError (the
  /// code injected disk faults and, on real hardware, flaky media
  /// surface as) is re-executed up to `max_retries` times per request,
  /// sleeping a capped exponential backoff between attempts
  /// (base * 2^attempt, clamped to the max). Retries never outlive the
  /// request's deadline or a cancellation, and every retry / exhausted
  /// budget is counted in ServiceMetrics (retries, giveups). 0 disables.
  int max_retries = 2;
  double retry_backoff_seconds = 0.001;
  double retry_backoff_max_seconds = 0.050;
  /// Donation threads for intra-query extraction parallelism: the
  /// service owns a TaskPool this size and installs it on the shared
  /// extension's ParallelExtractor, so a large EXTRACT_DATA borrows idle
  /// capacity while the pool's fair-share cap keeps one query from
  /// monopolizing it. -1 sizes the pool to num_workers; 0 disables
  /// (extractions run inline on their worker).
  int extract_helper_threads = -1;
  /// Optional tracing sink (not owned; must outlive the service). Each
  /// admitted request becomes one trace: a kQuery root span labeled by
  /// query class, with queue wait, cache probe, the pipeline's stage
  /// spans, retries, and realized I/O waits as children. When null or
  /// disabled every instrumentation point costs one thread-local read
  /// and a branch. metrics().stages carries the per-stage summaries.
  obs::Tracer* tracer = nullptr;
  /// Optional online-ingest manager (not owned; must outlive the
  /// service). When set, the service gates requests on study
  /// visibility, routes RunIngest through it, and invalidates the
  /// shared result cache per study at every ingest commit.
  qbism::IngestManager* ingest = nullptr;
  /// Refresh the cost-based planner's statistics (scalar + region
  /// histograms + power-law fits) after every committed ingest, so the
  /// optimizer tracks the data the moment it becomes visible. The
  /// refresh also bumps the stats version, invalidating cached plans
  /// built against the old distribution. Requires `ingest`.
  bool refresh_planner_stats_on_commit = true;
  net::NetworkCostModel net_model;
  qbism::ServerCostModel cost_model;
};

/// The concurrent query-serving front end: a fixed pool of worker
/// threads running one stateless QueryPipeline over one shared
/// read-mostly SpatialExtension/Database, fed by a bounded admission
/// queue and fronted by a server-wide LRU result cache. A cache hit and
/// a pipeline run end the same way: one copy of the answer into the
/// reply, then ImportVolume and rendering only when the request asks.
///
///   clients --Submit--> [admission queue] --> worker_0 .. worker_{N-1}
///                              |                        |
///                       (reject on full)   shared ResultCache, else the
///                                          shared QueryPipeline (DBMS)
///
/// The extension/database must be fully loaded before the service
/// starts; workers treat it as read-only.
class QueryService {
 public:
  QueryService(qbism::SpatialExtension* ext, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits a request or rejects it without blocking:
  /// ResourceExhausted when the queue is full, Cancelled after
  /// Shutdown.
  Result<Ticket> Submit(const ServiceRequest& request);

  /// Convenience: Submit + Wait (the closed-loop client pattern).
  Result<ServiceReply> Execute(const ServiceRequest& request);

  /// Online ingest through the service (requires options.ingest):
  /// stores (or replaces) the study in one durable transaction while
  /// queries keep flowing, then invalidates the study's cached results.
  /// Counted in metrics().ingests / ingest_failures.
  Status RunIngest(const qbism::med::StudyRecord& record, bool replace);

  /// Stops admissions, fails everything still queued with Cancelled,
  /// and joins the workers. Idempotent; the destructor calls it.
  void Shutdown();

  /// Service counters plus the extraction fast-path counters accrued on
  /// the shared extractor since this service started.
  MetricsSnapshot metrics() const;
  ResultCacheStats cache_stats() const { return cache_.stats(); }

  /// Front-end rejection accounting: a server sitting in front of the
  /// service (src/server) counts the requests it bounces before they
  /// reach Submit, so one MetricsSnapshot covers the whole edge.
  void NoteUnauthorized() { metrics_.AddUnauthorized(); }
  void NoteQuotaRejected() { metrics_.AddQuotaRejected(); }
  void NoteSessionExpired() { metrics_.AddSessionExpired(); }

  /// Pure probe (no LRU promotion, no stats): is this QuerySpec
  /// description cached? Fault tests assert failed queries never are.
  bool CacheContains(const std::string& key) const {
    return cache_.Contains(key);
  }
  size_t queue_depth() const { return queue_.Size(); }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct Pending {
    ServiceRequest request;
    std::shared_ptr<Ticket::State> state;
  };

  void WorkerLoop(int worker_id);
  /// Serves `pending`, including the cache probe/fill.
  Result<ServiceReply> Serve(int worker_id, const Pending& pending);
  /// Runs the pipeline for `pending` under its deadline/cancel
  /// checkpoint, re-running it after IOErrors with capped backoff.
  Result<qbism::PipelineResult> RunWithRetries(const Pending& pending);
  void Complete(const std::shared_ptr<Ticket::State>& state,
                Result<ServiceReply> reply);

  qbism::SpatialExtension* ext_;
  ServiceOptions options_;
  qbism::QueryPipeline pipeline_;
  ResultCache cache_;
  ServiceMetrics metrics_;
  std::unique_ptr<TaskPool> extract_pool_;  // may be null (helpers off)
  qbism::ExtractorStatsSnapshot extractor_baseline_;
  AdmissionQueue<Pending> queue_;
  std::vector<std::thread> workers_;
  std::mutex shutdown_mu_;
  bool shut_down_ = false;  // guarded by shutdown_mu_
  uint64_t ingest_listener_token_ = 0;  // set once in the constructor
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_QUERY_SERVICE_H_
