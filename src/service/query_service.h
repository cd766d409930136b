#ifndef QBISM_SERVICE_QUERY_SERVICE_H_
#define QBISM_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "obs/trace.h"
#include "qbism/query_pipeline.h"
#include "qbism/spatial_extension.h"
#include "service/admission.h"
#include "service/metrics.h"
#include "service/result_cache.h"

namespace qbism {
class IngestManager;
namespace med {
struct StudyRecord;
}  // namespace med
}  // namespace qbism

namespace qbism::service {

/// One client request: a query spec plus service-level controls.
struct ServiceRequest {
  qbism::QuerySpec spec;
  /// Index into the service's tenant quotas: the request waits for, and
  /// holds, one of this tenant's execution slots.
  int tenant = 0;
  /// Measured from the call to Execute, so it covers the admission wait
  /// as well as the query; 0 disables it.
  double deadline_seconds = 0.0;
  /// When set (and its tracer is the service's), the request joins this
  /// trace instead of starting a fresh one: the kQuery root span hangs
  /// under trace_parent.span_id, so a front end (the socket server) can
  /// stitch accept -> decode -> query -> ship into one tree.
  obs::TraceContext trace_parent;
};

/// Reply for a completed request: the ordinary single-study result plus
/// service-side accounting.
struct ServiceReply {
  qbism::StudyQueryResult result;
  bool cache_hit = false;
  double queue_wait_seconds = 0.0;  // Execute -> execution slot granted
  double execute_seconds = 0.0;     // slot held (cache probe + query)
  double total_seconds = 0.0;       // Execute -> reply, real wall time
};

/// Byte budget of the shared result cache.
inline constexpr uint64_t kResultCacheBytes = 512ull << 20;

/// Sizing and cost knobs for the service.
struct ServiceOptions {
  /// Execution slots: at most this many requests run the shared
  /// QueryPipeline at once, each on the thread that called Execute. The
  /// tenant governor shares the slots by weight; values below 1 count
  /// as 1.
  int num_workers = 4;
  /// Shared LRU result cache (at most kResultCacheBytes); 0 entries
  /// disables it.
  size_t cache_entries = 128;
  /// When > 0, each executed query's modeled wait time — the simulated
  /// LFM/relational I/O stall plus network shipping time that the cost
  /// models charge but never spend — is realized as a real wall-clock
  /// wait of `io_wait_scale` x that many seconds. Concurrent requests
  /// overlap these waits exactly the way the 1993 system overlapped
  /// disk and RPC, so throughput benchmarks see the slots' concurrency
  /// benefit on any host. Cache hits perform no I/O and therefore never
  /// wait. The wait holds the request's slot, like the disk arm it
  /// stands for. 0 = off.
  double io_wait_scale = 0.0;
  /// Transient-fault handling: a query that fails with IOError (the
  /// code injected disk faults and, on real hardware, flaky media
  /// surface as) is re-executed up to `max_retries` times per request,
  /// sleeping a capped exponential backoff between attempts
  /// (base * 2^attempt, clamped to the max). Retries never outlive the
  /// request's deadline, and every retry / exhausted budget is counted
  /// in ServiceMetrics (retries, giveups). 0 disables.
  int max_retries = 2;
  double retry_backoff_seconds = 0.001;
  double retry_backoff_max_seconds = 0.050;
  /// Donation threads for intra-query extraction parallelism: the
  /// service owns a TaskPool this size and installs it on the shared
  /// extension's ParallelExtractor, so a large EXTRACT_DATA on a device
  /// whose transfers wait (DiskDevice::transfers_wait) overlaps its
  /// waits on borrowed threads while the pool's fair-share cap keeps one
  /// query from monopolizing them. On the in-memory device every
  /// extraction runs inline on the calling thread and the pool stays
  /// idle. -1 sizes the pool to num_workers; 0 disables (extractions
  /// always run inline).
  int extract_helper_threads = -1;
  /// Optional tracing sink (not owned; must outlive the service). Each
  /// admitted request becomes one trace: a kQuery root span labeled by
  /// query class, with the admission wait (kQueueWait), cache probe,
  /// the pipeline's stage spans, retries, and realized I/O waits as
  /// children. When null or
  /// disabled every instrumentation point costs one thread-local read
  /// and a branch. metrics().stages carries the per-stage summaries.
  obs::Tracer* tracer = nullptr;
  /// Optional online-ingest manager (not owned; must outlive the
  /// service). When set, the service gates requests on study
  /// visibility, routes RunIngest through it, and invalidates the
  /// shared result cache per study at every ingest commit.
  qbism::IngestManager* ingest = nullptr;
  qbism::ServerCostModel cost_model;
};

/// The concurrent query-serving front end: one stateless QueryPipeline
/// over one shared read-mostly SpatialExtension/Database, fronted by a
/// server-wide LRU result cache. Each request runs on the thread that
/// calls Execute, after the per-tenant fair-share governor grants it one
/// of `num_workers` execution slots — the service's only admission
/// gate. A cache hit and a pipeline run end the same way: one copy of
/// the answer into the reply. Importing and rendering the answer are
/// the display station's (MedicalServer runs them for E5-E7).
///
///   callers --Execute--> TenantGovernor --slot--> shared ResultCache,
///                          |  (FIFO per tenant,    else the shared
///                          |   deadline-bounded)   QueryPipeline (DBMS)
///                    (reject when the tenant's line is full)
///
/// The extension/database must be fully loaded before the service
/// starts; requests treat it as read-only.
class QueryService {
 public:
  /// `tenants` are the quotas ServiceRequest::tenant indexes; the
  /// default is one tenant that may use every slot.
  QueryService(qbism::SpatialExtension* ext, ServiceOptions options,
               const std::vector<TenantQuota>& tenants = {TenantQuota{}});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Serves one request on the calling thread: waits for an execution
  /// slot of request.tenant (FIFO, bounded by the deadline), then probes
  /// the cache or runs the pipeline while holding it.
  ///   ResourceExhausted  the tenant's waiting line is full (counted as
  ///                      quota_rejected)
  ///   DeadlineExceeded   the deadline passed waiting or mid-query
  ///   Cancelled          the service shut down before a slot came free
  Result<ServiceReply> Execute(const ServiceRequest& request);

  /// Online ingest through the service (requires options.ingest):
  /// stores (or replaces) the study in one durable transaction while
  /// queries keep flowing, then invalidates the study's cached results.
  /// Counted in metrics().ingests / ingest_failures.
  Status RunIngest(const qbism::med::StudyRecord& record, bool replace);

  /// Stops admissions, wakes every waiting caller with Cancelled, and
  /// returns once no caller is inside Execute, so the service may be
  /// destroyed right after. Idempotent; the destructor calls it.
  void Shutdown();

  /// Service counters plus the extraction fast-path counters accrued on
  /// the shared extractor since this service started.
  MetricsSnapshot metrics() const;
  ResultCacheStats cache_stats() const { return cache_.stats(); }

  /// Front-end rejection accounting: a server sitting in front of the
  /// service (src/server) counts the requests it bounces before they
  /// reach Execute, so one MetricsSnapshot covers the whole edge.
  void NoteUnauthorized() { metrics_.AddUnauthorized(); }
  void NoteQuotaRejected() { metrics_.AddQuotaRejected(); }
  void NoteSessionExpired() { metrics_.AddSessionExpired(); }

  /// Pure probe (no LRU promotion, no stats): is this QuerySpec
  /// description cached? Fault tests assert failed queries never are.
  bool CacheContains(const std::string& key) const {
    return cache_.Contains(key);
  }
  /// The admission gate: per-tenant accounting, and a handle tests use
  /// to hold slots.
  TenantGovernor* governor() { return &governor_; }

 private:
  struct Call;

  /// Admits `request` and serves it; Execute wraps this in the caller
  /// count Shutdown waits on.
  Result<ServiceReply> AdmitAndServe(Call& call, const ServiceRequest& request);
  /// Serves an admitted request, including the cache probe/fill.
  Result<ServiceReply> Serve(const Call& call, const ServiceRequest& request,
                             double queue_wait);
  /// Runs the pipeline under the request's deadline checkpoint,
  /// re-running it after IOErrors with capped backoff.
  Result<qbism::PipelineResult> RunWithRetries(const Call& call,
                                               const qbism::QuerySpec& spec);
  void Complete(const Call& call, Result<ServiceReply>* reply);

  qbism::SpatialExtension* ext_;
  ServiceOptions options_;
  qbism::QueryPipeline pipeline_;
  ResultCache cache_;
  ServiceMetrics metrics_;
  TenantGovernor governor_;
  std::unique_ptr<TaskPool> extract_pool_;  // may be null (helpers off)
  qbism::ExtractorStatsSnapshot extractor_baseline_;
  std::mutex shutdown_mu_;
  std::condition_variable idle_;
  int callers_ = 0;         // inside Execute; guarded by shutdown_mu_
  bool shut_down_ = false;  // guarded by shutdown_mu_
  uint64_t ingest_listener_token_ = 0;  // set once in the constructor
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_QUERY_SERVICE_H_
