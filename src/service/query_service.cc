#include "service/query_service.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "qbism/ingest.h"

namespace qbism::service {

using Clock = std::chrono::steady_clock;

/// One request's state on its caller's stack: the clock Execute starts,
/// the deadline measured from it, and the request's trace.
struct QueryService::Call {
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = Clock::time_point::max();  // max() = none

  /// Tracing: the request's root context (span_id is the kQuery root
  /// span, recorded retroactively at completion), the tracer clock at
  /// Execute, and the query-class label. All-zero when tracing is off.
  obs::TraceContext trace;
  uint64_t root_parent = 0;  // parent span when joining a front-end trace
  double trace_start = 0.0;
  char trace_label[16] = {0};
};

QueryService::QueryService(qbism::SpatialExtension* ext,
                           ServiceOptions options,
                           const std::vector<TenantQuota>& tenants)
    : ext_(ext),
      options_(options),
      pipeline_(ext, net::NetworkCostModel{}, options.cost_model),
      cache_(options.cache_entries, kResultCacheBytes),
      governor_(tenants, options.num_workers) {
  extractor_baseline_ = ext_->extractor()->stats();
  int helper_threads = options_.extract_helper_threads < 0
                           ? options_.num_workers
                           : options_.extract_helper_threads;
  if (helper_threads > 0) {
    extract_pool_ = std::make_unique<TaskPool>(helper_threads);
    ext_->extractor()->set_pool(extract_pool_.get());
  }
  if (options_.ingest != nullptr) {
    // Every committed ingest drops the study's cached results before
    // the study comes back online, so a stale entry can never be
    // served after its data changed.
    ingest_listener_token_ =
        options_.ingest->AddCommitListener([this](int study_id) {
          size_t dropped = cache_.InvalidatePrefix(
              "study " + std::to_string(study_id) + " ");
          metrics_.AddCacheInvalidations(dropped);
          // Re-analyze so the optimizer sees the new study's region
          // distribution; the version bump retires stale cached plans.
          // A failed refresh just leaves the old stats in place —
          // planning degrades gracefully to them.
          (void)ext_->RefreshPlannerStats();
        });
  }
}

QueryService::~QueryService() { Shutdown(); }

Result<ServiceReply> QueryService::Execute(const ServiceRequest& request) {
  Call call;  // the request's clock starts now: the deadline covers admission
  metrics_.AddSubmitted();
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) {
      return Status::Cancelled("QueryService: service is shut down");
    }
    ++callers_;
  }
  Result<ServiceReply> reply = AdmitAndServe(call, request);
  {
    // Notified under the lock: Shutdown may destroy the service as soon
    // as it sees the count reach zero.
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (--callers_ == 0) idle_.notify_all();
  }
  return reply;
}

Result<ServiceReply> QueryService::AdmitAndServe(
    Call& call, const ServiceRequest& request) {
  if (request.deadline_seconds > 0.0) {
    call.deadline = call.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         request.deadline_seconds));
  }
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    if (request.trace_parent.tracer == options_.tracer) {
      // Join the front end's trace: the kQuery root becomes a child of
      // the server's per-request span instead of a fresh trace root.
      call.trace = request.trace_parent;
      call.root_parent = request.trace_parent.span_id;
    } else {
      call.trace = options_.tracer->StartTrace();
    }
    call.trace.span_id = options_.tracer->NextSpanId();  // root span id
    call.trace_start = options_.tracer->NowSeconds();
    const qbism::QuerySpec& spec = request.spec;
    const char* label = spec.intensity_range            ? "intensity"
                        : spec.box || spec.structure_name ? "region"
                                                          : "full";
    std::strncpy(call.trace_label, label, sizeof(call.trace_label) - 1);
  }

  Result<AdmissionSlot> slot = governor_.Admit(request.tenant, call.deadline);
  if (!slot.ok() && slot.status().IsResourceExhausted()) {
    // A bounce neither waited nor ran: it counts once, as the tenant's
    // quota rejection.
    metrics_.AddQuotaRejected();
    return slot.status();
  }
  double queue_wait =
      std::chrono::duration<double>(Clock::now() - call.start).count();
  metrics_.RecordQueueWait(queue_wait);

  // Everything this thread (and any donated helper) does for the
  // request now runs under its trace.
  obs::ScopedTraceContext trace_ctx(call.trace);
  if (call.trace.tracer != nullptr) {
    // The admission wait, recorded retroactively (it already happened).
    obs::SpanRecord qw;
    qw.trace_id = call.trace.trace_id;
    qw.span_id = call.trace.tracer->NextSpanId();
    qw.parent_id = call.trace.span_id;
    qw.stage = obs::Stage::kQueueWait;
    qw.ok = slot.ok();
    qw.start_seconds = call.trace_start;
    qw.duration_seconds = queue_wait;
    call.trace.tracer->Record(qw);
  }
  Result<ServiceReply> reply =
      slot.ok() ? Serve(call, request, queue_wait)
                : Result<ServiceReply>(slot.status());
  if (slot.ok()) slot->Release();
  Complete(call, &reply);
  return reply;
}

void QueryService::Complete(const Call& call, Result<ServiceReply>* reply) {
  double latency =
      std::chrono::duration<double>(Clock::now() - call.start).count();
  if (reply->ok()) {
    metrics_.AddCompleted();
    metrics_.AddLfmPages((*reply)->result.timing.lfm_pages);
    metrics_.AddNetworkSeconds((*reply)->result.timing.network_seconds);
    (*reply)->total_seconds = latency;
  } else if (reply->status().IsDeadlineExceeded()) {
    metrics_.AddDeadlineExpired();
  } else if (reply->status().IsCancelled()) {
    metrics_.AddCancelled();
  } else {
    metrics_.AddFailed();
  }
  metrics_.RecordLatency(latency);
  if (call.trace.tracer != nullptr) {
    // The root span, recorded retroactively so it covers Execute to
    // reply (its children were recorded live as the request executed).
    obs::SpanRecord root;
    root.trace_id = call.trace.trace_id;
    root.span_id = call.trace.span_id;
    root.parent_id = call.root_parent;
    root.stage = obs::Stage::kQuery;
    root.ok = reply->ok();
    root.start_seconds = call.trace_start;
    root.duration_seconds = call.trace.tracer->NowSeconds() - call.trace_start;
    std::memcpy(root.label, call.trace_label, sizeof(root.label));
    call.trace.tracer->Record(root);
  }
}

Result<ServiceReply> QueryService::Serve(const Call& call,
                                         const ServiceRequest& request,
                                         double queue_wait) {
  // Admission-to-execution gate: a request whose deadline ran out while
  // it waited never touches the database, so a burst of doomed work
  // drains at checkpoint speed instead of query speed.
  if (Clock::now() >= call.deadline) {
    return Status::DeadlineExceeded("deadline expired before execution");
  }

  const qbism::QuerySpec& spec = request.spec;
  // Visibility gate, checked before the cache probe: a study mid-ingest
  // or quarantined by a failed replace must not be served at all — not
  // even from cache.
  if (options_.ingest != nullptr &&
      !options_.ingest->IsVisible(spec.study_id)) {
    return Status::NotFound("study " + std::to_string(spec.study_id) +
                            " is offline for ingest");
  }
  uint64_t ingest_version =
      options_.ingest != nullptr
          ? options_.ingest->CommitVersion(spec.study_id)
          : 0;
  ServiceReply reply;
  reply.queue_wait_seconds = queue_wait;
  WallTimer execute_timer;

  // The cache key is the probe's input, so building it is probe time
  // (a process's first key also pays its one-time stream setup, about
  // 0.14 ms, which would otherwise fall outside every stage).
  obs::Span probe(obs::Stage::kCacheProbe);
  const std::string key = spec.Describe();
  qbism::PipelineResult answer;
  answer.data = cache_.Get(key);
  probe.SetLabel(answer.data ? "hit" : "miss");
  probe.End();
  if (answer.data != nullptr) {
    // Shared-cache fast path: no SQL, no LFM I/O, no network model —
    // the §5.2 DX cache, but across all clients.
    metrics_.AddCacheHit();
    reply.cache_hit = true;
    answer.data_sql = "(served from the shared result cache)";
  } else {
    if (cache_.enabled()) metrics_.AddCacheMiss();
    QBISM_ASSIGN_OR_RETURN(answer, RunWithRetries(call, spec));
  }

  reply.result = answer.Ship();
  if (options_.io_wait_scale > 0.0) {
    // A hit charges no modeled time, so only executed queries wait.
    const qbism::TimingBreakdown& timing = reply.result.timing;
    double modeled_wait = (timing.db_real_seconds - timing.db_cpu_seconds) +
                          timing.network_seconds;
    if (modeled_wait > 0.0) {
      obs::Span wait(obs::Stage::kIoWait);
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options_.io_wait_scale * modeled_wait));
    }
  }
  reply.execute_seconds = execute_timer.Seconds();
  // Fill only if no ingest of this study committed while the query ran;
  // otherwise this (now stale) result would be inserted after the
  // commit's invalidation swept the key. The cache keeps the pipeline's
  // own object; the reply's copy above shares its voxels and copies
  // only the run list.
  if (!reply.cache_hit &&
      (options_.ingest == nullptr ||
       options_.ingest->CommitVersion(spec.study_id) == ingest_version)) {
    cache_.Put(key, std::move(answer.data));
  }
  return reply;
}

Result<qbism::PipelineResult> QueryService::RunWithRetries(
    const Call& call, const qbism::QuerySpec& spec) {
  // The deadline checkpoint the pipeline polls between stages, so a
  // slow query aborts instead of holding its slot past the deadline.
  const Clock::time_point deadline = call.deadline;
  const std::function<Status()> interrupt = [deadline]() -> Status {
    if (Clock::now() >= deadline) {
      return Status::DeadlineExceeded("deadline expired mid-query");
    }
    return Status::OK();
  };
  Result<qbism::PipelineResult> result = pipeline_.Run(spec, interrupt);
  // Transient-fault recovery: IOError is the retryable class (injected
  // disk faults; flaky media in the real world). Anything else — bad
  // specs, deadline — fails immediately.
  for (int attempt = 0;
       !result.ok() && result.status().IsIOError() &&
       attempt < options_.max_retries;
       ++attempt) {
    double backoff = options_.retry_backoff_seconds * std::ldexp(1.0, attempt);
    if (backoff > options_.retry_backoff_max_seconds) {
      backoff = options_.retry_backoff_max_seconds;
    }
    if (Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff)) >=
        deadline) {
      break;  // the backoff alone would blow the deadline; give up
    }
    if (backoff > 0.0) {
      obs::Span retry(obs::Stage::kRetry);
      char label[16];
      std::snprintf(label, sizeof(label), "retry%d", attempt + 1);
      retry.SetLabel(label);
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    metrics_.AddRetry();
    result = pipeline_.Run(spec, interrupt);
  }
  if (!result.ok() && result.status().IsIOError()) {
    metrics_.AddGiveup();
  }
  return result;
}

Status QueryService::RunIngest(const qbism::med::StudyRecord& record,
                               bool replace) {
  if (options_.ingest == nullptr) {
    return Status::FailedPrecondition(
        "QueryService::RunIngest: no IngestManager configured");
  }
  Status status = replace ? options_.ingest->ReplaceStudy(record)
                          : options_.ingest->IngestStudy(record);
  if (status.ok()) {
    metrics_.AddIngest();
  } else {
    metrics_.AddIngestFailure();
  }
  return status;
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  if (options_.ingest != nullptr && ingest_listener_token_ != 0) {
    options_.ingest->RemoveCommitListener(ingest_listener_token_);
    ingest_listener_token_ = 0;
  }
  // Waiting callers leave with Cancelled; running ones finish their
  // request (or hit its deadline) and release their slots.
  governor_.Close();
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    idle_.wait(lock, [&] { return callers_ == 0; });
  }
  // Detach and drain the helper pool only if it is still ours — a later
  // service sharing the extension may have installed its own.
  if (extract_pool_ != nullptr) {
    if (ext_->extractor()->pool() == extract_pool_.get()) {
      ext_->extractor()->set_pool(nullptr);
    }
    extract_pool_->Shutdown();
  }
}

MetricsSnapshot QueryService::metrics() const {
  MetricsSnapshot out = metrics_.Snapshot();
  qbism::ExtractorStatsSnapshot delta =
      ext_->extractor()->stats() - extractor_baseline_;
  out.extract_extents_planned = delta.extents_planned;
  out.extract_pages_read = delta.pages_read;
  out.extract_pages_demanded = delta.pages_demanded;
  out.extract_bytes_moved = delta.bytes_moved;
  out.extract_helper_tasks = delta.helper_tasks;
  out.extract_coalescing_ratio = delta.CoalescingRatio();
  out.extract_parallel_efficiency = delta.ParallelEfficiency();
  if (options_.tracer != nullptr) {
    out.stages = options_.tracer->StageSummaries();
  }
  return out;
}

}  // namespace qbism::service
