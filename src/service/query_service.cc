#include "service/query_service.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "qbism/ingest.h"

namespace qbism::service {

using Clock = std::chrono::steady_clock;

/// Completion state shared between the submitting client, the worker,
/// and any Cancel() caller.
struct Ticket::State {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<ServiceReply>> reply;  // guarded by mu

  std::atomic<bool> cancelled{false};
  Clock::time_point submitted;
  Clock::time_point deadline;  // time_point::max() = none
  bool has_deadline = false;

  /// Tracing: the request's root context (span_id is the kQuery root
  /// span, recorded retroactively at completion), the tracer clock at
  /// admission, and the query-class label. All-zero when tracing is off.
  obs::TraceContext trace;
  uint64_t root_parent = 0;  // parent span when joining a front-end trace
  double trace_start = 0.0;
  char trace_label[16] = {0};
};

Result<ServiceReply> Ticket::Wait() const {
  if (!state_) return Status::InvalidArgument("Ticket::Wait: empty ticket");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->reply.has_value(); });
  return *state_->reply;
}

void Ticket::Cancel() {
  if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
}

bool Ticket::Done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->reply.has_value();
}

QueryService::QueryService(qbism::SpatialExtension* ext,
                           ServiceOptions options)
    : ext_(ext),
      options_(options),
      pipeline_(ext, options.net_model, options.cost_model),
      cache_(options.cache_entries, options.cache_bytes),
      queue_(options.queue_capacity) {
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
          if (options_.refresh_planner_stats_on_commit) {
            // Re-analyze so the optimizer sees the new study's region
            // distribution; the version bump retires stale cached
            // plans. A failed refresh just leaves the old stats in
            // place — planning degrades gracefully to them.
            (void)ext_->RefreshPlannerStats();
          }
        });
  }
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryService::~QueryService() { Shutdown(); }

Result<Ticket> QueryService::Submit(const ServiceRequest& request) {
  metrics_.AddSubmitted();
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) {
      return Status::Cancelled("QueryService: service is shut down");
    }
  }
  auto state = std::make_shared<Ticket::State>();
  state->submitted = Clock::now();
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    if (request.trace_parent.tracer == options_.tracer) {
      // Join the front end's trace: the kQuery root becomes a child of
      // the server's per-request span instead of a fresh trace root.
      state->trace = request.trace_parent;
      state->root_parent = request.trace_parent.span_id;
    } else {
      state->trace = options_.tracer->StartTrace();
    }
    state->trace.span_id = options_.tracer->NextSpanId();  // root span id
    state->trace_start = options_.tracer->NowSeconds();
    const qbism::QuerySpec& spec = request.spec;
    const char* label = spec.intensity_range            ? "intensity"
                        : spec.box || spec.structure_name ? "region"
                                                          : "full";
    std::strncpy(state->trace_label, label, sizeof(state->trace_label) - 1);
  }
  if (request.deadline_seconds > 0.0) {
    state->has_deadline = true;
    state->deadline =
        state->submitted +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(request.deadline_seconds));
  } else {
    state->deadline = Clock::time_point::max();
  }
  if (!queue_.TryPush(Pending{request, state})) {
    metrics_.AddRejectedQueueFull();
    return Status::ResourceExhausted(
        "QueryService: admission queue full (" +
        std::to_string(queue_.capacity()) + " pending); retry with backoff");
  }
  Ticket ticket;
  ticket.state_ = std::move(state);
  return ticket;
}

Result<ServiceReply> QueryService::Execute(const ServiceRequest& request) {
  QBISM_ASSIGN_OR_RETURN(Ticket ticket, Submit(request));
  return ticket.Wait();
}

void QueryService::Complete(const std::shared_ptr<Ticket::State>& state,
                            Result<ServiceReply> reply) {
  double latency =
      std::chrono::duration<double>(Clock::now() - state->submitted).count();
  if (reply.ok()) {
    metrics_.AddCompleted();
    metrics_.AddLfmPages(reply->result.timing.lfm_pages);
    metrics_.AddNetworkSeconds(reply->result.timing.network_seconds);
    reply->total_seconds = latency;
  } else if (reply.status().IsDeadlineExceeded()) {
    metrics_.AddDeadlineExpired();
  } else if (reply.status().IsCancelled()) {
    metrics_.AddCancelled();
  } else {
    metrics_.AddFailed();
  }
  metrics_.RecordLatency(latency);
  if (state->trace.tracer != nullptr) {
    // The root span, recorded retroactively so it covers admission to
    // reply (its children were recorded live as the request executed).
    obs::SpanRecord root;
    root.trace_id = state->trace.trace_id;
    root.span_id = state->trace.span_id;
    root.parent_id = state->root_parent;
    root.stage = obs::Stage::kQuery;
    root.ok = reply.ok();
    root.start_seconds = state->trace_start;
    root.duration_seconds =
        state->trace.tracer->NowSeconds() - state->trace_start;
    std::memcpy(root.label, state->trace_label, sizeof(root.label));
    state->trace.tracer->Record(root);
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->reply = std::move(reply);
  }
  state->cv.notify_all();
}

void QueryService::WorkerLoop(int worker_id) {
  while (true) {
    std::optional<Pending> pending = queue_.Pop();
    if (!pending) return;  // closed and drained
    Complete(pending->state, Serve(worker_id, *pending));
  }
}

Result<ServiceReply> QueryService::Serve(int worker_id,
                                         const Pending& pending) {
  const std::shared_ptr<Ticket::State>& state = pending.state;
  Clock::time_point picked_up = Clock::now();
  double queue_wait =
      std::chrono::duration<double>(picked_up - state->submitted).count();
  metrics_.RecordQueueWait(queue_wait);

  // Everything this worker (and any donated helper) does for the
  // request now runs under its trace.
  obs::ScopedTraceContext trace_ctx(state->trace);
  if (state->trace.tracer != nullptr) {
    // Queue residence, recorded retroactively (it already happened).
    obs::SpanRecord qw;
    qw.trace_id = state->trace.trace_id;
    qw.span_id = state->trace.tracer->NextSpanId();
    qw.parent_id = state->trace.span_id;
    qw.stage = obs::Stage::kQueueWait;
    qw.start_seconds = state->trace_start;
    qw.duration_seconds = queue_wait;
    state->trace.tracer->Record(qw);
  }

  // Admission-to-execution gate: requests that died in the queue never
  // touch the database, so a burst of doomed work drains at checkpoint
  // speed instead of query speed.
  if (state->cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("request cancelled while queued");
  }
  if (state->has_deadline && picked_up >= state->deadline) {
    return Status::DeadlineExceeded("deadline expired in admission queue");
  }

  const qbism::QuerySpec& spec = pending.request.spec;
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
  std::string key = spec.Describe();
  ServiceReply reply;
  reply.worker_id = worker_id;
  reply.queue_wait_seconds = queue_wait;
  WallTimer execute_timer;

  obs::Span probe(obs::Stage::kCacheProbe);
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
    QBISM_ASSIGN_OR_RETURN(answer, RunWithRetries(pending));
  }

  reply.result = answer.Ship();
  if (pending.request.render) {
    qbism::ImportAndRender(/*render=*/true, pending.request.camera,
                           &reply.result);
  }
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
  // commit's invalidation swept the key. The cache keeps the result
  // set's own object: the reply's copy above is the only one.
  if (!reply.cache_hit &&
      (options_.ingest == nullptr ||
       options_.ingest->CommitVersion(spec.study_id) == ingest_version)) {
    cache_.Put(key, std::move(answer.data));
  }
  return reply;
}

Result<qbism::PipelineResult> QueryService::RunWithRetries(
    const Pending& pending) {
  const std::shared_ptr<Ticket::State>& state = pending.state;
  // The deadline/cancel checkpoint the pipeline polls between stages, so
  // a slow query aborts instead of wedging the worker.
  const std::function<Status()> interrupt = [state]() -> Status {
    if (state->cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled("request cancelled mid-query");
    }
    if (state->has_deadline && Clock::now() >= state->deadline) {
      return Status::DeadlineExceeded("deadline expired mid-query");
    }
    return Status::OK();
  };
  Result<qbism::PipelineResult> result =
      pipeline_.Run(pending.request.spec, interrupt);
  // Transient-fault recovery: IOError is the retryable class (injected
  // disk faults; flaky media in the real world). Anything else — bad
  // specs, cancellation, deadline — fails immediately.
  for (int attempt = 0;
       !result.ok() && result.status().IsIOError() &&
       attempt < options_.max_retries;
       ++attempt) {
    double backoff = options_.retry_backoff_seconds * std::ldexp(1.0, attempt);
    if (backoff > options_.retry_backoff_max_seconds) {
      backoff = options_.retry_backoff_max_seconds;
    }
    if (state->cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled("request cancelled between retries");
    }
    if (state->has_deadline &&
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff)) >=
            state->deadline) {
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
    result = pipeline_.Run(pending.request.spec, interrupt);
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
  queue_.Close();
  // Fail pending work fast instead of letting workers run it down.
  for (Pending& pending : queue_.DrainNow()) {
    Complete(pending.state,
             Status::Cancelled("QueryService: shut down before execution"));
  }
  for (std::thread& worker : workers_) worker.join();
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
