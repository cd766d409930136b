// Trace-context propagation across threads: donated TaskPool helpers
// run under the submitting query's context, retried (fault-injected)
// queries keep every attempt in the owning trace, and concurrent
// recording against one Tracer is clean (this suite carries the
// `concurrency` label and runs under the tsan preset).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/task_pool.h"
#include "med/loader.h"
#include "med/schema.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "storage/fault_plan.h"

namespace qbism::obs {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::ServiceRequest;
using storage::FaultPlan;

/// Two tasks, one pool thread: whichever thread claims the first task
/// blocks until the second task has run, which forces the two tasks
/// onto two distinct threads — one of them necessarily a pool helper.
std::vector<std::function<Status()>> LatchedPair(std::mutex* mu,
                                                 std::condition_variable* cv,
                                                 bool* second_ran) {
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([=]() -> Status {
    Span span(Stage::kShard);
    span.SetLabel("first");
    std::unique_lock<std::mutex> lock(*mu);
    cv->wait(lock, [=] { return *second_ran; });
    return Status::OK();
  });
  tasks.push_back([=]() -> Status {
    Span span(Stage::kShard);
    span.SetLabel("second");
    {
      std::lock_guard<std::mutex> lock(*mu);
      *second_ran = true;
    }
    cv->notify_all();
    return Status::OK();
  });
  return tasks;
}

TEST(TaskPoolTraceTest, DonatedTaskRunsUnderSubmitterContext) {
  Tracer tracer;
  TaskPool pool(1);
  TraceContext root = tracer.StartTrace();
  ScopedTraceContext install(root);

  std::mutex mu;
  std::condition_variable cv;
  bool second_ran = false;
  ASSERT_TRUE(
      pool.RunBatch(LatchedPair(&mu, &cv, &second_ran), 1).ok());

  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Both spans — including the one the pool helper ran — belong to the
  // submitter's trace, and they really ran on two different threads.
  EXPECT_EQ(spans[0].trace_id, root.trace_id);
  EXPECT_EQ(spans[1].trace_id, root.trace_id);
  EXPECT_NE(spans[0].thread, spans[1].thread);
}

TEST(TaskPoolTraceTest, HelperContextRestoredAfterBatch) {
  Tracer tracer;
  TaskPool pool(1);
  {
    TraceContext root = tracer.StartTrace();
    ScopedTraceContext install(root);
    std::mutex mu;
    std::condition_variable cv;
    bool second_ran = false;
    ASSERT_TRUE(
        pool.RunBatch(LatchedPair(&mu, &cv, &second_ran), 1).ok());
  }
  uint64_t traced = tracer.recorded();
  EXPECT_EQ(traced, 2u);

  // Same pool, no context installed: the helper that just ran traced
  // work must not leak that context into the next batch.
  std::mutex mu;
  std::condition_variable cv;
  bool second_ran = false;
  ASSERT_TRUE(
      pool.RunBatch(LatchedPair(&mu, &cv, &second_ran), 1).ok());
  EXPECT_EQ(tracer.recorded(), traced);  // both spans were inert
}

TEST(TracerConcurrencyTest, ManyThreadsRecordWhileReadersAggregate) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  TracerOptions options;
  options.span_capacity = 1 << 12;
  Tracer tracer(options);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      tracer.Spans();
      tracer.StageSummaries();
      tracer.DumpStatsTable();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer] {
      TraceContext root = tracer.StartTrace();
      ScopedTraceContext install(root);
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span(Stage::kIo);
        span.AddPages(1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(tracer.recorded(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  std::vector<StageSummary> stages = tracer.StageSummaries();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].count,
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(stages[0].pages,
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
}

/// Full query-path propagation over a loaded database: one study on a
/// 64^3 grid, so a full-study extraction moves 64 pages — enough to
/// shard across donated helpers when the device's transfers wait.
class ServiceTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sql::DatabaseOptions dbo;
    dbo.relational_pages = 1 << 12;
    dbo.long_field_pages = 1 << 12;
    db_ = new sql::Database(dbo);
    SpatialConfig config;
    config.grid = region::GridSpec{3, 6};  // 64^3
    auto ext = SpatialExtension::Install(db_, config);
    ASSERT_TRUE(ext.ok());
    ext_ = ext.MoveValue().release();
    ASSERT_TRUE(med::BootstrapSchema(db_).ok());
    med::LoadOptions options;
    options.num_pet_studies = 1;
    options.num_mri_studies = 0;
    options.build_meshes = false;
    options.store_raw_volumes = false;
    auto dataset = med::PopulateDatabase(ext_, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    study_id_ = dataset->pet_study_ids[0];
  }

  static void TearDownTestSuite() {
    delete ext_;
    delete db_;
  }

  void TearDown() override {
    db_->long_field_device()->ClearFault();
    db_->relational_device()->ClearFault();
    db_->long_field_device()->set_realize_scale(0.0);
  }

  static ServiceOptions TracedOptions(Tracer* tracer) {
    ServiceOptions options;
    options.num_workers = 1;
    options.tracer = tracer;
    options.retry_backoff_seconds = 1e-4;
    options.retry_backoff_max_seconds = 1e-3;
    options.cost_model.sql_compile_seconds = 0.0;
    return options;
  }

  static sql::Database* db_;
  static SpatialExtension* ext_;
  static int study_id_;
};

sql::Database* ServiceTraceTest::db_ = nullptr;
SpatialExtension* ServiceTraceTest::ext_ = nullptr;
int ServiceTraceTest::study_id_ = 0;

TEST_F(ServiceTraceTest, FullStudyQueryYieldsOneWellFormedTraceTree) {
  Tracer tracer;
  ServiceOptions options = TracedOptions(&tracer);
  options.extract_helper_threads = 2;
  db_->long_field_device()->set_realize_scale(1e-4);  // transfers wait
  std::vector<SpanRecord> spans;
  {
    QueryService service(ext_, options);
    ServiceRequest request;
    request.spec.study_id = study_id_;  // no conditions: the full study
    auto reply = service.Execute(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    service.Shutdown();  // quiesce every worker and helper
    spans = tracer.Spans();
  }

  const SpanRecord* root = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.stage == Stage::kQuery) {
      ASSERT_EQ(root, nullptr) << "more than one root span";
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->ok);
  EXPECT_STREQ(root->label, "full");
  EXPECT_EQ(root->parent_id, 0u);

  // Every span belongs to the query's trace and hangs off a recorded
  // span — helper-thread shards included.
  std::set<uint64_t> ids;
  for (const SpanRecord& s : spans) ids.insert(s.span_id);
  std::set<Stage> stages;
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, root->trace_id);
    if (s.span_id != root->span_id) {
      EXPECT_TRUE(ids.count(s.parent_id) == 1)
          << "orphan span stage=" << StageName(s.stage);
      EXPECT_LE(s.duration_seconds, root->duration_seconds + 1e-3);
    }
    stages.insert(s.stage);
  }
  for (Stage expected :
       {Stage::kQueueWait, Stage::kCacheProbe, Stage::kTranslate,
        Stage::kInfo, Stage::kData, Stage::kExtract, Stage::kPlan,
        Stage::kShard, Stage::kIo, Stage::kShip}) {
    EXPECT_TRUE(stages.count(expected) == 1)
        << "missing stage " << StageName(expected);
  }

  // metrics() surfaces the same aggregation.
  std::vector<StageSummary> summaries = tracer.StageSummaries();
  EXPECT_FALSE(summaries.empty());
}

// Importing and rendering an answer are the display station's, so a
// service request does neither: its reply carries no image and no
// import or render time, and its trace copies the answer in one ship
// span.
TEST_F(ServiceTraceTest, RequestsNeitherImportNorRender) {
  Tracer tracer;
  ServiceOptions options = TracedOptions(&tracer);
  options.cache_entries = 0;  // the request runs the whole pipeline
  std::vector<SpanRecord> spans;
  {
    QueryService service(ext_, options);
    ServiceRequest request;
    request.spec.study_id = study_id_;
    request.spec.box = geometry::Box3i{{2, 2, 2}, {40, 40, 40}};
    auto plain = service.Execute(request);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_GT(plain->result.data.VoxelCount(), 0u);
    EXPECT_EQ(plain->result.timing.import_cpu_seconds, 0.0);
    EXPECT_EQ(plain->result.timing.render_seconds, 0.0);
    EXPECT_EQ(plain->result.image.width(), 0);
    service.Shutdown();
    spans = tracer.Spans();
  }

  std::multiset<Stage> stages;
  for (const SpanRecord& s : spans) stages.insert(s.stage);
  EXPECT_EQ(stages.count(Stage::kQuery), 1u);
  EXPECT_EQ(stages.count(Stage::kImport), 0u);
  EXPECT_EQ(stages.count(Stage::kRender), 0u);
  // The reply's one answer copy happens inside its one ship span.
  EXPECT_EQ(stages.count(Stage::kShip), 1u);
}

TEST_F(ServiceTraceTest, RetriedQuerySpansNestUnderTheOwningTrace) {
  Tracer tracer;
  ServiceOptions options = TracedOptions(&tracer);
  options.extract_helper_threads = 0;  // deterministic transfer order
  options.max_retries = 2;
  std::vector<SpanRecord> spans;
  {
    QueryService service(ext_, options);
    // First long-field transfer of the query fails once (transient), so
    // attempt #1 dies with IOError and attempt #2 succeeds.
    db_->long_field_device()->InstallFaultPlan(FaultPlan::FailAtTransfer(0));
    ServiceRequest request;
    request.spec.study_id = study_id_;
    request.spec.box = geometry::Box3i{{2, 2, 2}, {40, 40, 40}};
    auto reply = service.Execute(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(service.metrics().retries, 1u);
    service.Shutdown();
    spans = tracer.Spans();
  }

  const SpanRecord* root = nullptr;
  int data_spans = 0;
  int failed_data_spans = 0;
  int retry_spans = 0;
  for (const SpanRecord& s : spans) {
    if (s.stage == Stage::kQuery) {
      ASSERT_EQ(root, nullptr);
      root = &s;
    }
    if (s.stage == Stage::kData) {
      ++data_spans;
      if (!s.ok) ++failed_data_spans;
    }
    if (s.stage == Stage::kRetry) ++retry_spans;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->ok);  // the retry recovered the request
  EXPECT_STREQ(root->label, "region");
  // Both attempts — the failed one and the successful re-execution —
  // plus the backoff sleep all live in the one trace.
  EXPECT_EQ(data_spans, 2);
  EXPECT_EQ(failed_data_spans, 1);
  EXPECT_EQ(retry_spans, 1);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, root->trace_id)
        << "stage " << StageName(s.stage) << " escaped the trace";
  }
}

}  // namespace
}  // namespace qbism::obs
