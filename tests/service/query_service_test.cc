#include "service/query_service.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "med/loader.h"
#include "med/schema.h"
#include "qbism/medical_server.h"
#include "service/workload.h"

namespace qbism::service {
namespace {

/// One shared loaded database for all service tests; the service treats
/// it as read-only, so suites can share it the way the MedicalServer
/// tests do.
class QueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new sql::Database();
    auto ext = SpatialExtension::Install(db_, SpatialConfig{});
    ASSERT_TRUE(ext.ok());
    ext_ = ext.MoveValue().release();
    ASSERT_TRUE(med::BootstrapSchema(db_).ok());
    med::LoadOptions options;
    options.num_pet_studies = 3;
    options.num_mri_studies = 0;
    options.build_meshes = false;
    auto dataset = med::PopulateDatabase(ext_, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    study_ids_ = new std::vector<int>(dataset->pet_study_ids);
    structures_ = new std::vector<std::string>(dataset->structure_names);
  }

  static void TearDownTestSuite() {
    delete structures_;
    delete study_ids_;
    delete ext_;
    delete db_;
  }

  static ServiceOptions FastOptions(int workers) {
    ServiceOptions options;
    options.num_workers = workers;
    options.cost_model.sql_compile_seconds = 0.0;  // modeled, not waited
    return options;
  }

  static sql::Database* db_;
  static SpatialExtension* ext_;
  static std::vector<int>* study_ids_;
  static std::vector<std::string>* structures_;
};

sql::Database* QueryServiceTest::db_ = nullptr;
SpatialExtension* QueryServiceTest::ext_ = nullptr;
std::vector<int>* QueryServiceTest::study_ids_ = nullptr;
std::vector<std::string>* QueryServiceTest::structures_ = nullptr;

TEST_F(QueryServiceTest, ConcurrentMixedWorkloadMatchesSerialExecution) {
  auto gen = WorkloadGenerator::Create(ext_, *study_ids_, *structures_,
                                       WorkloadMix{}, /*seed=*/2026);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 24; ++i) specs.push_back(gen->Next());

  // Serial ground truth from a plain single-threaded MedicalServer.
  MedicalServer serial(ext_, net::NetworkCostModel{}, ServerCostModel{});
  std::map<std::string, StudyQueryResult> expected;
  for (const QuerySpec& spec : specs) {
    auto result = serial.RunStudyQuery(spec, /*render=*/false);
    ASSERT_TRUE(result.ok()) << spec.Describe() << ": "
                             << result.status().ToString();
    expected.emplace(spec.Describe(), result.MoveValue());
  }

  QueryService service(ext_, FastOptions(4));
  std::vector<Ticket> tickets;
  for (const QuerySpec& spec : specs) {
    ServiceRequest request;
    request.spec = spec;
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(ticket.MoveValue());
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto reply = tickets[i].Wait();
    ASSERT_TRUE(reply.ok()) << specs[i].Describe() << ": "
                            << reply.status().ToString();
    const StudyQueryResult& truth = expected.at(specs[i].Describe());
    // Bit-identical payload regardless of worker, ordering, or whether
    // the shared cache served it.
    EXPECT_EQ(reply->result.data.values(), truth.data.values());
    EXPECT_EQ(reply->result.result_voxels, truth.result_voxels);
    EXPECT_EQ(reply->result.result_runs, truth.result_runs);
    EXPECT_GE(reply->worker_id, 0);
    EXPECT_LT(reply->worker_id, 4);
    if (!reply->cache_hit) {
      // A fresh execution must also reproduce the serial I/O footprint.
      EXPECT_EQ(reply->result.timing.lfm_pages, truth.timing.lfm_pages);
      EXPECT_EQ(reply->result.timing.network_messages,
                truth.timing.network_messages);
    }
  }
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.submitted, specs.size());
  EXPECT_EQ(metrics.completed, specs.size());
  EXPECT_EQ(metrics.rejected_queue_full, 0u);
  EXPECT_EQ(metrics.cache_hits + metrics.cache_misses, specs.size());
  EXPECT_EQ(metrics.latency.count, specs.size());
  service.Shutdown();
}

TEST_F(QueryServiceTest, CacheHitPathReturnsIdenticalData) {
  QueryService service(ext_, FastOptions(1));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.structure_name = (*structures_)[0];

  auto first = service.Execute(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GT(first->result.timing.lfm_pages, 0u);

  auto second = service.Execute(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->cache_hit);
  // Same voxels, but no database or network work the second time.
  EXPECT_EQ(second->result.data.values(), first->result.data.values());
  EXPECT_EQ(second->result.result_voxels, first->result.result_voxels);
  EXPECT_EQ(second->result.timing.lfm_pages, 0u);
  EXPECT_EQ(second->result.timing.network_messages, 0u);
  EXPECT_NE(second->result.data_sql.find("cache"), std::string::npos);

  ResultCacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.cache_hits, 1u);
  EXPECT_EQ(metrics.completed, 2u);
}

TEST_F(QueryServiceTest, CacheOffAlwaysExecutes) {
  ServiceOptions options = FastOptions(1);
  options.cache_entries = 0;
  QueryService service(ext_, options);
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.structure_name = (*structures_)[0];
  for (int i = 0; i < 2; ++i) {
    auto reply = service.Execute(request);
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply->cache_hit);
    EXPECT_GT(reply->result.timing.lfm_pages, 0u);
  }
  EXPECT_EQ(service.cache_stats().hits, 0u);
  EXPECT_EQ(service.metrics().cache_misses, 0u);  // cache-off: not counted
}

TEST_F(QueryServiceTest, FullQueueRejectsWithResourceExhausted) {
  // Zero workers: nothing drains, so admission control is deterministic.
  ServiceOptions options = FastOptions(0);
  options.queue_capacity = 2;
  QueryService service(ext_, options);
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];

  auto first = service.Submit(request);
  auto second = service.Submit(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service.queue_depth(), 2u);

  auto third = service.Submit(request);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsResourceExhausted())
      << third.status().ToString();
  EXPECT_EQ(service.metrics().rejected_queue_full, 1u);
  EXPECT_FALSE(first->Done());

  // Shutdown fails the queued work fast rather than abandoning callers.
  service.Shutdown();
  auto reply = first->Wait();
  EXPECT_TRUE(reply.status().IsCancelled()) << reply.status().ToString();
  EXPECT_TRUE(second->Wait().status().IsCancelled());
  EXPECT_EQ(service.metrics().cancelled, 2u);

  // And post-shutdown submissions are turned away immediately.
  EXPECT_TRUE(service.Submit(request).status().IsCancelled());
}

TEST_F(QueryServiceTest, ExpiredDeadlineSkipsExecution) {
  QueryService service(ext_, FastOptions(1));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  // A deadline below the clock tick expires at admission time, so the
  // worker must refuse it at pickup without touching the database.
  request.deadline_seconds = 1e-12;
  auto reply = service.Execute(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsDeadlineExceeded())
      << reply.status().ToString();
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.deadline_expired, 1u);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.cache_misses, 0u);  // never reached the cache probe
}

TEST_F(QueryServiceTest, CancelledTicketsAreReportedCancelled) {
  QueryService service(ext_, FastOptions(1));
  // A full-study blocker occupies the lone worker while we cancel the
  // queue behind it.
  ServiceRequest blocker;
  blocker.spec.study_id = (*study_ids_)[0];
  auto blocker_ticket = service.Submit(blocker);
  ASSERT_TRUE(blocker_ticket.ok());

  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.intensity_range = {224, 255};
  std::vector<Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.MoveValue());
  }
  for (Ticket& ticket : tickets) ticket.Cancel();

  EXPECT_TRUE(blocker_ticket->Wait().ok());
  uint64_t cancelled = 0;
  for (Ticket& ticket : tickets) {
    auto reply = ticket.Wait();
    if (reply.ok()) continue;  // won the race to a worker before Cancel
    EXPECT_TRUE(reply.status().IsCancelled()) << reply.status().ToString();
    ++cancelled;
  }
  EXPECT_GE(cancelled, 1u);  // the blocker pinned the worker long enough
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.cancelled, cancelled);
  EXPECT_EQ(metrics.completed + metrics.cancelled, 6u);
  service.Shutdown();
}

TEST_F(QueryServiceTest, ShutdownIsIdempotentAndTicketsStayValid) {
  QueryService service(ext_, FastOptions(2));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.intensity_range = {224, 255};
  auto reply = service.Execute(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  service.Shutdown();
  service.Shutdown();  // second call is a no-op
  EXPECT_EQ(service.metrics().completed, 1u);
  EXPECT_FALSE(Ticket{}.Valid());
  EXPECT_TRUE(Ticket{}.Wait().status().IsInvalidArgument());
}

TEST_F(QueryServiceTest, WorkloadGeneratorIsDeterministicAndWellFormed) {
  auto a = WorkloadGenerator::Create(ext_, *study_ids_, *structures_,
                                     WorkloadMix{}, 7);
  auto b = WorkloadGenerator::Create(ext_, *study_ids_, *structures_,
                                     WorkloadMix{}, 7);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->DistinctSpecs(), 0u);
  MedicalServer probe(ext_, net::NetworkCostModel{}, ServerCostModel{});
  for (int i = 0; i < 40; ++i) {
    QuerySpec sa = a->Next();
    QuerySpec sb = b->Next();
    EXPECT_EQ(sa.Describe(), sb.Describe());  // same seed, same stream
    auto result = probe.RunStudyQuery(sa, /*render=*/false);
    EXPECT_TRUE(result.ok()) << sa.Describe() << ": "
                             << result.status().ToString();
  }
  auto c = WorkloadGenerator::Create(ext_, {}, *structures_, WorkloadMix{}, 7);
  EXPECT_TRUE(c.status().IsInvalidArgument());
}

}  // namespace
}  // namespace qbism::service
