#include "service/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
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

void WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

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

  // Eight caller threads over four slots: half of them wait at any
  // moment, and each runs its requests on its own thread once admitted.
  QueryService service(ext_, FastOptions(4));
  const size_t kCallers = 8;
  std::vector<Result<ServiceReply>> replies(specs.size(),
                                            Status::Internal("not run"));
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = c; i < specs.size(); i += kCallers) {
        ServiceRequest request;
        request.spec = specs[i];
        replies[i] = service.Execute(request);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t i = 0; i < replies.size(); ++i) {
    const Result<ServiceReply>& reply = replies[i];
    ASSERT_TRUE(reply.ok()) << specs[i].Describe() << ": "
                            << reply.status().ToString();
    const StudyQueryResult& truth = expected.at(specs[i].Describe());
    // Bit-identical payload regardless of thread, ordering, or whether
    // the shared cache served it.
    EXPECT_EQ(reply->result.data.values(), truth.data.values());
    EXPECT_EQ(reply->result.result_voxels, truth.result_voxels);
    EXPECT_EQ(reply->result.result_runs, truth.result_runs);
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
  EXPECT_EQ(metrics.quota_rejected, 0u);
  EXPECT_EQ(metrics.cache_hits + metrics.cache_misses, specs.size());
  EXPECT_EQ(metrics.latency.count, specs.size());
  EXPECT_EQ(service.governor()->tenant_stats(0).admitted, specs.size());
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
  // One slot, one waiting place: with the slot held and one caller in
  // line, the tenant's waiting line is full.
  QueryService service(ext_, FastOptions(1),
                       {TenantQuota{/*weight=*/1.0, /*max_waiting=*/1}});
  auto held = service.governor()->Admit(0);
  ASSERT_TRUE(held.ok());
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  Status waiter_status;
  std::thread waiter(
      [&] { waiter_status = service.Execute(request).status(); });
  WaitUntil([&] { return service.governor()->tenant_stats(0).waiting == 1; });

  auto bounced = service.Execute(request);
  ASSERT_FALSE(bounced.ok());
  EXPECT_TRUE(bounced.status().IsResourceExhausted())
      << bounced.status().ToString();
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.quota_rejected, 1u);  // counted once, as the quota
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(service.governor()->tenant_stats(0).rejected_quota, 1u);

  // Shutdown wakes the waiting caller with Cancelled rather than
  // abandoning it.
  service.Shutdown();
  waiter.join();
  EXPECT_TRUE(waiter_status.IsCancelled()) << waiter_status.ToString();
  EXPECT_EQ(service.metrics().cancelled, 1u);
  EXPECT_EQ(service.metrics().completed, 0u);
  held->Release();

  // And post-shutdown calls are turned away immediately.
  EXPECT_TRUE(service.Execute(request).status().IsCancelled());
}

TEST_F(QueryServiceTest, ExpiredDeadlineSkipsExecution) {
  QueryService service(ext_, FastOptions(1));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  // A deadline below the clock tick has expired by the time the slot is
  // granted, so the request is refused without touching the database.
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

TEST_F(QueryServiceTest, DeadlineCoversAdmissionWait) {
  QueryService service(ext_, FastOptions(1));
  auto held = service.governor()->Admit(0);  // the only slot, for 600 ms
  ASSERT_TRUE(held.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    held->Release();
  });
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.deadline_seconds = 0.050;
  auto start = std::chrono::steady_clock::now();
  auto reply = service.Execute(request);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  releaser.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsDeadlineExceeded())
      << reply.status().ToString();
  EXPECT_GE(elapsed, 0.050);
  EXPECT_LT(elapsed, 0.400) << "the deadline did not bound the wait";
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.deadline_expired, 1u);
  EXPECT_EQ(metrics.cache_misses, 0u);
  EXPECT_EQ(service.governor()->tenant_stats(0).waiting, 0);
}

TEST_F(QueryServiceTest, InflightNeverExceedsSlotsAcrossTenants) {
  // Five tenants with one slot each by weight, sharing four slots: the
  // slot count, not the sum of the caps, bounds the work in flight.
  ServiceOptions options = FastOptions(4);
  options.cache_entries = 0;
  options.io_wait_scale = 1.0 / 200.0;  // keep requests in flight a while
  QueryService service(ext_, options, std::vector<TenantQuota>(5));
  TenantGovernor* governor = service.governor();
  std::atomic<bool> done{false};
  int peak_inflight = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      // One read under the governor's lock: summing five per-tenant
      // reads can count a release on one tenant and the grant it hands
      // to another as both in flight.
      peak_inflight = std::max(peak_inflight, governor->total_inflight());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 10; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 6; ++i) {
        ServiceRequest request;
        request.tenant = c % 5;
        request.spec.study_id =
            (*study_ids_)[static_cast<size_t>(c + i) % study_ids_->size()];
        request.spec.intensity_range = {224, 255};
        if (!service.Execute(request).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  done.store(true);
  sampler.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(peak_inflight, 4);
  EXPECT_GE(peak_inflight, 2);  // the callers did overlap
  EXPECT_EQ(service.metrics().completed, 60u);
}

TEST_F(QueryServiceTest, ShutdownWaitsForEveryCaller) {
  // One slot: a slow full-study query runs while two callers wait.
  ServiceOptions options = FastOptions(1);
  options.cache_entries = 0;
  options.io_wait_scale = 1.0 / 100.0;
  auto service = std::make_unique<QueryService>(ext_, options);
  ServiceRequest slow;
  slow.spec.study_id = (*study_ids_)[0];
  Status running_status = Status::Internal("not run");
  std::vector<Status> waiting_status(2, Status::Internal("not run"));
  std::vector<std::thread> callers;
  callers.emplace_back(
      [&] { running_status = service->Execute(slow).status(); });
  TenantGovernor* governor = service->governor();
  WaitUntil([&] { return governor->total_inflight() == 1; });
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back(
        [&, i] { waiting_status[i] = service->Execute(slow).status(); });
  }
  WaitUntil([&] { return governor->tenant_stats(0).waiting == 2; });

  service->Shutdown();
  MetricsSnapshot metrics = service->metrics();
  service.reset();  // safe: no caller is inside Execute any more
  for (std::thread& caller : callers) caller.join();
  EXPECT_TRUE(running_status.ok()) << running_status.ToString();
  for (const Status& status : waiting_status) {
    EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  }
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.cancelled, 2u);
}

TEST_F(QueryServiceTest, ShutdownIsIdempotentAndRefusesLateCallers) {
  QueryService service(ext_, FastOptions(2));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.intensity_range = {224, 255};
  auto reply = service.Execute(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  service.Shutdown();
  service.Shutdown();  // second call is a no-op
  EXPECT_TRUE(service.Execute(request).status().IsCancelled());
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.submitted, 2u);
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
