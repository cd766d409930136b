// The fault-injection sweep (the tentpole): re-run a load -> query ->
// render pipeline once per page-transfer site with a fault targeting
// exactly that transfer, and require clean Status propagation, intact
// buddy-allocator accounting, an unpoisoned result cache, and errors
// counted in the service metrics at every single site.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "med/loader.h"
#include "qbism/parallel_extractor.h"
#include "med/schema.h"
#include "qbism/medical_server.h"
#include "qbism/spatial_extension.h"
#include "service/query_service.h"
#include "sql/database.h"
#include "support/fault_sweep.h"

namespace qbism {
namespace {

// A 32^3 grid keeps one pipeline run ~30 ms so sweeping every one of
// its ~30 transfer sites stays inside a unit-test budget.
constexpr int kSweepOrder = 3;
constexpr int kSweepMaxLevel = 5;

/// A small but complete QBISM world: database, spatial extension, one
/// loaded PET study, and a server to query it with.
struct World {
  sql::Database db;
  std::unique_ptr<SpatialExtension> ext;
  med::LoadedDataset dataset;
  std::unique_ptr<MedicalServer> server;

  explicit World(sql::DatabaseOptions dbo) : db(dbo) {}
};

sql::DatabaseOptions SmallDeviceOptions() {
  sql::DatabaseOptions dbo;
  dbo.relational_pages = 1 << 10;
  dbo.long_field_pages = 1 << 10;
  dbo.buffer_pool_pages = 64;
  return dbo;
}

Result<std::shared_ptr<World>> BuildWorld(bool load) {
  auto world = std::make_shared<World>(SmallDeviceOptions());
  SpatialConfig config;
  config.grid = region::GridSpec{kSweepOrder, kSweepMaxLevel};
  QBISM_ASSIGN_OR_RETURN(world->ext,
                         SpatialExtension::Install(&world->db, config));
  QBISM_RETURN_NOT_OK(med::BootstrapSchema(&world->db));
  if (load) {
    med::LoadOptions options;
    options.num_pet_studies = 1;
    options.num_mri_studies = 0;
    options.build_meshes = false;
    options.store_raw_volumes = false;
    QBISM_ASSIGN_OR_RETURN(world->dataset,
                           med::PopulateDatabase(world->ext.get(), options));
  }
  world->server = std::make_unique<MedicalServer>(
      world->ext.get(), net::NetworkCostModel{}, ServerCostModel{});
  return world;
}

Status LoadStudy(World* world) {
  med::LoadOptions options;
  options.num_pet_studies = 1;
  options.num_mri_studies = 0;
  options.build_meshes = false;
  options.store_raw_volumes = false;
  QBISM_ASSIGN_OR_RETURN(world->dataset,
                         med::PopulateDatabase(world->ext.get(), options));
  return Status::OK();
}

QuerySpec SweepQuery(const World& world) {
  // A box query rather than a named structure: the atlas shapes are
  // parameterized in 128^3 atlas coordinates and discretize to empty
  // regions on this deliberately tiny grid, while a box always
  // intersects the study volume — so the query arm really does read
  // voxel pages from the LFM.
  QuerySpec spec;
  spec.study_id = world.dataset.pet_study_ids[0];
  spec.box = geometry::Box3i{{4, 4, 4}, {27, 27, 27}};
  return spec;
}

Status RunQueryAndRender(World* world) {
  QBISM_ASSIGN_OR_RETURN(
      StudyQueryResult result,
      world->server->RunStudyQuery(SweepQuery(*world), /*render=*/true));
  if (result.result_voxels == 0) {
    return Status::Internal("query returned an empty structure");
  }
  if (result.image.width() == 0) {
    return Status::Internal("render produced no image");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Arm 1: the full pipeline — bootstrap, load a study, query, render —
// with a fresh world per fault point so load-phase writes are swept too.

TEST(FaultSweepTest, FullPipelineSurvivesAFaultAtEveryTransfer) {
  auto factory = []() -> Result<FaultSweepInstance> {
    QBISM_ASSIGN_OR_RETURN(std::shared_ptr<World> world,
                           BuildWorld(/*load=*/false));
    FaultSweepInstance instance;
    instance.devices = {world->db.relational_device(),
                        world->db.long_field_device()};
    instance.run = [world]() -> Status {
      QBISM_RETURN_NOT_OK(LoadStudy(world.get()));
      return RunQueryAndRender(world.get());
    };
    instance.verify = [world](const Status&) {
      return world->db.lfm()->CheckPageAccounting();
    };
    instance.state = world;
    return instance;
  };

  auto report = RunFaultSweep(factory).MoveValue();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.violations.size(), 0u);
  // Both devices saw traffic on the clean run.
  ASSERT_EQ(report.clean_transfers.size(), 2u);
  EXPECT_GT(report.clean_transfers[0], 0u);
  EXPECT_GT(report.clean_transfers[1], 0u);
  EXPECT_EQ(report.points_tested, report.total_clean_transfers());
  // The pipeline re-executes the same transfer sequence, so every
  // targeted fault must actually fire...
  EXPECT_EQ(report.faults_fired, report.points_tested);
  // ...and with no retry layer in this arm, every fault must surface.
  EXPECT_EQ(report.surfaced, report.points_tested);
  EXPECT_EQ(report.absorbed, 0u);
}

// ---------------------------------------------------------------------
// Arms 2 and 3: query + render over a shared pre-loaded world — the
// read path swept with transient and with persistent faults. The world
// is warmed by one query so buffered relational reads settle before the
// baseline enumerates transfer sites.

FaultSweepFactory QueryFactory(const std::shared_ptr<World>& world) {
  return [world]() -> Result<FaultSweepInstance> {
    FaultSweepInstance instance;
    instance.devices = {world->db.relational_device(),
                        world->db.long_field_device()};
    instance.run = [world] { return RunQueryAndRender(world.get()); };
    instance.verify = [world](const Status&) {
      return world->db.lfm()->CheckPageAccounting();
    };
    instance.state = world;
    return instance;
  };
}

TEST(FaultSweepTest, QueryPathSurvivesTransientFaults) {
  auto world = BuildWorld(/*load=*/true).MoveValue();
  ASSERT_TRUE(RunQueryAndRender(world.get()).ok());  // warm the pool

  auto report = RunFaultSweep(QueryFactory(world)).MoveValue();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  // The LFM is unbuffered, so the query path always reads the volume.
  ASSERT_EQ(report.clean_transfers.size(), 2u);
  EXPECT_GT(report.clean_transfers[1], 0u);
  EXPECT_GT(report.points_tested, 0u);
  EXPECT_EQ(report.faults_fired, report.points_tested);
  EXPECT_EQ(report.surfaced, report.points_tested);

  // The shared world is still fully usable after the whole sweep.
  EXPECT_TRUE(RunQueryAndRender(world.get()).ok());
}

TEST(FaultSweepTest, QueryPathSurvivesPersistentFaults) {
  auto world = BuildWorld(/*load=*/true).MoveValue();
  ASSERT_TRUE(RunQueryAndRender(world.get()).ok());

  FaultSweepOptions options;
  options.persistent = true;  // the device stays dead until ClearFault
  auto report = RunFaultSweep(QueryFactory(world), options).MoveValue();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GT(report.points_tested, 0u);
  EXPECT_EQ(report.surfaced, report.points_tested);
  EXPECT_TRUE(RunQueryAndRender(world.get()).ok());
}

// ---------------------------------------------------------------------
// Arm 4: the sweep through the whole service stack. A fresh one-worker
// QueryService per point (so the shared result cache never hides the
// I/O), with retries on: every transient fault must be absorbed by a
// retry, counted in the metrics, and must never poison the cache.

TEST(FaultSweepTest, ServiceRetriesAbsorbEveryTransientFault) {
  auto world = BuildWorld(/*load=*/true).MoveValue();
  ASSERT_TRUE(RunQueryAndRender(world.get()).ok());
  const std::string key = SweepQuery(*world).Describe();

  auto factory = [world, key]() -> Result<FaultSweepInstance> {
    service::ServiceOptions options;
    options.num_workers = 1;
    options.max_retries = 2;
    options.retry_backoff_seconds = 0.0;  // no need to sleep in tests
    auto service =
        std::make_shared<service::QueryService>(world->ext.get(), options);

    FaultSweepInstance instance;
    instance.devices = {world->db.long_field_device()};
    instance.run = [world, service]() -> Status {
      service::ServiceRequest request;
      request.spec = SweepQuery(*world);
      QBISM_ASSIGN_OR_RETURN(service::ServiceReply reply,
                             service->Execute(request));
      (void)reply;
      return Status::OK();
    };
    instance.verify = [world, service, key](const Status& run_status) {
      QBISM_RETURN_NOT_OK(world->db.lfm()->CheckPageAccounting());
      service::MetricsSnapshot metrics = service->metrics();
      if (!run_status.ok()) {
        // A failed query must be counted and must never be cached.
        if (service->CacheContains(key)) {
          return Status::Internal("failed query's reply was cached");
        }
        if (metrics.failed + metrics.deadline_expired + metrics.cancelled ==
            0) {
          return Status::Internal("failed query not counted in metrics");
        }
      } else if (!service->CacheContains(key)) {
        return Status::Internal("successful query's reply was not cached");
      }
      return Status::OK();
    };
    instance.state = std::make_shared<
        std::pair<std::shared_ptr<World>, decltype(service)>>(world, service);
    return instance;
  };

  auto report = RunFaultSweep(factory).MoveValue();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GT(report.points_tested, 0u);
  EXPECT_EQ(report.faults_fired, report.points_tested);
  // Retries turn every single transient fault into a success.
  EXPECT_EQ(report.absorbed, report.points_tested);
  EXPECT_EQ(report.surfaced, 0u);
}

// ---------------------------------------------------------------------
// Arm 5: the vectored, parallel extraction path in isolation. The
// device's transfers wait (a small realize scale), so every transfer
// here is a ReadPagesBatch op issued from shard tasks running on pool
// helpers, and the sweep covers the batch read sites specifically: a
// mid-batch fault on any op (on any thread) must surface as IOError
// from ExtractBytes, page accounting must stay intact, and a clean
// re-run must deliver uncorrupted bytes.

struct ExtractWorld {
  storage::DiskDevice device{1 << 10};
  storage::LongFieldManager lfm{&device};
  TaskPool pool{4};
  std::unique_ptr<ParallelExtractor> extractor;
  std::vector<uint8_t> bytes;
  storage::LongFieldId field;
  std::vector<storage::ByteRange> sparse;

  static Result<std::shared_ptr<ExtractWorld>> Build() {
    auto world = std::make_shared<ExtractWorld>();
    world->bytes.resize(256 * storage::kPageSize);
    Rng rng(99);
    for (auto& b : world->bytes) b = static_cast<uint8_t>(rng.Next());
    QBISM_ASSIGN_OR_RETURN(world->field, world->lfm.Create(world->bytes));
    // Short runs with page-scale gaps: the plan coalesces some, splits
    // others, so the sweep hits single- and multi-extent batches.
    for (uint64_t off = 100; off + 600 < world->bytes.size();
         off += 3 * storage::kPageSize) {
      world->sparse.push_back({off, 600});
    }
    ExtractOptions options;
    options.min_parallel_pages = 1;
    world->device.set_realize_scale(1e-4);
    world->extractor =
        std::make_unique<ParallelExtractor>(&world->lfm, options);
    world->extractor->set_pool(&world->pool);
    return world;
  }

  Status RunExtractions() {
    QBISM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> full,
        extractor->ExtractBytes(field, {{0, bytes.size()}}));
    if (full != bytes) return Status::Internal("full extraction corrupted");
    QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> got,
                           extractor->ExtractBytes(field, sparse));
    uint64_t at = 0;
    for (const storage::ByteRange& r : sparse) {
      if (std::memcmp(got.data() + at, bytes.data() + r.offset, r.length) !=
          0) {
        return Status::Internal("sparse extraction corrupted");
      }
      at += r.length;
    }
    return Status::OK();
  }
};

FaultSweepFactory ExtractFactory(const std::shared_ptr<ExtractWorld>& world) {
  return [world]() -> Result<FaultSweepInstance> {
    FaultSweepInstance instance;
    instance.devices = {&world->device};
    instance.run = [world] { return world->RunExtractions(); };
    instance.verify = [world](const Status&) {
      return world->lfm.CheckPageAccounting();
    };
    instance.state = world;
    return instance;
  };
}

TEST(FaultSweepTest, ParallelExtractionSurfacesEveryBatchFault) {
  auto world = ExtractWorld::Build().MoveValue();
  ASSERT_TRUE(world->RunExtractions().ok());

  auto report = RunFaultSweep(ExtractFactory(world)).MoveValue();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GT(report.points_tested, 0u);
  // Shard scheduling varies run to run but the batch op count does not,
  // so every targeted transfer exists and fires...
  EXPECT_EQ(report.faults_fired, report.points_tested);
  // ...and with no retry below the service, every fault surfaces.
  EXPECT_EQ(report.surfaced, report.points_tested);
  EXPECT_EQ(report.absorbed, 0u);
  // The world is healthy after the sweep.
  EXPECT_TRUE(world->RunExtractions().ok());
}

// ---------------------------------------------------------------------
// Arm 6: the long-field *lifecycle* including Delete — the PR-2 sweep
// covered Create/Update only, which is how a pre-sync mutation in the
// Delete path could have slipped through. A durable LFM (WAL + epochs)
// runs create/update/delete/re-create with a fault at every transfer
// site on the data device and the log device; at every point the page
// accounting must balance and a vacuum must leave no dead extents
// pinned by nobody.

struct LifecycleWorld {
  storage::DiskDevice device{256};
  storage::DiskDevice log_device{64};
  storage::WriteAheadLog wal{&log_device};
  storage::EpochManager epochs;
  storage::LongFieldManager lfm{
      &device, storage::LfmDurabilityHooks{&wal, &epochs}};

  Status Run() {
    auto payload = [](uint64_t bytes, uint8_t fill) {
      return std::vector<uint8_t>(bytes, fill);
    };
    QBISM_ASSIGN_OR_RETURN(storage::LongFieldId a,
                           lfm.Create(payload(3 * storage::kPageSize, 1)));
    QBISM_ASSIGN_OR_RETURN(storage::LongFieldId b,
                           lfm.Create(payload(storage::kPageSize, 2)));
    QBISM_RETURN_NOT_OK(lfm.Update(a, payload(2 * storage::kPageSize, 3)));
    QBISM_RETURN_NOT_OK(lfm.Delete(b));
    QBISM_ASSIGN_OR_RETURN(storage::LongFieldId c,
                           lfm.Create(payload(storage::kPageSize, 4)));
    QBISM_RETURN_NOT_OK(lfm.Delete(a));
    QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> got, lfm.Read(c));
    if (got != payload(storage::kPageSize, 4)) {
      return Status::Internal("lifecycle read-back corrupted");
    }
    return Status::OK();
  }
};

TEST(FaultSweepTest, DeleteLifecycleKeepsAccountingAtEveryFaultSite) {
  auto factory = []() -> Result<FaultSweepInstance> {
    auto world = std::make_shared<LifecycleWorld>();
    FaultSweepInstance instance;
    instance.devices = {&world->device, &world->log_device};
    instance.run = [world] { return world->Run(); };
    instance.verify = [world](const Status&) -> Status {
      QBISM_RETURN_NOT_OK(world->lfm.CheckPageAccounting());
      // No reader is pinned, so vacuum must fully drain the retirement
      // queue — a failed Delete that half-retired an extent would trip
      // either this or the accounting above.
      world->lfm.Vacuum();
      if (world->lfm.dead_extents() != 0) {
        return Status::Internal("vacuum left unreclaimable dead extents");
      }
      return world->lfm.CheckPageAccounting();
    };
    instance.state = world;
    return instance;
  };

  auto report = RunFaultSweep(factory).MoveValue();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  ASSERT_EQ(report.clean_transfers.size(), 2u);
  EXPECT_GT(report.clean_transfers[0], 0u);  // data-device writes
  EXPECT_GT(report.clean_transfers[1], 0u);  // WAL commit syncs
  EXPECT_EQ(report.points_tested, report.total_clean_transfers());
  EXPECT_EQ(report.faults_fired, report.points_tested);
  EXPECT_EQ(report.surfaced, report.points_tested);
  EXPECT_EQ(report.absorbed, 0u);
}

// ---------------------------------------------------------------------
// Harness self-checks.

TEST(FaultSweepTest, CleanRunFailureIsASetupError) {
  auto factory = []() -> Result<FaultSweepInstance> {
    FaultSweepInstance instance;
    instance.run = [] { return Status::Internal("always broken"); };
    storage::DiskDevice* device = nullptr;
    (void)device;
    instance.devices = {};
    return instance;
  };
  // An always-failing pipeline cannot establish a baseline.
  auto report = RunFaultSweep(factory);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

TEST(FaultSweepTest, SwallowedFaultIsReportedAsViolation) {
  // A pipeline that ignores I/O errors: the sweep must flag every point
  // where the fault fired but the run still claimed success... which it
  // counts as "absorbed"; the violation machinery is for *status
  // mistranslation*, so instead check a wrong-code pipeline.
  auto device = std::make_shared<storage::DiskDevice>(8);
  auto factory = [device]() -> Result<FaultSweepInstance> {
    FaultSweepInstance instance;
    instance.devices = {device.get()};
    instance.run = [device]() -> Status {
      std::vector<uint8_t> buf(storage::kPageSize);
      Status status = device->ReadPage(0, buf.data());
      if (!status.ok()) {
        // The bug under test: a layer that rewrites the error code.
        return Status::Internal("something went wrong");
      }
      return Status::OK();
    };
    instance.state = device;
    return instance;
  };
  auto report = RunFaultSweep(factory).MoveValue();
  ASSERT_EQ(report.points_tested, 1u);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("instead of IOError"), std::string::npos);
}

}  // namespace
}  // namespace qbism
