// Crash recovery of the cross-study index (docs/INDEXING.md): the
// kIndexUpsert records an ingest logs must commit atomically with the
// study's rows, and after any crash the replayed index (ApplyRecovered)
// must answer every probe exactly like a from-scratch rebuild over the
// recovered catalog (BuildFromCatalog). Includes the adversarial arm:
// a kill at every page-transfer site of an in-flight ingest, on the
// data device and on the log device.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "index/manager.h"
#include "med/loader.h"
#include "med/schema.h"
#include "qbism/ingest.h"
#include "qbism/spatial_extension.h"
#include "sql/database.h"
#include "sql/schema.h"
#include "storage/bptree.h"
#include "storage/disk_device.h"
#include "storage/fault_plan.h"

namespace qbism::index {
namespace {

using region::GridSpec;
using region::Region;

sql::DatabaseOptions WalOptions() {
  sql::DatabaseOptions dbo;
  dbo.relational_pages = 1 << 10;
  dbo.long_field_pages = 1 << 10;
  dbo.buffer_pool_pages = 64;
  dbo.enable_wal = true;
  dbo.wal_pages = 1 << 9;
  return dbo;
}

struct World {
  sql::Database db;
  std::unique_ptr<SpatialExtension> ext;
  std::unique_ptr<IngestManager> ingest;
  std::unique_ptr<SpatialIndexManager> index;

  World() : db(WalOptions()) {}
};

Result<std::shared_ptr<World>> BuildWorld() {
  auto world = std::make_shared<World>();
  SpatialConfig config;
  config.grid = GridSpec{3, 5};
  QBISM_ASSIGN_OR_RETURN(world->ext,
                         SpatialExtension::Install(&world->db, config));
  QBISM_RETURN_NOT_OK(med::BootstrapSchema(&world->db));
  world->ingest = std::make_unique<IngestManager>(world->ext.get());
  world->index = std::make_unique<SpatialIndexManager>(world->ext.get());
  QBISM_RETURN_NOT_OK(world->index->BuildFromCatalog());
  world->ingest->set_index_manager(world->index.get());
  return world;
}

med::StudyRecord MakeRecord(int study_id, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(16 * 16 * 8);
  for (auto& b : data) b = uint8_t(rng.Next());
  med::StudyRecord record;
  record.study_id = study_id;
  record.patient_id = 100 + study_id;
  record.date = "1993-07-01";
  record.modality = "PET";
  record.raw = warp::RawVolume::Create(16, 16, 8, std::move(data)).value();
  record.warp_seed = seed;
  record.band_width = 64;
  record.store_raw = false;
  return record;
}

struct CrashImage {
  std::vector<uint8_t> lfm;
  std::vector<uint8_t> wal;
};

CrashImage Snapshot(World* world) {
  return CrashImage{world->db.long_field_device()->CloneContents(),
                    world->db.wal_device()->CloneContents()};
}

/// Recovers a fresh world from the platters, replays the committed
/// index records into one manager, cold-builds a second from the
/// recovered catalog, and requires the two to agree on every probe of a
/// deterministic battery (the full grid plus random boxes and
/// intensity windows). Returns the replayed manager's world.
Result<std::shared_ptr<World>> RecoverAndCheck(const CrashImage& image,
                                               sql::RecoveryStats* stats_out) {
  auto world = std::make_shared<World>();
  SpatialConfig config;
  config.grid = GridSpec{3, 5};
  QBISM_ASSIGN_OR_RETURN(world->ext,
                         SpatialExtension::Install(&world->db, config));
  QBISM_RETURN_NOT_OK(med::BootstrapSchema(&world->db));
  QBISM_RETURN_NOT_OK(
      world->db.long_field_device()->RestoreContents(image.lfm));
  QBISM_RETURN_NOT_OK(world->db.wal_device()->RestoreContents(image.wal));
  QBISM_ASSIGN_OR_RETURN(sql::RecoveryStats stats, world->db.Recover());
  if (stats_out != nullptr) *stats_out = stats;

  world->index = std::make_unique<SpatialIndexManager>(world->ext.get());
  QBISM_RETURN_NOT_OK(
      world->index->ApplyRecovered(world->db.TakeRecoveredIndexRecords()));
  if (!world->index->authoritative()) {
    return Status::Internal("replayed index is not authoritative");
  }

  SpatialIndexManager rebuilt(world->ext.get());
  QBISM_RETURN_NOT_OK(rebuilt.BuildFromCatalog());

  GridSpec grid = world->ext->config().grid;
  curve::CurveKind kind = world->ext->config().curve;
  std::vector<Region> probes;
  probes.push_back(Region::Full(grid, kind));
  Rng rng(1234);
  for (int i = 0; i < 12; ++i) {
    int x = int(rng.Next() % 28), y = int(rng.Next() % 28),
        z = int(rng.Next() % 28);
    int s = 1 + int(rng.Next() % 12);
    probes.push_back(Region::FromBox(
        grid, kind,
        {{x, y, z},
         {std::min(31, x + s), std::min(31, y + s), std::min(31, z + s)}}));
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    auto lo = uint8_t((i * 37) % 200);
    auto hi = uint8_t(lo + 55);
    QBISM_ASSIGN_OR_RETURN(std::vector<int64_t> replayed,
                           world->index->ProbeIntersect(probes[i], lo, hi));
    QBISM_ASSIGN_OR_RETURN(std::vector<int64_t> cold,
                           rebuilt.ProbeIntersect(probes[i], lo, hi));
    if (replayed != cold) {
      return Status::Internal(
          "probe " + std::to_string(i) +
          ": WAL-replayed index and catalog rebuild disagree");
    }
  }

  world->ingest = std::make_unique<IngestManager>(world->ext.get());
  world->ingest->set_index_manager(world->index.get());
  return world;
}

TEST(IndexCrashTest, CommittedIngestsRecoverIntoTheIndex) {
  auto world = BuildWorld().MoveValue();
  ASSERT_TRUE(world->ingest->IngestStudy(MakeRecord(1, 11)).ok());
  ASSERT_TRUE(world->ingest->IngestStudy(MakeRecord(2, 22)).ok());

  sql::RecoveryStats stats;
  auto recovered = RecoverAndCheck(Snapshot(world.get()), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.committed_txns, 2u);
  EXPECT_EQ(stats.index_records, 2u);
  IndexStats istats = (*recovered)->index->stats();
  EXPECT_EQ(istats.live_studies, 2u);

  // The recovered world keeps maintaining the index.
  ASSERT_TRUE((*recovered)->ingest->IngestStudy(MakeRecord(3, 33)).ok());
  EXPECT_EQ((*recovered)->index->stats().live_studies, 3u);
}

TEST(IndexCrashTest, ReplaceRecoversLastWins) {
  auto world = BuildWorld().MoveValue();
  ASSERT_TRUE(world->ingest->IngestStudy(MakeRecord(1, 11)).ok());
  ASSERT_TRUE(world->ingest->ReplaceStudy(MakeRecord(1, 99)).ok());

  sql::RecoveryStats stats;
  auto recovered = RecoverAndCheck(Snapshot(world.get()), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.index_records, 2u);  // both upserts replay, last wins
  EXPECT_EQ((*recovered)->index->stats().live_studies, 1u);
}

/// Checks every B+-tree of the schema against its table: one entry per
/// live row (Size() equals count(*)), and entry for entry (Scan order)
/// the tree a cold CREATE INDEX backfill of the current rows builds.
void ExpectKeyIndexesExact(sql::Database* db) {
  for (const char* table : {"rawVolume", "warpedVolume", "intensityBand"}) {
    SCOPED_TRACE(table);
    sql::TableInfo* info = db->catalog()->GetTable(table).value();
    ASSERT_EQ(info->indexes.count("studyId"), 1u);
    auto live = db->Execute(std::string("select count(*) from ") + table);
    ASSERT_TRUE(live.ok());
    size_t column = info->schema.ColumnIndex("studyId").value();
    storage::BPlusTree cold =
        storage::BPlusTree::Create(db->buffer_pool(), db->page_allocator())
            .MoveValue();
    ASSERT_TRUE(info->file
                    ->Scan([&](const storage::RecordId& rid,
                               const std::vector<uint8_t>& bytes) {
                      sql::Row row =
                          sql::DeserializeRow(info->schema, bytes).MoveValue();
                      QBISM_CHECK_OK(cold.Insert(row[column].AsInt().value(),
                                                 rid));
                      return true;
                    })
                    .ok());
    for (const auto& [name, tree] : info->indexes) {
      SCOPED_TRACE(name);
      EXPECT_EQ(int64_t(tree->Size().value()),
                live->rows[0][0].AsInt().value());
      auto entries = [](const storage::BPlusTree& t) {
        std::vector<std::pair<int64_t, storage::RecordId>> out;
        QBISM_CHECK_OK(t.Scan([&](int64_t key, const storage::RecordId& rid) {
          out.emplace_back(key, rid);
          return true;
        }));
        return out;
      };
      EXPECT_TRUE(entries(*tree) == entries(cold));
    }
  }
}

TEST(IndexCrashTest, KeyIndexesStayExactAcrossReplacesAndRecovery) {
  // An ingesting server replaces one study over and over: each replace
  // deletes the study's rows and inserts new ones, so every studyId
  // B+-tree must drop the old entries or grow without bound.
  auto world = BuildWorld().MoveValue();
  ASSERT_TRUE(world->ingest->IngestStudy(MakeRecord(1, 11)).ok());
  ASSERT_TRUE(world->ingest->IngestStudy(MakeRecord(2, 22)).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(world->ingest->ReplaceStudy(MakeRecord(1, 100 + i)).ok())
        << "replace " << i;
    world->ingest->Vacuum();
  }
  ExpectKeyIndexesExact(&world->db);
  // The ingest vacuum drops the spatial index's retired summaries too.
  EXPECT_EQ(world->index->stats().dead_versions, 0u);
  EXPECT_EQ(world->index->stats().live_studies, 2u);

  // Recovery replays the rows through Catalog::InsertRow and the logged
  // deletes through DELETE: the replayed trees must be exact too.
  sql::RecoveryStats stats;
  auto recovered = RecoverAndCheck(Snapshot(world.get()), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.committed_txns, 202u);
  ExpectKeyIndexesExact(&(*recovered)->db);
}

// The adversarial matrix: enumerate every page transfer the ingest of
// study 2 performs on one device, then re-run with a persistent fault
// at each site. The ingest must fail, and recovery must see exactly the
// one committed study — in the catalog AND in the replayed index.
Result<uint64_t> RunCrashMatrix(bool fault_log_device) {
  QBISM_ASSIGN_OR_RETURN(std::shared_ptr<World> world, BuildWorld());
  QBISM_RETURN_NOT_OK(world->ingest->IngestStudy(MakeRecord(1, 11)));
  storage::DiskDevice* device = fault_log_device
                                    ? world->db.wal_device()
                                    : world->db.long_field_device();
  storage::FaultStats before = device->fault_stats();
  QBISM_RETURN_NOT_OK(world->ingest->IngestStudy(MakeRecord(2, 22)));
  uint64_t transfers = (device->fault_stats() - before).transfers;
  if (transfers == 0) {
    return Status::Internal("clean ingest performed no transfers");
  }

  uint64_t points = 0;
  for (uint64_t point = 0; point < transfers; ++point) {
    QBISM_ASSIGN_OR_RETURN(world, BuildWorld());
    QBISM_RETURN_NOT_OK(world->ingest->IngestStudy(MakeRecord(1, 11)));
    device = fault_log_device ? world->db.wal_device()
                              : world->db.long_field_device();
    device->InstallFaultPlan(storage::FaultPlan::FailAtTransfer(
        point, storage::FaultDurability::kPersistent));
    Status status = world->ingest->IngestStudy(MakeRecord(2, 22));
    device->ClearFault();
    if (status.ok()) {
      return Status::Internal("ingest survived a persistent fault at site " +
                              std::to_string(point));
    }
    // The failed transaction's staged index entry must have been
    // dropped: the live manager still serves exactly study 1.
    if (world->index->stats().live_studies != 1) {
      return Status::Internal("site " + std::to_string(point) +
                              ": staged index entry leaked into the overlay");
    }

    sql::RecoveryStats stats;
    QBISM_ASSIGN_OR_RETURN(std::shared_ptr<World> recovered,
                           RecoverAndCheck(Snapshot(world.get()), &stats));
    if (stats.index_records != 1) {
      return Status::Internal(
          "site " + std::to_string(point) + ": expected 1 index record, got " +
          std::to_string(stats.index_records));
    }
    IndexStats istats = recovered->index->stats();
    if (istats.live_studies != 1) {
      return Status::Internal("site " + std::to_string(point) +
                              ": uncommitted study leaked into the index");
    }
    ++points;
  }
  return points;
}

TEST(IndexCrashTest, KillAtEveryDataDeviceTransferSite) {
  auto points = RunCrashMatrix(/*fault_log_device=*/false);
  ASSERT_TRUE(points.ok()) << points.status().message();
  EXPECT_GT(*points, 0u);
}

TEST(IndexCrashTest, KillAtEveryLogDeviceTransferSite) {
  auto points = RunCrashMatrix(/*fault_log_device=*/true);
  ASSERT_TRUE(points.ok()) << points.status().message();
  EXPECT_GT(*points, 0u);
}

}  // namespace
}  // namespace qbism::index
