// SpatialIndexManager end to end (docs/INDEXING.md): build from the
// catalog, probe soundness, the planner hook's candidate pruning, and —
// the load-bearing suite — the randomized differential check that every
// index-pruned SQL result is byte-identical to the same query executed
// with no index installed. Also covers transactional maintenance under
// ingest (delta overlay, rebuild, versioning, vacuum).

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

namespace qbism::index {
namespace {

using region::GridSpec;
using region::Region;
using sql::Value;

sql::DatabaseOptions WalOptions() {
  sql::DatabaseOptions dbo;
  dbo.relational_pages = 1 << 10;
  dbo.long_field_pages = 1 << 10;
  dbo.buffer_pool_pages = 64;
  dbo.enable_wal = true;
  dbo.wal_pages = 1 << 9;
  return dbo;
}

/// A populated corpus on the 32^3 grid: 3 PET studies, no MRI (they are
/// slow to synthesize and add nothing here), no meshes or raw copies.
class IndexManagerTest : public ::testing::Test {
 protected:
  IndexManagerTest() : db_(WalOptions()) {
    SpatialConfig config;
    config.grid = GridSpec{3, 5};
    auto ext = SpatialExtension::Install(&db_, config);
    QBISM_CHECK(ext.ok());
    ext_ = ext.MoveValue();
    QBISM_CHECK(med::BootstrapSchema(&db_).ok());
    med::LoadOptions options;
    options.num_pet_studies = 3;
    options.num_mri_studies = 0;
    options.build_meshes = false;
    options.store_raw_volumes = false;
    auto dataset = med::PopulateDatabase(ext_.get(), options);
    QBISM_CHECK(dataset.ok());
    dataset_ = dataset.MoveValue();
  }

  Region Box(int x0, int y0, int z0, int x1, int y1, int z1) {
    return Region::FromBox(ext_->config().grid, ext_->config().curve,
                           {{x0, y0, z0}, {x1, y1, z1}});
  }

  /// Renders a result set as one comparable string per row. Byte
  /// identity of these strings (including row order) is the acceptance
  /// bar for index pruning.
  static std::vector<std::string> Render(const sql::ResultSet& rs) {
    std::vector<std::string> out;
    for (const sql::Row& row : rs.rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.ToString();
        line += '|';
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  std::vector<std::string> Run(const std::string& sql) {
    auto result = db_.Execute(sql);
    QBISM_CHECK(result.ok());
    return Render(*result);
  }

  sql::Database db_;
  std::unique_ptr<SpatialExtension> ext_;
  med::LoadedDataset dataset_;
};

TEST_F(IndexManagerTest, BuildFromCatalogCoversEveryStudy) {
  SpatialIndexManager manager(ext_.get());
  EXPECT_FALSE(manager.authoritative());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  EXPECT_TRUE(manager.authoritative());

  IndexStats stats = manager.stats();
  EXPECT_EQ(stats.live_studies, 3u);
  EXPECT_GT(stats.live_bands, 0u);
  // The packed tree holds one entry per *non-empty* band — an empty
  // band can never satisfy an intersects probe, so it is summarized but
  // not packed — while live_bands counts every catalog row.
  std::vector<std::string> nonempty =
      Run("select count(*) from intensityBand where voxelcount(region) > 0");
  ASSERT_EQ(nonempty.size(), 1u);
  EXPECT_EQ(std::to_string(stats.tree_entries) + "|", nonempty[0]);
  EXPECT_LE(stats.tree_entries, stats.live_bands);
  EXPECT_GT(stats.tree_entries, 0u);
  EXPECT_GT(stats.tree_pages, 0u);
  EXPECT_EQ(stats.delta_studies, 0u);

  // The full grid at the full intensity window is a superset probe: it
  // must return every study with any non-empty band.
  auto all = manager.ProbeIntersect(
      Region::Full(ext_->config().grid, ext_->config().curve), 0, 255);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  EXPECT_TRUE(std::is_sorted(all->begin(), all->end()));
}

TEST_F(IndexManagerTest, ProbeRespectsIntensityWindow) {
  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  Region full = Region::Full(ext_->config().grid, ext_->config().curve);
  // An intensity window no stored band lies inside (bands are width 32
  // aligned at multiples of 32, so [1, 30] contains no whole band).
  auto none = manager.ProbeIntersect(full, 1, 30);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // An empty probe region intersects nothing.
  auto empty = manager.ProbeIntersect(
      Region(ext_->config().grid, ext_->config().curve), 0, 255);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(IndexManagerTest, HookPrunesPlansAndKeepsResultsIdentical) {
  // Pad the population with far-corner studies the probe box cannot
  // reach: the planner only adopts a candidate set that is a *strict*
  // subset of the studies (one covering everything prunes nothing), and
  // the three PET phantoms all straddle the probe box below.
  for (int64_t s = 0; s < 8; ++s) {
    auto field = ext_->StoreRegion(Box(24, 24, 24, 30, 30, 30));
    ASSERT_TRUE(field.ok());
    ASSERT_TRUE(db_.Insert("intensityBand",
                           {Value::Int(900 + s), Value::Int(1), Value::Int(0),
                            Value::Int(255), Value::LongField(field.MoveValue())})
                    .ok());
  }

  // Reference results first, with no index installed.
  const std::string query =
      "select studyId, lo, hi from intensityBand "
      "where intersects(region, boxregion(0, 0, 0, 10, 10, 10)) <> 0";
  std::vector<std::string> reference = Run(query);
  ASSERT_FALSE(reference.empty());

  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  db_.set_candidate_index_hook(manager.MakeHook());

  // The hook answers and the plan says so (installation bumped the
  // index version, so the cached unpruned plan cannot be reused). The
  // paper schema has no B+-tree on studyId, so the candidate set
  // filters a scan.
  auto lines = db_.Execute("explain " + query);
  ASSERT_TRUE(lines.ok());
  bool saw_candidates = false;
  std::string plan_text;
  for (const sql::Row& row : lines->rows) {
    plan_text += row[0].AsString().value() + "\n";
    saw_candidates = saw_candidates ||
        row[0].AsString().value().find("candidate scan") != std::string::npos;
  }
  EXPECT_TRUE(saw_candidates)
      << "EXPLAIN never mentioned the index; plan was:\n" << plan_text;

  uint64_t probes_before = manager.stats().probes;
  EXPECT_EQ(Run(query), reference);
  EXPECT_GT(manager.stats().probes, probes_before);
}

TEST_F(IndexManagerTest, RandomizedDifferentialAgainstUnindexedExecution) {
  // Every query shape the hook recognizes, over random probe boxes and
  // random intensity windows; run each against the bare database first,
  // then with the index installed. Rows must match byte for byte.
  std::vector<std::string> queries;
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    int x = int(rng.Next() % 28);
    int y = int(rng.Next() % 28);
    int z = int(rng.Next() % 28);
    int side = 1 + int(rng.Next() % 16);
    std::string box = "boxregion(" + std::to_string(x) + ", " +
                      std::to_string(y) + ", " + std::to_string(z) + ", " +
                      std::to_string(std::min(31, x + side)) + ", " +
                      std::to_string(std::min(31, y + side)) + ", " +
                      std::to_string(std::min(31, z + side)) + ")";
    std::string query = "select studyId, lo, hi, voxelcount(region) "
                        "from intensityBand where intersects(region, " +
                        box + ") <> 0";
    switch (trial % 4) {
      case 0:
        break;
      case 1:
        query += " and lo >= " + std::to_string(rng.Next() % 256);
        break;
      case 2:
        query += " and hi <= " + std::to_string(rng.Next() % 256);
        break;
      default:
        query += " and lo >= " + std::to_string(rng.Next() % 128) +
                 " and hi <= " + std::to_string(128 + rng.Next() % 128);
        break;
    }
    queries.push_back(std::move(query));
  }

  std::vector<std::vector<std::string>> reference;
  reference.reserve(queries.size());
  for (const std::string& q : queries) reference.push_back(Run(q));

  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  db_.set_candidate_index_hook(manager.MakeHook());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Run(queries[i]), reference[i]) << queries[i];
  }
}

TEST_F(IndexManagerTest, IngestMaintainsTheIndexThroughDeltaAndRebuild) {
  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  IngestManager ingest(ext_.get());
  ingest.set_index_manager(&manager);

  Rng rng(31);
  std::vector<uint8_t> data(16 * 16 * 8);
  for (auto& b : data) b = uint8_t(rng.Next());
  med::StudyRecord record;
  record.study_id = 200;
  record.patient_id = 9;
  record.date = "1993-07-02";
  record.modality = "PET";
  record.raw = warp::RawVolume::Create(16, 16, 8, std::move(data)).value();
  record.warp_seed = 31;
  record.band_width = 64;
  record.store_raw = false;
  ASSERT_TRUE(ingest.IngestStudy(record).ok());

  // The new study is served from the delta overlay...
  IndexStats stats = manager.stats();
  EXPECT_EQ(stats.live_studies, 4u);
  EXPECT_EQ(stats.delta_studies, 1u);
  Region full = Region::Full(ext_->config().grid, ext_->config().curve);
  auto ids = manager.ProbeIntersect(full, 0, 255);
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(std::binary_search(ids->begin(), ids->end(), int64_t{200}));

  // ...and folds into the packed tree on rebuild.
  ASSERT_TRUE(manager.RebuildPacked().ok());
  stats = manager.stats();
  EXPECT_EQ(stats.delta_studies, 0u);
  // One packed entry per non-empty band (see BuildFromCatalog test).
  std::vector<std::string> nonempty =
      Run("select count(*) from intensityBand where voxelcount(region) > 0");
  ASSERT_EQ(nonempty.size(), 1u);
  EXPECT_EQ(std::to_string(stats.tree_entries) + "|", nonempty[0]);
  auto after = manager.ProbeIntersect(full, 0, 255);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *ids);

  // An index-maintained catalog answers exactly like a fresh build.
  SpatialIndexManager fresh(ext_.get());
  ASSERT_TRUE(fresh.BuildFromCatalog().ok());
  auto expect = fresh.ProbeIntersect(full, 0, 255);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(*after, *expect);
}

TEST_F(IndexManagerTest, ReplaceRetiresTheOldVersionAndVacuumDropsIt) {
  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  IngestManager ingest(ext_.get());
  ingest.set_index_manager(&manager);

  Rng rng(77);
  std::vector<uint8_t> data(16 * 16 * 8);
  for (auto& b : data) b = uint8_t(rng.Next());
  med::StudyRecord record;
  record.study_id = dataset_.pet_study_ids.front();
  record.patient_id = 1;
  record.date = "1993-07-03";
  record.modality = "PET";
  record.raw = warp::RawVolume::Create(16, 16, 8, std::move(data)).value();
  record.warp_seed = 77;
  record.band_width = 64;
  record.store_raw = false;
  ASSERT_TRUE(ingest.ReplaceStudy(record).ok());

  IndexStats stats = manager.stats();
  EXPECT_EQ(stats.live_studies, 3u);
  EXPECT_GE(stats.dead_versions, 1u);

  manager.Vacuum();
  stats = manager.stats();
  EXPECT_EQ(stats.dead_versions, 0u);
  EXPECT_GE(stats.vacuumed_versions, 1u);
  EXPECT_EQ(stats.live_studies, 3u);
}

TEST_F(IndexManagerTest, HookDeclinesOtherTablesAndForeignPredicates) {
  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  auto hook = manager.MakeHook();
  // Wrong table: no opinion.
  EXPECT_FALSE(hook("rawVolume", "rawVolume", {}).has_value());
  // Right table but no intersects conjunct: the bitmap alone may not
  // prune (an empty-region row still satisfies a plain lo/hi range).
  EXPECT_FALSE(hook("intensityBand", "intensityBand", {}).has_value());
}

TEST_F(IndexManagerTest, NonAuthoritativeManagerNeverAnswers) {
  SpatialIndexManager manager(ext_.get());
  auto hook = manager.MakeHook();
  EXPECT_FALSE(hook("intensityBand", "intensityBand", {}).has_value());
}

}  // namespace
}  // namespace qbism::index
