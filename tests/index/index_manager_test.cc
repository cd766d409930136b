// SpatialIndexManager end to end (docs/INDEXING.md): build from the
// catalog, probe soundness, the planner hook's candidate pruning, and —
// the load-bearing suite — the randomized differential check that every
// index-pruned SQL result is byte-identical to the same query executed
// with no index installed, for the spatial and the count arm. Also
// covers transactional maintenance under ingest (delta overlay,
// rebuild, versioning, vacuum) and pins the EXPLAIN plans of the
// population statements over the paper schema.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "index/manager.h"
#include "med/loader.h"
#include "med/schema.h"
#include "qbism/ingest.h"
#include "qbism/medical_server.h"
#include "qbism/spatial_extension.h"
#include "sql/database.h"
#include "storage/epoch.h"

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
  // paper schema keeps a B+-tree on studyId, so each candidate study is
  // one key probe.
  auto lines = db_.Execute("explain " + query);
  ASSERT_TRUE(lines.ok());
  bool saw_candidates = false;
  std::string plan_text;
  for (const sql::Row& row : lines->rows) {
    plan_text += row[0].AsString().value() + "\n";
    saw_candidates = saw_candidates ||
        row[0].AsString().value().find("candidate probe") != std::string::npos;
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
  //
  // Padding beside the three PETs gives the count arm something to
  // prune: small far-corner studies of distinct sizes, and two studies
  // whose lower band is empty (summarized, but no bitmap bit set).
  for (int64_t s = 0; s < 8; ++s) {
    int side = 1 + int(s);
    auto field = ext_->StoreRegion(Box(24, 24, 24, 24 + side, 24 + side,
                                       24 + side));
    ASSERT_TRUE(field.ok());
    ASSERT_TRUE(db_.Insert("intensityBand",
                           {Value::Int(900 + s), Value::Int(1), Value::Int(0),
                            Value::Int(255), Value::LongField(field.MoveValue())})
                    .ok());
  }
  for (int64_t s = 0; s < 2; ++s) {
    auto empty = ext_->StoreRegion(
        Region(ext_->config().grid, ext_->config().curve));
    auto small = ext_->StoreRegion(Box(2, 2, 2, 3, 3, 3));
    ASSERT_TRUE(empty.ok() && small.ok());
    ASSERT_TRUE(db_.Insert("intensityBand",
                           {Value::Int(950 + s), Value::Int(1), Value::Int(0),
                            Value::Int(127), Value::LongField(empty.MoveValue())})
                    .ok());
    ASSERT_TRUE(db_.Insert("intensityBand",
                           {Value::Int(950 + s), Value::Int(1),
                            Value::Int(128), Value::Int(255),
                            Value::LongField(small.MoveValue())})
                    .ok());
  }

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

  // The count arm: voxelcount/runcount against thresholds at 0, at
  // stored bands' exact counts and one either side, under every
  // operator with the literal on either side, alone or beside an
  // intersects() and lo/hi bounds.
  std::vector<std::string> counts = Run(
      "select voxelcount(region), runcount(region) from intensityBand");
  std::vector<int64_t> exact[2];  // [0] voxels, [1] runs
  for (size_t i = 0; i < counts.size(); i += 7) {
    size_t bar = counts[i].find('|');
    exact[0].push_back(std::stoll(counts[i].substr(0, bar)));
    exact[1].push_back(std::stoll(counts[i].substr(bar + 1)));
  }
  const char* const kFunctions[] = {"voxelcount", "runcount"};
  const char* const kOps[] = {"<", "<=", "=", ">=", ">"};
  size_t first_count_query = queries.size();
  for (int f = 0; f < 2; ++f) {
    std::vector<int64_t> thresholds = {0, 1};
    for (int64_t c : exact[f]) {
      thresholds.insert(thresholds.end(), {c - 1, c, c + 1});
    }
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    for (int64_t k : thresholds) {
      for (const char* op : kOps) {
        std::string call = std::string(kFunctions[f]) + "(region)";
        std::string lit = std::to_string(k);
        std::string where = rng.Next() % 2 == 0
                                ? call + " " + op + " " + lit
                                : lit + " " + op + " " + call;
        switch (rng.Next() % 5) {
          case 0:
            break;
          case 1:
            where += " and intersects(region, boxregion(0, 0, 0, 20, 20, 20))"
                     " <> 0";
            break;
          case 2:
            where += " and lo >= 128";
            break;
          case 3:  // the padding's empty bands are all of its [0, 127]
            where = "hi <= 127 and " + where;
            break;
          default:
            where = "hi <= 127 and " + where +
                    " and 0 < intersects(region, fullregion())";
            break;
        }
        queries.push_back("select studyId, lo, hi, voxelcount(region), "
                          "runcount(region) from intensityBand where " +
                          where);
      }
    }
  }

  std::vector<std::vector<std::string>> reference;
  reference.reserve(queries.size());
  for (const std::string& q : queries) reference.push_back(Run(q));

  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  db_.set_candidate_index_hook(manager.MakeHook());
  size_t pruned_by_counts = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Run(queries[i]), reference[i]) << queries[i];
    if (i < first_count_query) continue;
    for (const std::string& line : Run("explain " + queries[i])) {
      if (line.find("candidate probe") != std::string::npos &&
          line.find("via band summaries") != std::string::npos) {
        ++pruned_by_counts;
      }
    }
  }
  // The count arm really pruned, on a good share of its shapes.
  EXPECT_GT(pruned_by_counts, (queries.size() - first_count_query) / 8);
}

TEST_F(IndexManagerTest, CountArmSpansRetiredVersionsUntilVacuum) {
  // A replace shrinks a band below the threshold while a reader pins an
  // older epoch: the retired summary keeps the study a candidate (the
  // probe stays a superset for that reader) and the exact re-check
  // drops its rows, so the answer equals the hook-less one throughout.
  SpatialIndexManager manager(ext_.get());
  ASSERT_TRUE(manager.BuildFromCatalog().ok());
  IngestManager ingest(ext_.get());
  ingest.set_index_manager(&manager);
  // Intensity 250 where x < bright_columns, else 100 (x varies
  // fastest); the 32^3 atlas sees the raw volume's x < 4 corner.
  auto record = [](int bright_columns) {
    std::vector<uint8_t> data(16 * 16 * 8);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = int(i % 16) < bright_columns ? 250 : 100;
    }
    med::StudyRecord r;
    r.study_id = 300;
    r.patient_id = 9;
    r.date = "1993-07-04";
    r.modality = "PET";
    r.raw = warp::RawVolume::Create(16, 16, 8, std::move(data)).value();
    r.warp_seed = 5;
    r.band_width = 64;
    r.store_raw = false;
    return r;
  };
  ASSERT_TRUE(ingest.IngestStudy(record(16)).ok());
  auto band_voxels = [&] {
    std::vector<std::string> rows = Run(
        "select voxelcount(region) from intensityBand "
        "where studyId = 300 and lo = 192");
    QBISM_CHECK(rows.size() == 1);
    return std::stoll(rows[0]);
  };
  const int64_t before = band_voxels();

  std::promise<void> pinned, release;
  std::thread reader([&] {
    storage::ReadSnapshot snapshot(db_.epochs());
    pinned.set_value();
    release.get_future().wait();
  });
  pinned.get_future().wait();
  ASSERT_TRUE(ingest.ReplaceStudy(record(2)).ok());
  const int64_t after = band_voxels();
  ASSERT_LT(after, before);

  const std::string query =
      "select studyId, lo, voxelcount(region) from intensityBand "
      "where lo >= 192 and voxelcount(region) > " + std::to_string(after);
  BandFilter shrunk;
  shrunk.lo = 192;
  shrunk.min_voxels = after + 1;
  auto reference = [&] {
    db_.set_candidate_index_hook(nullptr);
    std::vector<std::string> rows = Run(query);
    db_.set_candidate_index_hook(manager.MakeHook());
    return rows;
  };
  auto candidates = [&] { return manager.Probe(shrunk).MoveValue(); };

  EXPECT_GE(manager.stats().dead_versions, 1u);
  std::vector<int64_t> spanning = candidates();
  EXPECT_TRUE(
      std::binary_search(spanning.begin(), spanning.end(), int64_t{300}));
  std::vector<std::string> pinned_reference = reference();
  EXPECT_EQ(Run(query), pinned_reference);
  manager.Vacuum();  // the pinned reader still sees the old version
  EXPECT_GE(manager.stats().dead_versions, 1u);
  EXPECT_EQ(Run(query), pinned_reference);

  release.set_value();
  reader.join();
  manager.Vacuum();
  EXPECT_EQ(manager.stats().dead_versions, 0u);
  std::vector<int64_t> live = candidates();
  EXPECT_FALSE(std::binary_search(live.begin(), live.end(), int64_t{300}));
  EXPECT_EQ(Run(query), reference());
}

/// The paper schema (med::BootstrapSchema) over an E23-shaped corpus on
/// the 128^3 atlas grid, analyzed like the population workload: 40
/// studies of two 6^3 band boxes at seeded spots, plus two large
/// overlapping studies. The goldens pin the access paths of the three
/// population statement classes: each relies on the schema's studyId
/// B+-tree, so a schema that loses it fails here.
class PaperSchemaExplainTest : public ::testing::Test {
 protected:
  PaperSchemaExplainTest() : db_(WalOptions()) {
    SpatialConfig config;
    config.grid = GridSpec{3, 7};
    ext_ = SpatialExtension::Install(&db_, config).MoveValue();
    QBISM_CHECK_OK(med::BootstrapSchema(&db_));
    Rng rng(1993);
    for (int64_t study = 1000; study < 1040; ++study) {
      for (int band = 0; band < 2; ++band) {
        int x = int(rng.Next() % 120), y = int(rng.Next() % 120),
            z = int(rng.Next() % 120);
        StoreBand(study, band, {{x, y, z}, {x + 5, y + 5, z + 5}});
      }
    }
    for (int64_t study : {1, 2}) {
      for (int band = 0; band < 2; ++band) {
        int o = int(study) * 4;
        StoreBand(study, band, {{o, o, o}, {o + 20, o + 20, o + 20}});
      }
    }
    QBISM_CHECK_OK(ext_->RefreshPlannerStats());
    manager_ = std::make_unique<SpatialIndexManager>(ext_.get());
    QBISM_CHECK_OK(manager_->BuildFromCatalog());
    db_.set_candidate_index_hook(manager_->MakeHook());
  }

  void StoreBand(int64_t study, int band, const geometry::Box3i& box) {
    auto field = ext_->StoreRegion(
        Region::FromBox(ext_->config().grid, ext_->config().curve, box));
    QBISM_CHECK(field.ok());
    QBISM_CHECK_OK(db_.Insert(
        "intensityBand",
        {Value::Int(study), Value::Int(1), Value::Int(band * 128),
         Value::Int(band * 128 + 127), Value::LongField(field.MoveValue())}));
  }

  std::vector<std::string> Explain(const std::string& sql) {
    auto result = db_.Execute("explain " + sql);
    QBISM_CHECK(result.ok());
    std::vector<std::string> lines;
    for (const sql::Row& row : result->rows) {
      lines.push_back(row[0].AsString().MoveValue());
    }
    return lines;
  }

  sql::Database db_;
  std::unique_ptr<SpatialExtension> ext_;
  std::unique_ptr<SpatialIndexManager> manager_;
};

TEST_F(PaperSchemaExplainTest, SpatialProbeTakesOneKeyProbePerCandidate) {
  // E23's statement and the population workload's probe class.
  EXPECT_EQ(Explain("select studyId, lo, hi, voxelcount(region) from "
                    "intensityBand where intersects(region, "
                    "boxregion(0, 0, 0, 13, 13, 13)) <> 0 and lo >= 128"),
            (std::vector<std::string>{
                "select: est_rows=0 est_cost=374",
                "intensityBand intensityBand: candidate probe on studyId in "
                "2 of 42 key(s) via rtree+bitmap, est 0 of 84 row(s)",
                "  filter (lo >= 128) sel=0 cost=1.5 rank=-0.6667",
                "  filter (intersects(region, boxregion(0, 0, 0, 13, 13, 13))"
                " <> 0) sel=0.3333 cost=660.8 rank=-0.001009",
                "extraction: encoded-domain chain"}));
}

TEST_F(PaperSchemaExplainTest, CountScanTakesOneKeyProbePerCandidate) {
  // The population workload's scan class.
  EXPECT_EQ(Explain("select studyId, lo, runcount(region) from "
                    "intensityBand where voxelcount(region) > 1000"),
            (std::vector<std::string>{
                "select: est_rows=4 est_cost=4915",
                "intensityBand intensityBand: candidate probe on studyId in "
                "2 of 42 key(s) via band summaries, est 4 of 84 row(s)",
                "  filter (voxelcount(region) > 1000) sel=0.04762 "
                "cost=68.27 rank=-0.01395",
                "extraction: encoded-domain chain"}));
}

TEST_F(PaperSchemaExplainTest, BandJoinProbesStudyIdPerLeg) {
  // The Table-4 intersection class, as ConsistentBandRegion builds it.
  MedicalServer server(ext_.get());
  auto result = server.ConsistentBandRegion({1, 2}, 0, 127);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->region.Empty());
  EXPECT_EQ(Explain(result->sql),
            (std::vector<std::string>{
                "select: est_rows=0.25 est_cost=366.5",
                "intensityBand ib0: index probe on studyId = 1, "
                "est 0.5 of 84 row(s)",
                "  filter (ib0.studyId = 1) sel=0.02381 cost=1.5 rank=-0.6508",
                "  filter (ib0.lo = 0) sel=0.5 cost=1.5 rank=-0.3333",
                "  filter (ib0.hi = 127) sel=0.5 cost=1.5 rank=-0.3333",
                "intensityBand ib1: index probe on studyId = 2, "
                "est 0.5 of 84 row(s)",
                "  filter (ib1.studyId = 2) sel=0.02381 cost=1.5 rank=-0.6508",
                "  filter (ib1.lo = 0) sel=0.5 cost=1.5 rank=-0.3333",
                "  filter (ib1.hi = 127) sel=0.5 cost=1.5 rank=-0.3333",
                "join order: ib0, ib1",
                "extraction: encoded-domain chain"}));
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
