#include "qbism/medical_server.h"

#include <gtest/gtest.h>

#include <set>

#include "med/loader.h"
#include "med/schema.h"

namespace qbism {
namespace {

/// One shared loaded database for all MedicalServer tests (loading takes
/// a few seconds; the queries themselves are fast).
class MedicalServerTest : public ::testing::Test {
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
    options.build_meshes = false;  // not needed here; speeds setup
    auto dataset = med::PopulateDatabase(ext_, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    ServerCostModel costs;
    costs.sql_compile_seconds = 3.0;
    server_ = new MedicalServer(ext_, net::NetworkCostModel{}, costs);
  }

  static void TearDownTestSuite() {
    delete server_;
    delete ext_;
    delete db_;
  }

  static sql::Database* db_;
  static SpatialExtension* ext_;
  static MedicalServer* server_;
};

sql::Database* MedicalServerTest::db_ = nullptr;
SpatialExtension* MedicalServerTest::ext_ = nullptr;
MedicalServer* MedicalServerTest::server_ = nullptr;

TEST_F(MedicalServerTest, FullStudyQueryShipsWholeVolume) {
  QuerySpec spec;
  spec.study_id = 53;
  auto result = server_->RunStudyQuery(spec, /*render=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_voxels, uint64_t{128} * 128 * 128);
  EXPECT_EQ(result->result_runs, 1u);
  // Full volume = 512 LFM pages (2 MB / 4 KB), like the paper's Q1.
  EXPECT_GE(result->timing.lfm_pages, 512u);
  EXPECT_GT(result->timing.network_messages, 2000u);
  EXPECT_GT(result->timing.total_seconds, 0.0);
}

TEST_F(MedicalServerTest, StructureQueryFiltersEarly) {
  QuerySpec full;
  full.study_id = 53;
  QuerySpec spatial;
  spatial.study_id = 53;
  spatial.structure_name = "ntal";
  auto full_result = server_->RunStudyQuery(full, false).MoveValue();
  auto result = server_->RunStudyQuery(spatial, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->result_voxels, full_result.result_voxels / 10);
  EXPECT_LT(result->timing.lfm_pages, full_result.timing.lfm_pages);
  EXPECT_LT(result->timing.network_messages,
            full_result.timing.network_messages);
  // The data really is the study restricted to the structure.
  EXPECT_GT(result->result_voxels, 5000u);
  EXPECT_GT(result->data.MeanIntensity(), 0.0);
}

TEST_F(MedicalServerTest, BoxQueryWorks) {
  QuerySpec spec;
  spec.study_id = 53;
  spec.box = geometry::Box3i{{30, 30, 30}, {100, 100, 100}};
  auto result = server_->RunStudyQuery(spec, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_voxels, 71ull * 71 * 71);  // the paper's Q2
}

TEST_F(MedicalServerTest, BandQueryUsesStoredIndex) {
  QuerySpec spec;
  spec.study_id = 53;
  spec.intensity_range = {224, 255};
  auto result = server_->RunStudyQuery(spec, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every returned voxel is in the band.
  for (uint8_t v : result->data.values()) EXPECT_GE(v, 224);
  // Reading band region + its voxels is far cheaper than the study.
  EXPECT_LT(result->timing.lfm_pages, 512u);
}

TEST_F(MedicalServerTest, BandQueryWithoutIndexScansVolume) {
  QuerySpec indexed;
  indexed.study_id = 53;
  indexed.intensity_range = {224, 255};
  QuerySpec scanned = indexed;
  scanned.use_band_index = false;
  auto a = server_->RunStudyQuery(indexed, false).MoveValue();
  auto b = server_->RunStudyQuery(scanned, false);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // Same answer either way.
  EXPECT_EQ(a.result_voxels, b->result_voxels);
  EXPECT_EQ(a.data.values(), b->data.values());
  // But the scan reads the whole volume: many more pages.
  EXPECT_GT(b->timing.lfm_pages, a.timing.lfm_pages * 2);
}

TEST_F(MedicalServerTest, MixedQueryIntersects) {
  QuerySpec spec;
  spec.study_id = 53;
  spec.structure_name = "ntal1";
  spec.intensity_range = {224, 255};
  auto result = server_->RunStudyQuery(spec, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  QuerySpec structure_only;
  structure_only.study_id = 53;
  structure_only.structure_name = "ntal1";
  QuerySpec band_only;
  band_only.study_id = 53;
  band_only.intensity_range = {224, 255};
  auto s = server_->RunStudyQuery(structure_only, false).MoveValue();
  auto b = server_->RunStudyQuery(band_only, false).MoveValue();
  // Q6 result is contained in both Q4 and Q5 results.
  EXPECT_LE(result->result_voxels,
            std::min(s.result_voxels, b.result_voxels));
  EXPECT_TRUE(
      s.data.region().Contains(result->data.region()).value());
  EXPECT_TRUE(
      b.data.region().Contains(result->data.region()).value());
}

TEST_F(MedicalServerTest, UnknownStudyOrStructureReported) {
  QuerySpec spec;
  spec.study_id = 9999;
  EXPECT_TRUE(server_->RunStudyQuery(spec, false).status().IsNotFound());
  QuerySpec bad_structure;
  bad_structure.study_id = 53;
  bad_structure.structure_name = "nonexistent";
  EXPECT_TRUE(
      server_->RunStudyQuery(bad_structure, false).status().IsNotFound());
  QuerySpec bad_band;
  bad_band.study_id = 53;
  bad_band.intensity_range = {100, 200};  // no stored band matches
  EXPECT_TRUE(server_->RunStudyQuery(bad_band, false).status().IsNotFound());
}

TEST_F(MedicalServerTest, RenderingProducesImageAndCaches) {
  QuerySpec spec;
  spec.study_id = 53;
  spec.structure_name = "ntal1";
  server_->dx()->FlushCache();
  auto result = server_->RunStudyQuery(spec, /*render=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->image.NonBlackFraction(), 0.0);
  EXPECT_GT(result->timing.render_seconds, 0.0);
  EXPECT_NE(server_->dx()->CacheGet(spec.Describe()), nullptr);
}

TEST_F(MedicalServerTest, GeneratedSqlMatchesPaperShape) {
  QuerySpec spec;
  spec.study_id = 53;
  spec.structure_name = "putamen";
  auto result = server_->RunStudyQuery(spec, false).MoveValue();
  EXPECT_NE(result.info_sql.find("atlasName = 'Talairach'"),
            std::string::npos);
  EXPECT_NE(result.data_sql.find("extractvoxels(wv.data"), std::string::npos);
  EXPECT_NE(result.data_sql.find("structureName = 'putamen'"),
            std::string::npos);
}

TEST_F(MedicalServerTest, ConsistentBandRegionAcrossStudies) {
  auto result = server_->ConsistentBandRegion({53, 54, 55}, 32, 63);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The n-way intersection is contained in each study's own band.
  for (int study : {53, 54, 55}) {
    QuerySpec spec;
    spec.study_id = study;
    spec.intensity_range = {32, 63};
    auto band = server_->RunStudyQuery(spec, false).MoveValue();
    EXPECT_TRUE(band.data.region().Contains(result->region).value());
  }
  EXPECT_GT(result->lfm_pages, 0u);
  EXPECT_GT(result->db_real_seconds, 0.0);
}

TEST_F(MedicalServerTest, ConsistentBandRejectsBadInput) {
  EXPECT_FALSE(server_->ConsistentBandRegion({}, 32, 63).ok());
  EXPECT_TRUE(server_->ConsistentBandRegion({53}, 33, 64).status()
                  .IsNotFound());  // not a stored band
}

TEST_F(MedicalServerTest, AverageInStructure) {
  auto result = server_->AverageInStructure({53, 54, 55}, "ntal");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->result_voxels, 5000u);
  // The average lies between the per-study extremes at a probe point.
  QuerySpec spec;
  spec.study_id = 53;
  spec.structure_name = "ntal";
  auto one = server_->RunStudyQuery(spec, false).MoveValue();
  EXPECT_EQ(result->result_voxels, one.result_voxels);
  EXPECT_GT(result->data.MeanIntensity(), 0.0);
  // Network ships one result set, not three.
  EXPECT_LT(result->timing.network_messages,
            3 * one.timing.network_messages);
}

TEST_F(MedicalServerTest, WideAlignedBandIntervalUnionsStoredBands) {
  // [192, 255] spans two stored width-32 bands: the server must answer
  // from the band index via an in-database UNION, not a volume scan.
  QuerySpec wide;
  wide.study_id = 53;
  wide.intensity_range = {192, 255};
  auto result = server_->RunStudyQuery(wide, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->data_sql.find("regionunion"), std::string::npos);
  for (uint8_t v : result->data.values()) EXPECT_GE(v, 192);
  // It must equal the sum of the two narrow band queries.
  QuerySpec a = wide, b = wide;
  a.intensity_range = {192, 223};
  b.intensity_range = {224, 255};
  auto ra = server_->RunStudyQuery(a, false).MoveValue();
  auto rb = server_->RunStudyQuery(b, false).MoveValue();
  EXPECT_EQ(result->result_voxels, ra.result_voxels + rb.result_voxels);
  // Reading two band REGIONs is still far cheaper than the full study.
  EXPECT_LT(result->timing.lfm_pages, 512u);
  // Misaligned intervals still report NotFound under the index.
  QuerySpec misaligned = wide;
  misaligned.intensity_range = {190, 255};
  EXPECT_TRUE(
      server_->RunStudyQuery(misaligned, false).status().IsNotFound());
}

TEST_F(MedicalServerTest, DxCacheShortCircuitsDatabase) {
  QuerySpec spec;
  spec.study_id = 53;
  spec.structure_name = "ntal";
  server_->dx()->FlushCache();
  auto first = server_->RunStudyQuery(spec, false).MoveValue();
  EXPECT_GT(first.timing.lfm_pages, 0u);
  // Second issue with allow_cached: zero DB and network activity.
  QuerySpec cached = spec;
  cached.allow_cached = true;
  auto second = server_->RunStudyQuery(cached, false).MoveValue();
  EXPECT_EQ(second.timing.lfm_pages, 0u);
  EXPECT_EQ(second.timing.network_messages, 0u);
  EXPECT_EQ(second.timing.db_real_seconds, 0.0);
  EXPECT_EQ(second.result_voxels, first.result_voxels);
  EXPECT_EQ(second.data.values(), first.data.values());
  // Without allow_cached the database is consulted again.
  auto third = server_->RunStudyQuery(spec, false).MoveValue();
  EXPECT_GT(third.timing.lfm_pages, 0u);
}

TEST_F(MedicalServerTest, StudyFeatureVectors) {
  auto features = server_->StudyFeatureVector(53);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(features->size(), 11u);  // one mean per atlas structure
  for (double f : *features) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 255.0);
  }
  // Deterministic.
  auto again = server_->StudyFeatureVector(53).MoveValue();
  EXPECT_EQ(*features, again);
  EXPECT_TRUE(server_->StudyFeatureVector(12345).status().IsNotFound());
}

TEST_F(MedicalServerTest, FindSimilarStudies) {
  auto neighbors = server_->FindSimilarStudies(53, {53, 54, 55}, 2);
  ASSERT_TRUE(neighbors.ok()) << neighbors.status().ToString();
  ASSERT_EQ(neighbors->size(), 2u);
  // The query study itself is excluded.
  for (const auto& n : *neighbors) {
    EXPECT_NE(n.id, 53);
    EXPECT_GE(n.distance, 0.0);
  }
  EXPECT_LE((*neighbors)[0].distance, (*neighbors)[1].distance);
  // A study is its own nearest neighbour when allowed in as candidate
  // under a different id? Instead: distances to itself would be zero,
  // so any other study's distance must be positive (different seeds).
  EXPECT_GT((*neighbors)[0].distance, 0.0);
}

TEST_F(MedicalServerTest, DescribeLabels) {
  QuerySpec spec;
  spec.study_id = 5;
  EXPECT_NE(spec.Describe().find("entire study"), std::string::npos);
  spec.structure_name = "ntal";
  spec.intensity_range = {10, 20};
  std::string label = spec.Describe();
  EXPECT_NE(label.find("ntal"), std::string::npos);
  EXPECT_NE(label.find("10-20"), std::string::npos);
}

TEST_F(MedicalServerTest, DescribeIsACanonicalCacheKey) {
  // Describe() doubles as the result-cache key: two specs that can
  // return different data must never collide. Flip each result-affecting
  // field one at a time and check the key moves.
  QuerySpec base;
  base.study_id = 53;
  base.structure_name = "ntal";
  base.intensity_range = {224, 255};
  base.box = geometry::Box3i{{0, 0, 0}, {63, 63, 63}};

  QuerySpec other_study = base;
  other_study.study_id = 54;
  QuerySpec other_atlas = base;
  other_atlas.atlas_name = "Schaltenbrand";
  QuerySpec other_structure = base;
  other_structure.structure_name = "putamen";
  QuerySpec other_band = base;
  other_band.intensity_range = {192, 223};
  QuerySpec other_box = base;
  other_box.box = geometry::Box3i{{0, 0, 0}, {31, 63, 63}};
  QuerySpec no_box = base;
  no_box.box.reset();
  QuerySpec scanned = base;
  scanned.use_band_index = false;

  const QuerySpec* variants[] = {&other_study,     &other_atlas, &other_box,
                                 &no_box,          &other_structure,
                                 &other_band,      &scanned};
  for (const QuerySpec* variant : variants) {
    EXPECT_NE(variant->Describe(), base.Describe());
  }
  // ...and all variants are pairwise distinct too.
  std::set<std::string> keys = {base.Describe()};
  for (const QuerySpec* variant : variants) keys.insert(variant->Describe());
  EXPECT_EQ(keys.size(), 1 + std::size(variants));

  // allow_cached is a hint, not a result-affecting field: same key.
  QuerySpec hinted = base;
  hinted.allow_cached = true;
  EXPECT_EQ(hinted.Describe(), base.Describe());
}

// Names reach the generated SQL from any wire client. Pasted between
// quotes unescaped, this structure name's `or` dropped the studyId
// condition and read 173,892 voxels of other studies; quoted, it is one
// unknown name.
TEST_F(MedicalServerTest, QuotesInNamesStayInsideTheirLiteral) {
  const std::string injected = "no_such' or 'a'='a";
  QueryPipeline pipeline(ext_, net::NetworkCostModel{}, ServerCostModel{});
  QuerySpec bad_structure;
  bad_structure.study_id = 53;
  bad_structure.structure_name = injected;
  EXPECT_TRUE(pipeline.Run(bad_structure).status().IsNotFound());
  QuerySpec bad_atlas;
  bad_atlas.study_id = 53;
  bad_atlas.atlas_name = injected;
  EXPECT_TRUE(pipeline.Run(bad_atlas).status().IsNotFound());
  EXPECT_TRUE(
      server_->AverageInStructure({53}, injected).status().IsNotFound());

  // A structure whose stored name holds quotes is found by that name:
  // store a copy of "ntal" as "o'brien's ntal".
  auto original = db_->Execute(
      "select ns.structureId, ns.systemId from neuralStructure ns"
      " where ns.structureName = 'ntal'");
  ASSERT_TRUE(original.ok() && !original->rows.empty());
  const int64_t id = original->rows[0][0].AsInt().value();
  auto regions = db_->Execute(
      "select ast.atlasId, ast.region, ast.mesh from atlasStructure ast"
      " where ast.structureId = " + std::to_string(id));
  ASSERT_TRUE(regions.ok() && !regions->rows.empty());
  const int64_t copy_id = 1000000;
  const std::string quoted = "o'brien's ntal";
  ASSERT_TRUE(db_->Insert("neuralStructure",
                          {sql::Value::Int(copy_id), sql::Value::String(quoted),
                           original->rows[0][1]})
                  .ok());
  for (const sql::Row& row : regions->rows) {
    ASSERT_TRUE(db_->Insert("atlasStructure", {row[0], sql::Value::Int(copy_id),
                                               row[1], row[2]})
                    .ok());
  }
  QuerySpec spec;
  spec.study_id = 53;
  spec.structure_name = "ntal";
  auto plain = pipeline.Run(spec);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const uint64_t voxels = plain->data->VoxelCount();
  spec.structure_name = quoted;
  auto found = pipeline.Run(spec);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->data->VoxelCount(), voxels);
  auto average = server_->AverageInStructure({53}, quoted);
  ASSERT_TRUE(average.ok()) << average.status().ToString();
  EXPECT_EQ(average->result_voxels, voxels);
}

}  // namespace
}  // namespace qbism
