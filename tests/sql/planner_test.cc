#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "qbism/spatial_extension.h"
#include "region/stats.h"
#include "sql/database.h"
#include "sql/planner/cost.h"
#include "sql/planner/stats.h"
#include "volume/volume.h"

namespace qbism::sql {
namespace {

using curve::CurveKind;
using region::GridSpec;
using region::Region;
using region::RegionEncoding;

/// Flattens an EXPLAIN result (one string row per plan line).
std::vector<std::string> ExplainOf(Database* db, const std::string& sql) {
  auto result = db->Execute(sql);
  QBISM_CHECK(result.ok());
  std::vector<std::string> lines;
  for (const Row& row : result->rows) {
    lines.push_back(row[0].AsString().MoveValue());
  }
  return lines;
}

/// Index of the first line containing `needle`, or npos.
size_t LineWith(const std::vector<std::string>& lines,
                const std::string& needle) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find(needle) != std::string::npos) return i;
  }
  return std::string::npos;
}

// --- Statistics layer ---------------------------------------------------

TEST(PlannerStatsTest, HistogramSelectivityAbove) {
  planner::RegionColumnStats stats;
  stats.rows = 100;
  // 50 rows with voxel counts in [8,16), 50 in [1024,2048).
  stats.voxels_log2[planner::RegionColumnStats::BucketOf(8)] = 50;
  stats.voxels_log2[planner::RegionColumnStats::BucketOf(1024)] = 50;
  EXPECT_NEAR(stats.VoxelCountSelectivityAbove(0.0), 1.0, 1e-9);
  EXPECT_NEAR(stats.VoxelCountSelectivityAbove(512.0), 0.5, 1e-9);
  EXPECT_NEAR(stats.VoxelCountSelectivityAbove(1 << 20), 0.0, 1e-9);
  // Monotone non-increasing in the threshold.
  double prev = 1.0;
  for (double t = 1.0; t < (1 << 14); t *= 2) {
    double sel = stats.VoxelCountSelectivityAbove(t);
    EXPECT_LE(sel, prev + 1e-12) << "threshold " << t;
    prev = sel;
  }
}

TEST(PlannerStatsTest, FitPowerLawRecoversExponent) {
  // Synthesize delta lengths following count = c * length^(-1.6), the
  // shape §4.2 reports for real atlas regions.
  std::vector<uint64_t> lengths;
  for (uint64_t len = 1; len <= 64; ++len) {
    auto count = static_cast<uint64_t>(2000.0 * std::pow(double(len), -1.6));
    for (uint64_t i = 0; i < count; ++i) lengths.push_back(len);
  }
  LinearFit fit = region::FitPowerLaw(lengths);
  // Log-binning steepens the raw exponent a little; the planner only
  // needs "clearly power-law-decaying", not the exact exponent.
  EXPECT_LT(fit.slope, -1.0);
  EXPECT_GT(fit.slope, -2.6);
  EXPECT_LT(fit.r, -0.9);  // strong log-log correlation
}

TEST(PlannerStatsTest, AnalyzeTableScalarStats) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int, grp int)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db.Insert("t", {Value::Int(i), Value::Int(i % 4)}).ok());
  }
  uint64_t before = db.planner_stats()->version();
  ASSERT_TRUE(db.planner_stats()->AnalyzeTable(db.catalog(), "t").ok());
  EXPECT_GT(db.planner_stats()->version(), before);

  auto stats = db.planner_stats()->Get("t");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->rows, 20u);
  const planner::ColumnStats& id = stats->columns.at("id");
  EXPECT_EQ(id.non_null, 20u);
  EXPECT_EQ(id.distinct_est, 20u);
  ASSERT_TRUE(id.has_range);
  EXPECT_EQ(id.min, 0.0);
  EXPECT_EQ(id.max, 19.0);
  EXPECT_EQ(stats->columns.at("grp").distinct_est, 4u);
}

// --- EXPLAIN golden shapes ----------------------------------------------

TEST(ExplainTest, IndexProbeRecognizesConstantFoldedKey) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int, v int)").ok());
  ASSERT_TRUE(db.Execute("create index idx_id on t (id)").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i), Value::Int(i * 10)}).ok());
  }
  // The probe key is an expression; the optimizer folds it once at
  // compile time and still picks the index.
  auto lines = ExplainOf(&db, "explain select v from t where id = 2 + 3");
  EXPECT_NE(LineWith(lines, "index probe on id = 5"), std::string::npos)
      << "got:\n" << ::testing::PrintToString(lines);
  // And the folded probe actually runs: one row, v = 50.
  auto result = db.Execute("select v from t where id = 2 + 3");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt().MoveValue(), 50);
}

TEST(ExplainTest, ReportsUnresolvableColumnInsteadOfAPlan) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int, v int)").ok());
  // Execution defers resolution errors until a row reaches them (the
  // interpreter contract), but EXPLAIN must not print a confident plan
  // over a column that does not exist.
  auto result = db.Execute("explain select v from t where bogus > 3");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("unknown column 'bogus'"),
            std::string::npos)
      << result.status().ToString();
  // Same for the select list and for unknown functions.
  EXPECT_FALSE(db.Execute("explain select bogus from t").ok());
  EXPECT_FALSE(db.Execute("explain select nosuchfn(v) from t").ok());
}

TEST(ExplainTest, JoinOrderStartsFromSmallerTable) {
  Database db;
  ASSERT_TRUE(db.Execute("create table big (id int, payload int)").ok());
  ASSERT_TRUE(db.Execute("create table small (k int, tag int)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert("big", {Value::Int(i), Value::Int(i)}).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Insert("small", {Value::Int(i), Value::Int(-i)}).ok());
  }
  ASSERT_TRUE(db.planner_stats()->AnalyzeAll(db.catalog()).ok());
  auto lines = ExplainOf(
      &db, "explain select b.payload from big b, small s where b.id = s.k");
  EXPECT_NE(LineWith(lines, "join order: s, b"), std::string::npos)
      << "got:\n" << ::testing::PrintToString(lines);
  // The reordered join still answers correctly.
  auto result =
      db.Execute("select b.payload from big b, small s where b.id = s.k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);
}

/// EXPLAIN shapes for the paper's Table 3/4 queries: spatial threshold
/// conjuncts over stored regions, with the optimizer ordering them by
/// the fitted power-law selectivity.
class SpatialExplainTest : public ::testing::Test {
 protected:
  SpatialExplainTest() {
    SpatialConfig config;
    config.grid = GridSpec{3, 5};  // 32^3
    config.region_encoding = RegionEncoding::kEliasDeltas;
    auto ext = SpatialExtension::Install(&db_, config);
    QBISM_CHECK(ext.ok());
    ext_ = ext.MoveValue();
  }

  /// Stores boxes of growing size: voxel counts (2i+1)^3 for
  /// i = 1..12, i.e. 27 .. 15625 voxels.
  void StoreGrowingBoxes() {
    ASSERT_TRUE(
        db_.Execute("create table r (id int, studyId int, reg longfield)")
            .ok());
    for (int i = 1; i <= 12; ++i) {
      Region box = Region::FromBox(
          ext_->config().grid, CurveKind::kHilbert,
          {{0, 0, 0}, {2 * i, 2 * i, 2 * i}});
      ASSERT_TRUE(
          db_.Insert("r",
                     {Value::Int(i), Value::Int(i % 3),
                      Value::LongField(ext_->StoreRegion(box).MoveValue())})
              .ok());
    }
    ASSERT_TRUE(ext_->RefreshPlannerStats().ok());
  }

  Database db_;
  std::unique_ptr<SpatialExtension> ext_;
};

TEST_F(SpatialExplainTest, RefreshBuildsRegionHistogramsAndFits) {
  StoreGrowingBoxes();
  auto stats = db_.planner_stats()->Get("r");
  ASSERT_NE(stats, nullptr);
  const planner::RegionColumnStats& reg = stats->regions.at("reg");
  EXPECT_EQ(reg.rows, 12u);
  EXPECT_GT(reg.total_voxels, 0u);
  EXPECT_GT(reg.total_bytes, 0u);
  // 27-voxel boxes are below 8000, the two largest are above.
  EXPECT_LT(reg.VoxelCountSelectivityAbove(8000.0),
            reg.VoxelCountSelectivityAbove(30.0));
  // Per-study fits are keyed by the studyId column.
  EXPECT_FALSE(reg.per_study.empty());
}

TEST_F(SpatialExplainTest, RefreshSkipsStoredVolumesWithoutReadingThem) {
  // One stored VOLUME and one REGION: the refresh tells the VOLUME by
  // its size and reads only the REGION's pages.
  ASSERT_TRUE(
      db_.Execute("create table s (id int, data longfield, reg longfield)")
          .ok());
  const GridSpec& grid = ext_->config().grid;
  auto volume = ext_->StoreVolume(volume::Volume::FromFunction(
      grid, CurveKind::kHilbert, [](const geometry::Vec3i&) {
        return uint8_t{7};
      }));
  auto region = ext_->StoreRegion(
      Region::FromBox(grid, CurveKind::kHilbert, {{0, 0, 0}, {5, 5, 5}}));
  ASSERT_TRUE(volume.ok() && region.ok());
  ASSERT_TRUE(db_.Insert("s", {Value::Int(1), Value::LongField(*volume),
                               Value::LongField(*region)})
                  .ok());
  uint64_t region_pages =
      (db_.lfm()->Size(*region).value() + storage::kPageSize - 1) /
      storage::kPageSize;
  storage::IoStats before = db_.lfm()->device()->stats();
  ASSERT_TRUE(ext_->RefreshPlannerStats().ok());
  EXPECT_EQ((db_.lfm()->device()->stats() - before).pages_read, region_pages);
  auto stats = db_.planner_stats()->Get("s");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->regions.count("data"), 0u);
  EXPECT_EQ(stats->regions.at("reg").rows, 1u);
}

TEST_F(SpatialExplainTest, ReordersLowSelectivitySpatialConjunctFirst) {
  StoreGrowingBoxes();
  // Written with the unselective conjunct first; the optimizer must
  // flip them — voxelcount(reg) > 8000 passes 3/12 rows while > 30
  // passes 11/12, and both cost one streamed run count.
  auto lines = ExplainOf(&db_,
                         "explain select id from r "
                         "where voxelcount(reg) > 30 "
                         "and voxelcount(reg) > 8000");
  size_t selective = LineWith(lines, "filter (voxelcount(reg) > 8000)");
  size_t unselective = LineWith(lines, "filter (voxelcount(reg) > 30)");
  ASSERT_NE(selective, std::string::npos)
      << "got:\n" << ::testing::PrintToString(lines);
  ASSERT_NE(unselective, std::string::npos);
  EXPECT_LT(selective, unselective)
      << "got:\n" << ::testing::PrintToString(lines);
  // The reordered plan returns exactly the three largest regions
  // (21^3 = 9261, 23^3 = 12167, 25^3 = 15625 voxels).
  auto result = db_.Execute(
      "select id from r where voxelcount(reg) > 30 "
      "and voxelcount(reg) > 8000");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(SpatialExplainTest, SetOpChainPlansEncodedDomainExtraction) {
  StoreGrowingBoxes();
  // Table 3 shape: measure the overlap of two stored structures. With
  // elias-stored operands the plan keeps the whole chain encoded.
  auto lines = ExplainOf(&db_,
                         "explain select voxelcount("
                         "intersection(a.reg, b.reg)) "
                         "from r a, r b where a.id = 2 and b.id = 4");
  EXPECT_NE(LineWith(lines, "extraction: encoded-domain chain"),
            std::string::npos)
      << "got:\n" << ::testing::PrintToString(lines);
}

// --- Plan cache ---------------------------------------------------------

TEST(PlanCacheTest, RepeatedStatementHitsCachedPlan) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int, v int)").ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1), Value::Int(10)}).ok());
  PlanCache* cache = db.plan_cache();
  EXPECT_EQ(cache->size(), 0u);

  const std::string q = "select v from t where id = 1";
  ASSERT_TRUE(db.Execute(q).ok());
  EXPECT_EQ(cache->size(), 1u);
  uint64_t hits = cache->hits();
  auto result = db.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(cache->hits(), hits + 1);
  EXPECT_EQ(result->rows[0][0].AsInt().MoveValue(), 10);
}

TEST(PlanCacheTest, DdlAndStatsRefreshInvalidate) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int, v int)").ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1), Value::Int(10)}).ok());
  PlanCache* cache = db.plan_cache();
  const std::string q = "select v from t where id = 1";
  ASSERT_TRUE(db.Execute(q).ok());

  // DDL bumps the catalog version: the cached plan is stale, so the
  // next run replans instead of hitting.
  uint64_t hits = cache->hits();
  ASSERT_TRUE(db.Execute("create table other (x int)").ok());
  ASSERT_TRUE(db.Execute(q).ok());
  EXPECT_EQ(cache->hits(), hits);
  EXPECT_EQ(cache->size(), 1u);  // re-cached under the new version

  // A statistics refresh bumps the stats version with the same effect.
  hits = cache->hits();
  ASSERT_TRUE(db.planner_stats()->AnalyzeTable(db.catalog(), "t").ok());
  ASSERT_TRUE(db.Execute(q).ok());
  EXPECT_EQ(cache->hits(), hits);
}

TEST(PlanCacheTest, CachedPlanSeesRowMutations) {
  // Row DML bumps neither version: the cached plan must keep serving
  // and still observe the new data (plans re-resolve heaps by name).
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int, v int)").ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1), Value::Int(10)}).ok());
  const std::string q = "select v from t where id = 1";
  ASSERT_TRUE(db.Execute(q).ok());

  ASSERT_TRUE(db.Execute("update t set v = 99 where id = 1").ok());
  uint64_t hits = db.plan_cache()->hits();
  auto result = db.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(db.plan_cache()->hits(), hits + 1);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt().MoveValue(), 99);
}

TEST(PlanCacheTest, RepeatedExplainReturnsThePlan) {
  // EXPLAIN is never served from the plan cache, so a repeat plans
  // afresh and prints the same plan instead of running the query.
  Database db;
  ASSERT_TRUE(db.Execute("create table t (a int)").ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(7)}).ok());
  const std::string q = "select a from t where a > 1";
  auto first = db.Execute("explain " + q);
  auto second = db.Execute("explain " + q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->columns, std::vector<std::string>{"plan"});
  EXPECT_EQ(second->columns, std::vector<std::string>{"plan"});
  EXPECT_FALSE(first->rows.empty());
  EXPECT_EQ(second->ToString(), first->ToString());
  // The SELECT itself still runs.
  auto rows = db.Execute(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->columns, std::vector<std::string>{"a"});
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt().MoveValue(), 7);
}

TEST(PlanCacheTest, CountsOneMissPerPlannedSelect) {
  Database db;
  const PlanCache* cache = db.plan_cache();
  using Counts = std::pair<uint64_t, uint64_t>;  // (hits, misses)
  auto counts = [&] { return Counts(cache->hits(), cache->misses()); };
  for (const char* sql :
       {"create table t (id int, v int)",
        "insert into t values (1, 10), (2, 20)",
        "update t set v = 11 where id = 1", "delete from t where id = 2"}) {
    ASSERT_TRUE(db.Execute(sql).ok()) << sql;
    EXPECT_EQ(counts(), Counts(0, 0)) << sql;
  }
  const std::string q = "select v from t where id = 1";
  ASSERT_TRUE(db.Execute(q).ok());
  EXPECT_EQ(counts(), Counts(0, 1));  // planned once
  ASSERT_TRUE(db.Execute(q).ok());
  EXPECT_EQ(counts(), Counts(1, 1));  // served from the cached plan
  ASSERT_TRUE(db.Execute("explain " + q).ok());
  EXPECT_EQ(counts(), Counts(1, 1));  // EXPLAIN is planned, not counted
}

// --- Cost model ---------------------------------------------------------

TEST(CostModelTest, PredicateRankOrdersBySelectivityPerCost) {
  // Hellerstein rank (sel - 1) / cost, ascending: cheap selective
  // predicates run first, and an expensive predicate ranks behind a
  // cheap one even when it filters more (its per-row payoff is lower).
  double selective_cheap = planner::PredicateRank(0.1, 1.0);
  double unselective_cheap = planner::PredicateRank(0.9, 1.0);
  double selective_costly = planner::PredicateRank(0.1, 100.0);
  EXPECT_LT(selective_cheap, unselective_cheap);
  EXPECT_LT(selective_cheap, selective_costly);
  EXPECT_LT(unselective_cheap, selective_costly);
}

}  // namespace
}  // namespace qbism::sql
