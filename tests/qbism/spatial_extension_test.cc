#include "qbism/spatial_extension.h"

#include <gtest/gtest.h>

#include "common/macros.h"

namespace qbism {
namespace {

using curve::CurveKind;
using geometry::Vec3i;
using region::GridSpec;
using region::Region;
using region::RegionEncoding;
using sql::Value;
using volume::Volume;

/// Small grid so tests are fast; the extension is grid-agnostic. 32^3
/// spans 8 LFM pages, so page-level assertions are meaningful.
SpatialConfig SmallConfig() {
  SpatialConfig config;
  config.grid = GridSpec{3, 5};  // 32^3
  return config;
}

class SpatialExtensionTest : public ::testing::Test {
 protected:
  SpatialExtensionTest() {
    auto ext = SpatialExtension::Install(&db_, SmallConfig());
    QBISM_CHECK(ext.ok());
    ext_ = ext.MoveValue();
  }

  Volume RampVolume() {
    return Volume::FromFunction(
        ext_->config().grid, ext_->config().curve, [](const Vec3i& p) {
          return static_cast<uint8_t>(p.x * 16 + p.y);
        });
  }

  sql::Database db_;
  std::unique_ptr<SpatialExtension> ext_;
};

TEST_F(SpatialExtensionTest, RegionStoreLoadRoundTripAllEncodings) {
  geometry::Ellipsoid blob({8, 8, 8}, {5, 4, 3});
  Region r = Region::FromShape(ext_->config().grid, CurveKind::kHilbert, blob);
  for (RegionEncoding enc :
       {RegionEncoding::kNaiveRuns, RegionEncoding::kEliasDeltas,
        RegionEncoding::kOctants, RegionEncoding::kOblongOctants}) {
    auto field = ext_->StoreRegionAs(r, enc);
    ASSERT_TRUE(field.ok());
    auto back = ext_->LoadRegion(field.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), r) << RegionEncodingToString(enc);
  }
}

TEST_F(SpatialExtensionTest, VolumeStoreLoadRoundTrip) {
  Volume v = RampVolume();
  auto field = ext_->StoreVolume(v).MoveValue();
  auto back = ext_->LoadVolume(field);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data(), v.data());
}

TEST_F(SpatialExtensionTest, StoreVolumeValidatesGrid) {
  Volume wrong = Volume::FromFunction(GridSpec{3, 4}, CurveKind::kHilbert,
                                      [](const Vec3i&) { return uint8_t{0}; });
  EXPECT_FALSE(ext_->StoreVolume(wrong).ok());
}

TEST_F(SpatialExtensionTest, ExtractFromLongFieldMatchesInMemory) {
  Volume v = RampVolume();
  auto field = ext_->StoreVolume(v).MoveValue();
  Region r = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                             {{3, 3, 3}, {10, 10, 10}});
  auto from_disk = ext_->ExtractFromLongField(field, r).MoveValue();
  auto in_memory = v.Extract(r).MoveValue();
  EXPECT_EQ(from_disk.values(), in_memory.values());
}

TEST_F(SpatialExtensionTest, PlannedPagesBoundedByRegionSpread) {
  Volume v = RampVolume();
  auto field = ext_->StoreVolume(v).MoveValue();
  Region small = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                                 {{0, 0, 0}, {3, 3, 3}});
  Region full = Region::Full(ext_->config().grid, CurveKind::kHilbert);
  uint64_t small_pages =
      db_.lfm()->PlanRead(field, RunByteRanges(small))->pages_touched;
  uint64_t full_pages =
      db_.lfm()->PlanRead(field, RunByteRanges(full))->pages_touched;
  EXPECT_LT(small_pages, full_pages);
  EXPECT_EQ(full_pages, ext_->config().grid.NumCells() / storage::kPageSize);
}

TEST_F(SpatialExtensionTest, UdfIntersectionViaSql) {
  ASSERT_TRUE(db_.Execute("create table r (id int, reg longfield)").ok());
  Region a = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                             {{0, 0, 0}, {7, 15, 15}});
  Region b = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                             {{4, 0, 0}, {15, 15, 15}});
  auto fa = ext_->StoreRegion(a).MoveValue();
  auto fb = ext_->StoreRegion(b).MoveValue();
  ASSERT_TRUE(db_.Insert("r", {Value::Int(1), Value::LongField(fa)}).ok());
  ASSERT_TRUE(db_.Insert("r", {Value::Int(2), Value::LongField(fb)}).ok());

  auto result = db_.Execute(
      "select voxelcount(intersection(a.reg, b.reg)) from r a, r b "
      "where a.id = 1 and b.id = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  // Overlap is x in [4,7]: 4 * 16 * 16 voxels.
  EXPECT_EQ(result->rows[0][0].AsInt().value(), 4 * 16 * 16);
}

TEST_F(SpatialExtensionTest, UdfContainsAndCounts) {
  ASSERT_TRUE(db_.Execute("create table r (id int, reg longfield)").ok());
  Region big = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                               {{0, 0, 0}, {15, 15, 15}});
  Region small = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                                 {{2, 2, 2}, {5, 5, 5}});
  ASSERT_TRUE(db_.Insert("r", {Value::Int(1),
                               Value::LongField(ext_->StoreRegion(big)
                                                    .MoveValue())})
                  .ok());
  ASSERT_TRUE(db_.Insert("r", {Value::Int(2),
                               Value::LongField(ext_->StoreRegion(small)
                                                    .MoveValue())})
                  .ok());
  auto result = db_.Execute(
      "select contains(a.reg, b.reg), contains(b.reg, a.reg),"
      " runcount(b.reg) from r a, r b where a.id = 1 and b.id = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].AsInt().value(), 1);
  EXPECT_EQ(result->rows[0][1].AsInt().value(), 0);
  EXPECT_GT(result->rows[0][2].AsInt().value(), 0);
}

TEST_F(SpatialExtensionTest, UdfUnionDifferenceCompose) {
  ASSERT_TRUE(db_.Execute("create table r (id int, reg longfield)").ok());
  Region a = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                             {{0, 0, 0}, {7, 7, 7}});
  Region b = Region::FromBox(ext_->config().grid, CurveKind::kHilbert,
                             {{4, 4, 4}, {11, 11, 11}});
  ASSERT_TRUE(db_.Insert("r", {Value::Int(1),
                               Value::LongField(
                                   ext_->StoreRegion(a).MoveValue())})
                  .ok());
  ASSERT_TRUE(db_.Insert("r", {Value::Int(2),
                               Value::LongField(
                                   ext_->StoreRegion(b).MoveValue())})
                  .ok());
  auto result = db_.Execute(
      "select voxelcount(regionunion(a.reg, b.reg)),"
      " voxelcount(regiondifference(a.reg, b.reg))"
      " from r a, r b where a.id = 1 and b.id = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t u = result->rows[0][0].AsInt().value();
  int64_t d = result->rows[0][1].AsInt().value();
  EXPECT_EQ(u, 512 + 512 - 64);  // |A| + |B| - |A ∩ B|
  EXPECT_EQ(d, 512 - 64);
}

TEST_F(SpatialExtensionTest, UdfExtractAndMeanViaSql) {
  ASSERT_TRUE(db_.Execute("create table v (id int, data longfield)").ok());
  Volume v = Volume::FromFunction(ext_->config().grid, CurveKind::kHilbert,
                                  [](const Vec3i&) { return uint8_t{40}; });
  auto field = ext_->StoreVolume(v).MoveValue();
  ASSERT_TRUE(db_.Insert("v", {Value::Int(1), Value::LongField(field)}).ok());
  auto result = db_.Execute(
      "select meanintensity(extractvoxels(data,"
      " boxregion(0, 0, 0, 3, 3, 3))) from v where id = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->rows[0][0].AsDouble().value(), 40.0);
}

TEST_F(SpatialExtensionTest, UdfBandRegion) {
  ASSERT_TRUE(db_.Execute("create table v (id int, data longfield)").ok());
  Volume v = Volume::FromFunction(
      ext_->config().grid, CurveKind::kHilbert, [](const Vec3i& p) {
        return static_cast<uint8_t>(p.z >= 16 ? 200 : 10);
      });
  ASSERT_TRUE(db_.Insert("v", {Value::Int(1),
                               Value::LongField(
                                   ext_->StoreVolume(v).MoveValue())})
                  .ok());
  auto result = db_.Execute(
      "select voxelcount(bandregion(data, 128, 255)) from v where id = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].AsInt().value(),
            static_cast<int64_t>(ext_->config().grid.NumCells() / 2));
  // Bad ranges rejected.
  EXPECT_FALSE(
      db_.Execute("select bandregion(data, 200, 100) from v").ok());
  EXPECT_FALSE(
      db_.Execute("select bandregion(data, 0, 300) from v").ok());
}

TEST_F(SpatialExtensionTest, UdfFullRegion) {
  ASSERT_TRUE(db_.Execute("create table t (x int)").ok());
  ASSERT_TRUE(db_.Execute("insert into t values (1)").ok());
  auto result = db_.Execute("select voxelcount(fullregion()) from t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt().value(),
            static_cast<int64_t>(ext_->config().grid.NumCells()));
}

TEST_F(SpatialExtensionTest, ArityAndTypeErrorsSurface) {
  ASSERT_TRUE(db_.Execute("create table t (x int)").ok());
  ASSERT_TRUE(db_.Execute("insert into t values (1)").ok());
  EXPECT_FALSE(db_.Execute("select intersection(fullregion()) from t").ok());
  EXPECT_FALSE(db_.Execute("select voxelcount(x) from t").ok());
  EXPECT_FALSE(db_.Execute("select boxregion(1, 2, 3) from t").ok());
}

TEST_F(SpatialExtensionTest, DataRegionStoreLoadRoundTrip) {
  Volume v = RampVolume();
  geometry::Ellipsoid blob({16, 16, 16}, {9, 7, 8});
  Region r = Region::FromShape(ext_->config().grid, CurveKind::kHilbert, blob);
  volume::DataRegion dr = v.Extract(r).MoveValue();
  auto field = ext_->StoreDataRegion(dr);
  ASSERT_TRUE(field.ok()) << field.status().ToString();
  auto back = ext_->LoadDataRegion(field.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->region(), dr.region());
  EXPECT_EQ(back->values(), dr.values());
}

TEST_F(SpatialExtensionTest, LoadDataRegionDetectsCorruption) {
  auto short_field = db_.lfm()->Create({1, 2}).MoveValue();
  EXPECT_TRUE(ext_->LoadDataRegion(short_field).status().IsCorruption());
  // Valid header claiming more region bytes than present.
  auto truncated = db_.lfm()->Create({0, 0xFF, 0xFF, 0, 0, 1, 2}).MoveValue();
  EXPECT_FALSE(ext_->LoadDataRegion(truncated).ok());
}

TEST_F(SpatialExtensionTest, ApproximationUdfs) {
  ASSERT_TRUE(db_.Execute("create table r2 (id int, reg longfield)").ok());
  geometry::Ellipsoid blob({16, 16, 16}, {10, 8, 9});
  Region r = Region::FromShape(ext_->config().grid, CurveKind::kHilbert, blob);
  ASSERT_TRUE(db_.Insert("r2", {Value::Int(1),
                                Value::LongField(
                                    ext_->StoreRegion(r).MoveValue())})
                  .ok());
  auto result = db_.Execute(
      "select runcount(reg), runcount(mingapregion(reg, 8)),"
      " octantcount(reg), oblongoctantcount(reg),"
      " voxelcount(minoctantregion(reg, 1)),"
      " contains(minoctantregion(reg, 1), reg)"
      " from r2 where id = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& row = result->rows[0];
  EXPECT_LE(row[1].AsInt().value(), row[0].AsInt().value());  // fewer runs
  EXPECT_GE(row[2].AsInt().value(), row[3].AsInt().value());  // oct >= oblong
  EXPECT_GE(row[4].AsInt().value(),
            static_cast<int64_t>(r.VoxelCount()));  // superset
  EXPECT_EQ(row[5].AsInt().value(), 1);             // contains original
  // Validation.
  EXPECT_FALSE(db_.Execute("select mingapregion(reg, 0) from r2").ok());
  EXPECT_FALSE(db_.Execute("select minoctantregion(reg, 99) from r2").ok());
}

TEST_F(SpatialExtensionTest, LoadRegionDetectsGarbage) {
  auto field = db_.lfm()->Create({0x7F, 1, 2, 3}).MoveValue();
  EXPECT_FALSE(ext_->LoadRegion(field).ok());
}

TEST_F(SpatialExtensionTest, VectoredExtractMatchesSerialAcrossShapes) {
  Volume v = RampVolume();
  auto field = ext_->StoreVolume(v).MoveValue();
  const GridSpec& grid = ext_->config().grid;
  std::vector<Region> shapes = {
      Region::FromBox(grid, CurveKind::kHilbert, {{3, 3, 3}, {10, 10, 10}}),
      Region::FromShape(grid, CurveKind::kHilbert,
                        geometry::Ellipsoid({16, 16, 16}, {10, 6, 4})),
      Region::Full(grid, CurveKind::kHilbert),
      Region::FromBox(grid, CurveKind::kHilbert, {{0, 0, 0}, {0, 0, 0}}),
  };
  for (const Region& r : shapes) {
    // The oracle is the in-memory extraction of the same volume.
    auto vectored = ext_->ExtractFromLongField(field, r);
    ASSERT_TRUE(vectored.ok()) << vectored.status().ToString();
    EXPECT_EQ(vectored->values(), v.Extract(r).MoveValue().values());
  }
}

TEST_F(SpatialExtensionTest, VectoredExtractReadsNoMorePagesThanSerial) {
  Volume v = RampVolume();
  auto field = ext_->StoreVolume(v).MoveValue();
  // A sparse region: many short runs scattered over the curve, the shape
  // where per-run reads pay one page per run.
  Region r = Region::FromShape(ext_->config().grid, CurveKind::kHilbert,
                               geometry::Ellipsoid({16, 16, 16}, {14, 2, 2}));
  storage::DiskDevice* device = db_.lfm()->device();
  storage::IoStats before = device->stats();
  ASSERT_TRUE(ext_->ExtractFromLongField(field, r).ok());
  uint64_t vectored_pages = (device->stats() - before).pages_read;
  // No more than a serial read of the distinct pages (a gap-0 plan)...
  uint64_t serial_pages =
      db_.lfm()
          ->PlanRead(field, RunByteRanges(r), storage::ReadPlanOptions{0})
          ->pages_read;
  EXPECT_LE(vectored_pages, serial_pages);
  // ...and never more than the per-run demand, the page sum a read per
  // run would transfer.
  uint64_t demanded = 0;
  for (const storage::ByteRange& run : RunByteRanges(r)) {
    demanded += (run.offset + run.length - 1) / storage::kPageSize -
                run.offset / storage::kPageSize + 1;
  }
  EXPECT_LE(vectored_pages, demanded);
}

TEST_F(SpatialExtensionTest, StreamingBandRegionMatchesAndBoundsPages) {
  Volume v = Volume::FromFunction(
      ext_->config().grid, CurveKind::kHilbert, [](const Vec3i& p) {
        return static_cast<uint8_t>((p.x * 7 + p.y * 3 + p.z) & 0xFF);
      });
  auto field = ext_->StoreVolume(v).MoveValue();
  storage::DiskDevice* device = db_.lfm()->device();
  storage::IoStats before = device->stats();
  auto banded = ext_->BandRegionFromField(field, 64, 191);
  storage::IoStats delta = device->stats() - before;
  ASSERT_TRUE(banded.ok()) << banded.status().ToString();
  EXPECT_EQ(banded.value(), v.BandRegion(64, 191));
  // The streaming scan touches each of the volume's pages exactly once —
  // it must not fall back to materializing through LoadVolume (which
  // would read the same pages but hold NumCells bytes) or re-read pages.
  EXPECT_EQ(delta.pages_read,
            ext_->config().grid.NumCells() / storage::kPageSize);
}

TEST_F(SpatialExtensionTest, UdfBandRegionStreamsOverTheStoredVolume) {
  ASSERT_TRUE(db_.Execute("create table v (id int, data longfield)").ok());
  Volume v = Volume::FromFunction(
      ext_->config().grid, CurveKind::kHilbert, [](const Vec3i& p) {
        return static_cast<uint8_t>(p.x * 16 + p.z);
      });
  ASSERT_TRUE(db_.Insert("v", {Value::Int(1),
                               Value::LongField(
                                   ext_->StoreVolume(v).MoveValue())})
                  .ok());
  ExtractorStatsSnapshot before = ext_->extractor()->stats();
  auto result = db_.Execute(
      "select voxelcount(bandregion(data, 100, 200)) from v where id = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].AsInt().value(),
            static_cast<int64_t>(v.BandRegion(100, 200).VoxelCount()));
  // The UDF went through the chunked scan path, not LoadVolume.
  ExtractorStatsSnapshot delta = ext_->extractor()->stats() - before;
  EXPECT_EQ(delta.scans, 1u);
}

TEST_F(SpatialExtensionTest, UdfVolumeMean) {
  ASSERT_TRUE(db_.Execute("create table v (id int, data longfield)").ok());
  Volume v = RampVolume();
  ASSERT_TRUE(db_.Insert("v", {Value::Int(1),
                               Value::LongField(
                                   ext_->StoreVolume(v).MoveValue())})
                  .ok());
  double sum = 0.0;
  for (uint8_t b : v.data()) sum += b;
  auto result = db_.Execute("select volumemean(data) from v where id = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->rows[0][0].AsDouble().value(),
                   sum / static_cast<double>(v.data().size()));
  EXPECT_FALSE(db_.Execute("select volumemean(1) from v").ok());
}

}  // namespace
}  // namespace qbism
