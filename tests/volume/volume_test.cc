#include "volume/volume.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"

namespace qbism::volume {
namespace {

using curve::CurveKind;
using geometry::Vec3i;
using region::GridSpec;
using region::Region;

const GridSpec kGrid{3, 4};  // 16^3

uint8_t TestField(const Vec3i& p) {
  return static_cast<uint8_t>((p.x * 7 + p.y * 13 + p.z * 29) % 256);
}

TEST(VolumeTest, FromFunctionAndValueAt) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  EXPECT_EQ(v.data().size(), kGrid.NumCells());
  for (int32_t z = 0; z < 16; z += 3) {
    for (int32_t y = 0; y < 16; y += 3) {
      for (int32_t x = 0; x < 16; x += 3) {
        EXPECT_EQ(v.ValueAt({x, y, z}).value(), TestField({x, y, z}));
      }
    }
  }
}

TEST(VolumeTest, ValueAtOutsideGridFails) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  EXPECT_FALSE(v.ValueAt({16, 0, 0}).ok());
  EXPECT_FALSE(v.ValueAt({0, -1, 0}).ok());
}

TEST(VolumeTest, ScanlineRoundTrip) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  std::vector<uint8_t> scanline = v.ToScanline();
  // Scanline order: x fastest.
  EXPECT_EQ(scanline[0], TestField({0, 0, 0}));
  EXPECT_EQ(scanline[1], TestField({1, 0, 0}));
  EXPECT_EQ(scanline[16], TestField({0, 1, 0}));
  EXPECT_EQ(scanline[16 * 16], TestField({0, 0, 1}));
  auto back = Volume::FromScanlineData(kGrid, CurveKind::kHilbert, scanline);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data(), v.data());
}

TEST(VolumeTest, WrongSizeRejected) {
  EXPECT_FALSE(Volume::FromCurveOrderedData(kGrid, CurveKind::kHilbert,
                                            std::vector<uint8_t>(5))
                   .ok());
  EXPECT_FALSE(Volume::FromScanlineData(kGrid, CurveKind::kHilbert,
                                        std::vector<uint8_t>(5))
                   .ok());
  GridSpec flat{2, 4};
  EXPECT_FALSE(Volume::FromCurveOrderedData(
                   flat, CurveKind::kHilbert,
                   std::vector<uint8_t>(flat.NumCells()))
                   .ok());
}

TEST(VolumeTest, CurveConversionPreservesField) {
  Volume h = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  Volume z = h.ConvertTo(CurveKind::kZ);
  EXPECT_EQ(z.curve_kind(), CurveKind::kZ);
  for (int32_t zc = 0; zc < 16; zc += 5) {
    for (int32_t y = 0; y < 16; y += 5) {
      for (int32_t x = 0; x < 16; x += 5) {
        EXPECT_EQ(z.ValueAt({x, y, zc}).value(), TestField({x, y, zc}));
      }
    }
  }
  // Data layout differs even though the field is the same.
  EXPECT_NE(z.data(), h.data());
}

TEST(VolumeTest, ExtractMatchesPointwise) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  geometry::Ellipsoid blob({8, 8, 8}, {5, 4, 3});
  Region r = Region::FromShape(kGrid, CurveKind::kHilbert, blob);
  DataRegion dr = v.Extract(r).MoveValue();
  EXPECT_EQ(dr.VoxelCount(), r.VoxelCount());
  for (const Vec3i& p : r.ToPoints()) {
    EXPECT_EQ(dr.ValueAt(p).value(), TestField(p));
  }
}

TEST(VolumeTest, ExtractRejectsMismatchedRegion) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  Region z_region(kGrid, CurveKind::kZ);
  EXPECT_FALSE(v.Extract(z_region).ok());
  Region other_grid(GridSpec{3, 5}, CurveKind::kHilbert);
  EXPECT_FALSE(v.Extract(other_grid).ok());
}

TEST(VolumeTest, ExtractEmptyRegion) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  DataRegion dr =
      v.Extract(Region(kGrid, CurveKind::kHilbert)).MoveValue();
  EXPECT_EQ(dr.VoxelCount(), 0u);
  EXPECT_EQ(dr.MeanIntensity(), 0.0);
}

TEST(DataRegionTest, ToDenseVolumeRestoresInside) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  geometry::Ellipsoid blob({8, 8, 8}, {4, 4, 4});
  Region r = Region::FromShape(kGrid, CurveKind::kHilbert, blob);
  DataRegion dr = v.Extract(r).MoveValue();
  Volume dense = dr.ToDenseVolume(0);
  for (int32_t z = 0; z < 16; ++z) {
    for (int32_t y = 0; y < 16; ++y) {
      for (int32_t x = 0; x < 16; ++x) {
        Vec3i p{x, y, z};
        uint8_t expected = r.ContainsPoint(p) ? TestField(p) : 0;
        EXPECT_EQ(dense.ValueAt(p).value(), expected);
      }
    }
  }
}

TEST(DataRegionTest, ValueAtOutsideRegionFails) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  Region r = region::Region::FromBox(kGrid, CurveKind::kHilbert,
                                     {{0, 0, 0}, {3, 3, 3}});
  DataRegion dr = v.Extract(r).MoveValue();
  EXPECT_TRUE(dr.ValueAt({2, 2, 2}).ok());
  EXPECT_FALSE(dr.ValueAt({10, 10, 10}).ok());
}

TEST(DataRegionTest, MeanIntensity) {
  Volume v = Volume::FromFunction(
      kGrid, CurveKind::kHilbert,
      [](const Vec3i& p) { return static_cast<uint8_t>(p.x < 8 ? 10 : 30); });
  Region all = Region::Full(kGrid, CurveKind::kHilbert);
  DataRegion dr = v.Extract(all).MoveValue();
  EXPECT_NEAR(dr.MeanIntensity(), 20.0, 1e-9);
}

TEST(DataRegionTest, CopiesShareOneVoxelBuffer) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  Region r = Region::FromShape(kGrid, CurveKind::kHilbert,
                               geometry::Ellipsoid({8, 8, 8}, {5, 4, 3}));
  auto original = std::make_unique<DataRegion>(v.Extract(r).MoveValue());
  const std::vector<uint8_t> want = original->values();
  ASSERT_FALSE(want.empty());

  DataRegion copy = *original;
  DataRegion assigned;
  assigned = *original;
  // The copies point at the original's voxels, not at copies of them.
  EXPECT_EQ(copy.values().data(), original->values().data());
  EXPECT_EQ(assigned.values().data(), original->values().data());
  EXPECT_EQ(copy.region().runs(), original->region().runs());

  original.reset();
  EXPECT_EQ(copy.values(), want);
  EXPECT_EQ(assigned.values(), want);
  EXPECT_EQ(copy.VoxelCount(), want.size());
  EXPECT_EQ(copy.ValueAt({8, 8, 8}).value(), TestField({8, 8, 8}));
}

TEST(DataRegionTest, DefaultHasNoValues) {
  DataRegion empty;
  EXPECT_TRUE(empty.values().empty());
  EXPECT_EQ(empty.MeanIntensity(), 0.0);
  DataRegion copy = empty;
  EXPECT_TRUE(copy.values().empty());
}

TEST(AverageExtractTest, AveragesVoxelwise) {
  Volume a = Volume::FromFunction(
      kGrid, CurveKind::kHilbert,
      [](const Vec3i&) { return static_cast<uint8_t>(10); });
  Volume b = Volume::FromFunction(
      kGrid, CurveKind::kHilbert,
      [](const Vec3i&) { return static_cast<uint8_t>(30); });
  Region r = region::Region::FromBox(kGrid, CurveKind::kHilbert,
                                     {{0, 0, 0}, {7, 7, 7}});
  DataRegion avg = AverageExtract({&a, &b}, r).MoveValue();
  EXPECT_EQ(avg.VoxelCount(), 512u);
  for (uint8_t value : avg.values()) EXPECT_EQ(value, 20);
}

TEST(AverageExtractTest, RejectsEmptyInput) {
  Region r(kGrid, CurveKind::kHilbert);
  EXPECT_FALSE(AverageExtract({}, r).ok());
}

TEST(VolumeTest, HistogramCountsEveryVoxel) {
  Volume v = Volume::FromFunction(kGrid, CurveKind::kHilbert, TestField);
  auto h = v.Histogram();
  uint64_t total = 0;
  for (uint64_t count : h) total += count;
  EXPECT_EQ(total, kGrid.NumCells());
}

}  // namespace
}  // namespace qbism::volume
