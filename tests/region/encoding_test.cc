#include "region/encoding.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "region/region.h"

namespace qbism::region {
namespace {

using curve::CurveKind;

const GridSpec kGrid{3, 4};

Region Blob(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> ids;
  // A mix of contiguous stretches and scattered singletons.
  uint64_t cursor = rng.NextBounded(64);
  while (cursor < kGrid.NumCells()) {
    uint64_t run = 1 + rng.NextBounded(30);
    for (uint64_t i = 0; i < run && cursor + i < kGrid.NumCells(); ++i) {
      ids.push_back(cursor + i);
    }
    cursor += run + 1 + rng.NextBounded(100);
  }
  return Region::FromIds(kGrid, CurveKind::kHilbert, std::move(ids))
      .MoveValue();
}

class EncodingRoundTripTest
    : public ::testing::TestWithParam<RegionEncoding> {};

TEST_P(EncodingRoundTripTest, RandomRegionsRoundTrip) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Region r = Blob(seed);
    auto encoded = EncodeRegion(r, GetParam());
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    auto decoded =
        DecodeRegion(kGrid, CurveKind::kHilbert, GetParam(), encoded.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), r) << "seed " << seed;
  }
}

TEST_P(EncodingRoundTripTest, EmptyRegionRoundTrips) {
  Region empty(kGrid, CurveKind::kHilbert);
  auto encoded = EncodeRegion(empty, GetParam());
  ASSERT_TRUE(encoded.ok());
  auto decoded =
      DecodeRegion(kGrid, CurveKind::kHilbert, GetParam(), encoded.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().Empty());
}

TEST_P(EncodingRoundTripTest, FullRegionRoundTrips) {
  Region full = Region::Full(kGrid, CurveKind::kHilbert);
  auto encoded = EncodeRegion(full, GetParam());
  ASSERT_TRUE(encoded.ok());
  auto decoded =
      DecodeRegion(kGrid, CurveKind::kHilbert, GetParam(), encoded.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), full);
}

TEST_P(EncodingRoundTripTest, EncodedSizeMatchesActual) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Region r = Blob(seed);
    auto encoded = EncodeRegion(r, GetParam());
    auto size = EncodedSizeBytes(r, GetParam());
    ASSERT_TRUE(encoded.ok());
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(encoded.value().size(), size.value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodingRoundTripTest,
                         ::testing::Values(RegionEncoding::kNaiveRuns,
                                           RegionEncoding::kEliasDeltas,
                                           RegionEncoding::kOctants,
                                           RegionEncoding::kOblongOctants));

TEST(EncodingTest, NaiveIsEightBytesPerRun) {
  Region r = Region::FromRuns(kGrid, CurveKind::kHilbert,
                              {{1, 5}, {9, 9}, {20, 40}})
                 .MoveValue();
  EXPECT_EQ(EncodedSizeBytes(r, RegionEncoding::kNaiveRuns).value(),
            4u + 3u * 8u);
}

// The naive encoder writes into a pre-sized buffer and the decoder
// reads in bulk; the bytes must be the layout built field by field.
TEST(EncodingTest, NaiveBytesMatchAFieldByFieldGolden) {
  std::vector<Region> regions = {Region(kGrid, CurveKind::kHilbert),
                                 Region::Full(kGrid, CurveKind::kHilbert)};
  for (uint64_t seed = 1; seed <= 8; ++seed) regions.push_back(Blob(seed));
  for (const Region& r : regions) {
    std::vector<uint8_t> golden;
    ByteWriter w(&golden);
    w.PutU32(static_cast<uint32_t>(r.RunCount()));
    for (const region::Run& run : r.runs()) {
      w.PutU32(static_cast<uint32_t>(run.start));
      w.PutU32(static_cast<uint32_t>(run.end));
    }
    auto encoded = EncodeRegion(r, RegionEncoding::kNaiveRuns);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(*encoded, golden) << r.RunCount() << " runs";
    auto back = DecodeRegion(kGrid, CurveKind::kHilbert,
                             RegionEncoding::kNaiveRuns, golden);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, r);
  }
}

// Stored naive bytes that are not canonical (written by hand, or by a
// peer) still decode: FromRuns merges them on its slow path.
TEST(EncodingTest, NaiveDecodeCanonicalizesOtherLists) {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.PutU32(3);
  for (uint32_t v : {20u, 30u, 5u, 9u, 10u, 12u}) w.PutU32(v);
  auto back = DecodeRegion(kGrid, CurveKind::kHilbert,
                           RegionEncoding::kNaiveRuns, bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->runs(), (std::vector<region::Run>{{5, 12}, {20, 30}}));
}

TEST(EncodingTest, OctantsAreFourBytesEach) {
  Region r = Region::FromRuns(kGrid, CurveKind::kHilbert, {{0, 63}})
                 .MoveValue();
  EXPECT_EQ(EncodedSizeBytes(r, RegionEncoding::kOctants).value(),
            4u + 4u * r.ToOctants().size());
  EXPECT_EQ(EncodedSizeBytes(r, RegionEncoding::kOblongOctants).value(),
            4u + 4u * r.ToOblongOctants().size());
}

TEST(EncodingTest, EliasBeatsNaiveOnManySmallRuns) {
  // Speckled region: many short runs, where 8 bytes/run is wasteful and
  // gamma-coded deltas shine (the Figure 4 result).
  std::vector<region::Run> runs;
  for (uint64_t i = 0; i < kGrid.NumCells(); i += 4) runs.push_back({i, i + 1});
  Region r =
      Region::FromRuns(kGrid, CurveKind::kHilbert, std::move(runs)).MoveValue();
  uint64_t naive = EncodedSizeBytes(r, RegionEncoding::kNaiveRuns).value();
  uint64_t elias = EncodedSizeBytes(r, RegionEncoding::kEliasDeltas).value();
  EXPECT_LT(elias * 4, naive);  // at least 4x better here
}

TEST(EncodingTest, DecodeCorruptBytesFails) {
  std::vector<uint8_t> garbage{1, 2};
  for (RegionEncoding enc :
       {RegionEncoding::kNaiveRuns, RegionEncoding::kOctants}) {
    EXPECT_FALSE(DecodeRegion(kGrid, CurveKind::kHilbert, enc, garbage).ok());
  }
}

TEST(EncodingTest, DecodeTruncatedNaiveFails) {
  Region r = Blob(3);
  auto encoded = EncodeRegion(r, RegionEncoding::kNaiveRuns).MoveValue();
  encoded.resize(encoded.size() - 3);
  EXPECT_FALSE(DecodeRegion(kGrid, CurveKind::kHilbert,
                            RegionEncoding::kNaiveRuns, encoded)
                   .ok());
}

TEST(EncodingTest, OctantEncodingRejectsHugeGrids) {
  // 1024^3 needs 30 id bits + 5 rank bits > 32: not packable in 4 bytes.
  GridSpec huge{3, 10};
  Region r(huge, CurveKind::kHilbert);
  EXPECT_FALSE(EncodeRegion(r, RegionEncoding::kOctants).ok());
  EXPECT_FALSE(EncodedSizeBytes(r, RegionEncoding::kOblongOctants).ok());
  // 512^3 (the paper's stated limit) is fine.
  GridSpec paper_max{3, 9};
  Region ok(paper_max, CurveKind::kHilbert);
  EXPECT_TRUE(EncodeRegion(ok, RegionEncoding::kOctants).ok());
}

TEST(EncodingTest, EncodingNames) {
  EXPECT_EQ(RegionEncodingToString(RegionEncoding::kNaiveRuns), "naive-runs");
  EXPECT_EQ(RegionEncodingToString(RegionEncoding::kEliasDeltas),
            "elias-deltas");
  EXPECT_EQ(RegionEncodingToString(RegionEncoding::kOctants), "octants");
  EXPECT_EQ(RegionEncodingToString(RegionEncoding::kOblongOctants),
            "oblong-octants");
}

TEST(EncodingTest, ZOrderedRegionsEncodeToo) {
  geometry::Ellipsoid blob({8, 8, 8}, {5, 4, 3});
  Region z = Region::FromShape(kGrid, CurveKind::kZ, blob);
  for (RegionEncoding enc :
       {RegionEncoding::kNaiveRuns, RegionEncoding::kEliasDeltas,
        RegionEncoding::kOctants, RegionEncoding::kOblongOctants}) {
    auto encoded = EncodeRegion(z, enc);
    ASSERT_TRUE(encoded.ok());
    auto decoded = DecodeRegion(kGrid, CurveKind::kZ, enc, encoded.value());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), z);
  }
}

}  // namespace
}  // namespace qbism::region
