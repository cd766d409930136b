#include "region/region.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace qbism::region {
namespace {

using curve::CurveKind;
using geometry::Box3i;
using geometry::Vec3i;

const GridSpec kGrid3{3, 4};  // 16^3
const GridSpec kGrid2{2, 2};  // 4x4

TEST(GridSpecTest, Sizes) {
  EXPECT_EQ(kGrid3.SideLength(), 16u);
  EXPECT_EQ(kGrid3.NumCells(), 4096u);
  EXPECT_EQ(kGrid2.NumCells(), 16u);
  GridSpec paper{3, 7};
  EXPECT_EQ(paper.NumCells(), 2097152u);  // §6.1: 2M voxels per study
}

TEST(GridSpecTest, ContainsPoint) {
  EXPECT_TRUE(kGrid3.ContainsPoint({0, 0, 0}));
  EXPECT_TRUE(kGrid3.ContainsPoint({15, 15, 15}));
  EXPECT_FALSE(kGrid3.ContainsPoint({16, 0, 0}));
  EXPECT_FALSE(kGrid3.ContainsPoint({-1, 0, 0}));
  EXPECT_TRUE(kGrid2.ContainsPoint({3, 3, 0}));
  EXPECT_FALSE(kGrid2.ContainsPoint({3, 3, 1}));  // 2-d grid has z == 0
}

TEST(RegionTest, EmptyRegion) {
  Region r(kGrid3, CurveKind::kHilbert);
  EXPECT_TRUE(r.Empty());
  EXPECT_EQ(r.VoxelCount(), 0u);
  EXPECT_EQ(r.RunCount(), 0u);
  EXPECT_FALSE(r.ContainsId(0));
}

TEST(RegionTest, FullRegion) {
  Region r = Region::Full(kGrid3, CurveKind::kHilbert);
  EXPECT_EQ(r.VoxelCount(), 4096u);
  EXPECT_EQ(r.RunCount(), 1u);
  EXPECT_TRUE(r.ContainsId(0));
  EXPECT_TRUE(r.ContainsId(4095));
}

TEST(RegionTest, FromRunsCanonicalizes) {
  // Overlapping, adjacent, and unsorted runs must merge.
  auto r = Region::FromRuns(kGrid3, CurveKind::kHilbert,
                            {{10, 20}, {5, 12}, {21, 30}, {100, 100}});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->RunCount(), 2u);
  EXPECT_EQ(r->runs()[0], (region::Run{5, 30}));
  EXPECT_EQ(r->runs()[1], (region::Run{100, 100}));
  EXPECT_EQ(r->VoxelCount(), 27u);
}

TEST(RegionTest, FromRunsRejectsBadInput) {
  EXPECT_FALSE(Region::FromRuns(kGrid3, CurveKind::kHilbert, {{5, 4}}).ok());
  EXPECT_FALSE(
      Region::FromRuns(kGrid3, CurveKind::kHilbert, {{0, 4096}}).ok());
}

TEST(RegionTest, FromIdsSortsAndDedupes) {
  auto r = Region::FromIds(kGrid3, CurveKind::kHilbert, {7, 3, 5, 4, 3, 7});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->VoxelCount(), 4u);
  ASSERT_EQ(r->RunCount(), 2u);
  EXPECT_EQ(r->runs()[0], (region::Run{3, 5}));
  EXPECT_EQ(r->runs()[1], (region::Run{7, 7}));
}

TEST(RegionTest, FromIdsRejectsOutOfGrid) {
  EXPECT_FALSE(Region::FromIds(kGrid3, CurveKind::kHilbert, {4096}).ok());
}

TEST(RegionTest, ContainsIdBinarySearch) {
  auto r = Region::FromRuns(kGrid3, CurveKind::kHilbert,
                            {{10, 20}, {40, 45}, {100, 200}})
               .MoveValue();
  EXPECT_FALSE(r.ContainsId(9));
  EXPECT_TRUE(r.ContainsId(10));
  EXPECT_TRUE(r.ContainsId(15));
  EXPECT_TRUE(r.ContainsId(20));
  EXPECT_FALSE(r.ContainsId(21));
  EXPECT_FALSE(r.ContainsId(39));
  EXPECT_TRUE(r.ContainsId(40));
  EXPECT_TRUE(r.ContainsId(200));
  EXPECT_FALSE(r.ContainsId(201));
}

TEST(RegionTest, FromBoxMatchesMembership) {
  Box3i box{{2, 3, 4}, {5, 6, 7}};
  Region r = Region::FromBox(kGrid3, CurveKind::kHilbert, box);
  EXPECT_EQ(r.VoxelCount(), 4u * 4u * 4u);
  for (int32_t z = 0; z < 16; ++z) {
    for (int32_t y = 0; y < 16; ++y) {
      for (int32_t x = 0; x < 16; ++x) {
        EXPECT_EQ(r.ContainsPoint({x, y, z}), box.Contains({x, y, z}))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST(RegionTest, FromBoxClipsToGrid) {
  Region r = Region::FromBox(kGrid3, CurveKind::kHilbert,
                             {{14, 14, 14}, {99, 99, 99}});
  EXPECT_EQ(r.VoxelCount(), 8u);
  Region empty = Region::FromBox(kGrid3, CurveKind::kHilbert,
                                 {{20, 20, 20}, {30, 30, 30}});
  EXPECT_TRUE(empty.Empty());
}

TEST(RegionTest, FromPredicateMatchesPointwise) {
  auto inside = [](const Vec3i& p) { return (p.x + p.y + p.z) % 3 == 0; };
  Region r = Region::FromPredicate(kGrid3, CurveKind::kZ, inside);
  uint64_t expected = 0;
  for (int32_t z = 0; z < 16; ++z) {
    for (int32_t y = 0; y < 16; ++y) {
      for (int32_t x = 0; x < 16; ++x) {
        if (inside({x, y, z})) ++expected;
        EXPECT_EQ(r.ContainsPoint({x, y, z}), inside({x, y, z}));
      }
    }
  }
  EXPECT_EQ(r.VoxelCount(), expected);
}

TEST(RegionTest, FromShapeSphere) {
  geometry::Ellipsoid sphere({8, 8, 8}, {4, 4, 4});
  Region r = Region::FromShape(kGrid3, CurveKind::kHilbert, sphere);
  // Volume of a radius-4 ball ~ 268 voxels; rasterization is approximate.
  EXPECT_GT(r.VoxelCount(), 200u);
  EXPECT_LT(r.VoxelCount(), 350u);
  EXPECT_TRUE(r.ContainsPoint({8, 8, 8}));
  EXPECT_FALSE(r.ContainsPoint({0, 0, 0}));
}

TEST(RegionTest, ToPointsRoundTrip) {
  auto r = Region::FromIds(kGrid3, CurveKind::kHilbert, {0, 1, 2, 77, 4000})
               .MoveValue();
  auto points = r.ToPoints();
  ASSERT_EQ(points.size(), 5u);
  for (const Vec3i& p : points) EXPECT_TRUE(r.ContainsPoint(p));
}

TEST(RegionTest, ConvertToOtherCurvePreservesVoxels) {
  geometry::Ellipsoid sphere({8, 8, 8}, {5, 3, 4});
  Region h = Region::FromShape(kGrid3, CurveKind::kHilbert, sphere);
  Region z = h.ConvertTo(CurveKind::kZ);
  EXPECT_EQ(z.curve_kind(), CurveKind::kZ);
  EXPECT_EQ(z.VoxelCount(), h.VoxelCount());
  for (int32_t zc = 0; zc < 16; ++zc) {
    for (int32_t y = 0; y < 16; ++y) {
      for (int32_t x = 0; x < 16; ++x) {
        EXPECT_EQ(h.ContainsPoint({x, y, zc}), z.ContainsPoint({x, y, zc}));
      }
    }
  }
  // Converting back restores the original exactly.
  EXPECT_EQ(z.ConvertTo(CurveKind::kHilbert), h);
}

TEST(RegionTest, DeltaLengthsAlternateAndCoverGrid) {
  auto r = Region::FromRuns(kGrid3, CurveKind::kHilbert, {{4, 7}, {20, 29}})
               .MoveValue();
  auto deltas = r.DeltaLengths();
  // gap 0-3 (4), run 4-7 (4), gap 8-19 (12), run 20-29 (10), gap to end.
  ASSERT_EQ(deltas.size(), 5u);
  EXPECT_EQ(deltas[0], 4u);
  EXPECT_EQ(deltas[1], 4u);
  EXPECT_EQ(deltas[2], 12u);
  EXPECT_EQ(deltas[3], 10u);
  EXPECT_EQ(deltas[4], 4096u - 30u);
  uint64_t total = 0;
  for (uint64_t d : deltas) total += d;
  EXPECT_EQ(total, kGrid3.NumCells());
}

TEST(RegionTest, DeltaLengthsNoLeadingGapWhenStartsAtZero) {
  auto r =
      Region::FromRuns(kGrid3, CurveKind::kHilbert, {{0, 9}}).MoveValue();
  auto deltas = r.DeltaLengths();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0], 10u);
}

TEST(RegionBuilderTest, MergesAdjacentAppends) {
  RegionBuilder builder(kGrid3, CurveKind::kHilbert);
  builder.AppendId(5);
  builder.AppendId(6);
  builder.AppendRun(7, 10);
  builder.AppendRun(12, 14);
  Region r = builder.Build();
  ASSERT_EQ(r.RunCount(), 2u);
  EXPECT_EQ(r.runs()[0], (region::Run{5, 10}));
  EXPECT_EQ(r.runs()[1], (region::Run{12, 14}));
}

TEST(RegionBuilderTest, ResetsAfterBuild) {
  RegionBuilder builder(kGrid3, CurveKind::kHilbert);
  builder.AppendId(1);
  Region first = builder.Build();
  builder.AppendId(2);
  Region second = builder.Build();
  EXPECT_EQ(first.VoxelCount(), 1u);
  EXPECT_EQ(second.VoxelCount(), 1u);
  EXPECT_TRUE(second.ContainsId(2));
  EXPECT_FALSE(second.ContainsId(1));
}

TEST(RegionBuilderTest, OverlappingAndDuplicateAppendsMerge) {
  RegionBuilder builder(kGrid3, CurveKind::kHilbert);
  builder.AppendRun(10, 20);
  builder.AppendRun(10, 12);  // same start, inside the tail
  builder.AppendRun(15, 25);  // overlaps the tail's end
  builder.AppendId(26);       // touches it
  builder.AppendRun(28, 30);
  Region r = builder.Build();
  ASSERT_EQ(r.RunCount(), 2u);
  EXPECT_EQ(r.runs()[0], (region::Run{10, 26}));
  EXPECT_EQ(r.runs()[1], (region::Run{28, 30}));
}

// A run that starts before the tail's start would merge into it and
// lose the ids below the tail (AppendRun(10, 20) then AppendRun(9, 9)
// used to build 11 voxels without id 9), so it aborts instead.
TEST(RegionBuilderDeathTest, RunStartingBeforeTheTailAborts) {
  RegionBuilder builder(kGrid3, CurveKind::kHilbert);
  builder.AppendRun(10, 20);
  EXPECT_DEATH(builder.AppendRun(9, 9), "QBISM_CHECK failed");
  EXPECT_DEATH(builder.AppendId(3), "QBISM_CHECK failed");
}

/// FromRuns' canonicalization before its one-pass check: sort by start,
/// then merge overlapping and touching runs. The oracle for the
/// canonical fast path and for the linear-merge union.
std::vector<Run> SortAndMerge(std::vector<Run> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.start < b.start; });
  std::vector<Run> out;
  for (const Run& r : runs) {
    if (!out.empty() && r.start <= out.back().end + 1) {
      out.back().end = std::max(out.back().end, r.end);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

enum class RunShape {
  kCanonical,
  kAdjacent,
  kOverlapping,
  kUnsorted,
  kDuplicate,
  kEmpty
};

/// A seeded random run list on kGrid3: canonical runs of 1-12 ids with
/// gaps of 1-20, then bent into `shape`.
std::vector<Run> RandomRuns(Rng* rng, RunShape shape) {
  std::vector<Run> runs;
  if (shape == RunShape::kEmpty) return runs;
  const uint64_t n = kGrid3.NumCells();
  for (uint64_t cursor = rng->NextBounded(8);;) {
    const uint64_t len = 1 + rng->NextBounded(12);
    if (cursor + len > n) break;
    runs.push_back(Run{cursor, cursor + len - 1});
    cursor += len + 1 + rng->NextBounded(20);
  }
  for (size_t i = 0; i + 1 < runs.size(); ++i) {
    if (rng->NextBounded(4) != 0) continue;
    switch (shape) {
      case RunShape::kAdjacent:
        runs[i + 1].start = runs[i].end + 1;
        break;
      case RunShape::kOverlapping:
        runs[i + 1].start =
            runs[i].start + rng->NextBounded(runs[i].Length());
        break;
      case RunShape::kDuplicate:
        runs.insert(runs.begin() + static_cast<ptrdiff_t>(i) + 1, runs[i]);
        ++i;
        break;
      default:
        break;
    }
  }
  if (shape == RunShape::kUnsorted) {
    for (size_t i = runs.size(); i > 1; --i) {
      std::swap(runs[i - 1], runs[rng->NextBounded(i)]);
    }
  }
  return runs;
}

// FromRuns keeps a canonical list as it is and canonicalizes every
// other one; both must equal the sort-and-merge result, and
// FromCanonicalRuns must accept exactly the lists that are canonical.
TEST(RegionTest, FromRunsMatchesSortAndMergeOnRandomLists) {
  Rng rng(20261019);
  for (RunShape shape :
       {RunShape::kCanonical, RunShape::kAdjacent, RunShape::kOverlapping,
        RunShape::kUnsorted, RunShape::kDuplicate, RunShape::kEmpty}) {
    int non_canonical = 0;
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<region::Run> runs = RandomRuns(&rng, shape);
      const std::vector<region::Run> expected = SortAndMerge(runs);
      const bool canonical = expected == runs;
      non_canonical += canonical ? 0 : 1;
      auto region = Region::FromRuns(kGrid3, CurveKind::kHilbert, runs);
      ASSERT_TRUE(region.ok()) << region.status().ToString();
      EXPECT_EQ(region->runs(), expected)
          << "shape " << static_cast<int>(shape) << " trial " << trial;
      EXPECT_EQ(
          Region::FromCanonicalRuns(kGrid3, CurveKind::kHilbert, runs).ok(),
          canonical)
          << "shape " << static_cast<int>(shape) << " trial " << trial;
    }
    // Every shape but these two must really exercise the slow path.
    if (shape == RunShape::kCanonical || shape == RunShape::kEmpty) {
      EXPECT_EQ(non_canonical, 0);
    } else {
      EXPECT_GT(non_canonical, 150) << "shape " << static_cast<int>(shape);
    }
  }
}

TEST(RegionTest, FromRunsChecksBoundsOnTheFastPathToo) {
  const uint64_t n = kGrid3.NumCells();
  // Canonical lists whose last run is bad.
  EXPECT_TRUE(Region::FromRuns(kGrid3, CurveKind::kHilbert,
                               {{0, 4}, {10, n}})
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(Region::FromRuns(kGrid3, CurveKind::kHilbert,
                               {{0, 4}, {12, 11}})
                  .status()
                  .IsInvalidArgument());
  auto last = Region::FromRuns(kGrid3, CurveKind::kHilbert, {{0, n - 1}});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->VoxelCount(), n);
}

// UnionWith merges the two canonical lists linearly; it must equal
// sorting and merging their concatenation, both ways round, including
// runs of one operand that touch or overlap runs of the other.
TEST(RegionTest, UnionMatchesSortAndMergeOnRandomPairs) {
  Rng rng(777);
  const Region full = Region::Full(kGrid3, CurveKind::kHilbert);
  const Region empty(kGrid3, CurveKind::kHilbert);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Region> operands = {full, empty};
    for (int k = 0; k < 2; ++k) {
      std::vector<region::Run> runs = RandomRuns(&rng, RunShape::kCanonical);
      operands.push_back(
          Region::FromRuns(kGrid3, CurveKind::kHilbert, runs).MoveValue());
    }
    for (const Region& a : operands) {
      for (const Region& b : operands) {
        std::vector<region::Run> both = a.runs();
        both.insert(both.end(), b.runs().begin(), b.runs().end());
        auto merged = a.UnionWith(b);
        ASSERT_TRUE(merged.ok());
        ASSERT_EQ(merged->runs(), SortAndMerge(both)) << "trial " << trial;
      }
    }
  }
}

TEST(RegionTest, CanonicalFormInvariants) {
  geometry::Ellipsoid sphere({8, 8, 8}, {6, 5, 4});
  Region r = Region::FromShape(kGrid3, CurveKind::kHilbert, sphere);
  const auto& runs = r.runs();
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_LE(runs[i].start, runs[i].end);
    EXPECT_LT(runs[i].end, kGrid3.NumCells());
    if (i > 0) {
      // Sorted, disjoint, non-adjacent.
      EXPECT_GT(runs[i].start, runs[i - 1].end + 1);
    }
  }
}

}  // namespace
}  // namespace qbism::region
