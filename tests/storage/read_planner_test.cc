#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/long_field.h"

namespace qbism::storage {
namespace {

ReadPlan MustPlan(const std::vector<ByteRange>& ranges, uint64_t field_size,
                  uint64_t gap_fill_pages) {
  auto plan = LongFieldManager::BuildReadPlan(ranges, field_size,
                                              ReadPlanOptions{gap_fill_pages});
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.MoveValue();
}

TEST(ReadPlannerTest, EmptyInputYieldsEmptyPlan) {
  ReadPlan plan = MustPlan({}, 100 * kPageSize, 1);
  EXPECT_TRUE(plan.extents.empty());
  EXPECT_EQ(plan.pages_read, 0u);
  EXPECT_EQ(plan.pages_touched, 0u);
  EXPECT_EQ(plan.bytes_needed, 0u);
}

TEST(ReadPlannerTest, ZeroLengthRangesPlanNothing) {
  ReadPlan plan = MustPlan({{0, 0}, {5 * kPageSize, 0}}, 100 * kPageSize, 1);
  EXPECT_TRUE(plan.extents.empty());
  EXPECT_EQ(plan.bytes_needed, 0u);
}

TEST(ReadPlannerTest, SingleRangeSinglePage) {
  ReadPlan plan = MustPlan({{10, 20}}, 100 * kPageSize, 1);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 1}));
  EXPECT_EQ(plan.pages_read, 1u);
  EXPECT_EQ(plan.pages_touched, 1u);
  EXPECT_EQ(plan.bytes_needed, 20u);
}

TEST(ReadPlannerTest, OverlappingRangesCountPagesOnce) {
  // Both ranges live on pages 0-1; the plan must not double-read them.
  ReadPlan plan =
      MustPlan({{0, kPageSize + 100}, {kPageSize - 50, 200}}, 10 * kPageSize, 0);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 2}));
  EXPECT_EQ(plan.pages_read, 2u);
  EXPECT_EQ(plan.pages_touched, 2u);
}

TEST(ReadPlannerTest, AdjacentPagesCoalesceAtGapZero) {
  // Ranges on pages 0 and 1 (byte-adjacent across the boundary).
  ReadPlan plan =
      MustPlan({{kPageSize - 10, 10}, {kPageSize, 10}}, 10 * kPageSize, 0);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 2}));
  EXPECT_EQ(plan.pages_read, 2u);
  EXPECT_EQ(plan.pages_touched, 2u);
}

TEST(ReadPlannerTest, GapZeroReadsExactlyDistinctPages) {
  // Pages 0 and 2 with page 1 untouched: two extents, no gap fill.
  ReadPlan plan = MustPlan({{0, 10}, {2 * kPageSize, 10}}, 10 * kPageSize, 0);
  ASSERT_EQ(plan.extents.size(), 2u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 1}));
  EXPECT_EQ(plan.extents[1], (PlannedExtent{2, 1}));
  EXPECT_EQ(plan.pages_read, 2u);
  EXPECT_EQ(plan.pages_touched, 2u);
}

TEST(ReadPlannerTest, NearAdjacentPagesMergeUnderGapFill) {
  // Same layout, gap_fill_pages = 1: the one-page hole is read through.
  ReadPlan plan = MustPlan({{0, 10}, {2 * kPageSize, 10}}, 10 * kPageSize, 1);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 3}));
  EXPECT_EQ(plan.pages_read, 3u);
  // pages_touched stays at the distinct pages the ranges need.
  EXPECT_EQ(plan.pages_touched, 2u);
}

TEST(ReadPlannerTest, GapLargerThanFillStaysSplit) {
  // Pages 0 and 4: a 3-page hole must not merge under gap_fill 2.
  ReadPlan plan = MustPlan({{0, 10}, {4 * kPageSize, 10}}, 10 * kPageSize, 2);
  ASSERT_EQ(plan.extents.size(), 2u);
  EXPECT_EQ(plan.pages_read, 2u);
}

TEST(ReadPlannerTest, HugeGapFillMergesEverythingIntoOneExtent) {
  ReadPlan plan = MustPlan({{0, 1}, {50 * kPageSize, 1}, {99 * kPageSize, 1}},
                           100 * kPageSize, 1'000'000);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 100}));
  EXPECT_EQ(plan.pages_read, 100u);
  EXPECT_EQ(plan.pages_touched, 3u);
}

TEST(ReadPlannerTest, GapFillNeverReadsPastTheLastNeededPage) {
  // The plan must end on the last page any range touches, even with a
  // huge gap-fill threshold.
  ReadPlan plan = MustPlan({{0, 10}}, 100 * kPageSize, 1'000'000);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 1}));
}

TEST(ReadPlannerTest, SingleVoxelRunsScatteredAcrossPages) {
  // One-byte ranges, one per page, every other page: gap 0 keeps them
  // separate; gap 1 fuses the lot.
  std::vector<ByteRange> ranges;
  for (uint64_t p = 0; p < 8; p += 2) ranges.push_back({p * kPageSize + 7, 1});
  ReadPlan split = MustPlan(ranges, 10 * kPageSize, 0);
  EXPECT_EQ(split.extents.size(), 4u);
  EXPECT_EQ(split.pages_read, 4u);
  EXPECT_EQ(split.bytes_needed, 4u);
  ReadPlan fused = MustPlan(ranges, 10 * kPageSize, 1);
  ASSERT_EQ(fused.extents.size(), 1u);
  EXPECT_EQ(fused.extents[0], (PlannedExtent{0, 7}));
}

TEST(ReadPlannerTest, RangeEndingExactlyOnPageBoundary) {
  // [0, kPageSize) touches only page 0; the next range starting at the
  // boundary touches only page 1.
  ReadPlan plan = MustPlan({{0, kPageSize}}, 10 * kPageSize, 0);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{0, 1}));

  ReadPlan both = MustPlan({{0, kPageSize}, {kPageSize, 1}}, 10 * kPageSize, 0);
  ASSERT_EQ(both.extents.size(), 1u);
  EXPECT_EQ(both.extents[0], (PlannedExtent{0, 2}));
}

TEST(ReadPlannerTest, RangeAtFieldEndIsInBounds) {
  uint64_t size = 3 * kPageSize + 100;  // unaligned tail
  ReadPlan plan = MustPlan({{3 * kPageSize, 100}}, size, 1);
  ASSERT_EQ(plan.extents.size(), 1u);
  EXPECT_EQ(plan.extents[0], (PlannedExtent{3, 1}));
  // Zero-length range exactly at the end is legal too.
  EXPECT_TRUE(
      LongFieldManager::BuildReadPlan({{size, 0}}, size, ReadPlanOptions{})
          .ok());
}

TEST(ReadPlannerTest, PastFieldEndRejected) {
  uint64_t size = 2 * kPageSize;
  EXPECT_FALSE(
      LongFieldManager::BuildReadPlan({{size, 1}}, size, ReadPlanOptions{})
          .ok());
  EXPECT_FALSE(
      LongFieldManager::BuildReadPlan({{size - 1, 2}}, size, ReadPlanOptions{})
          .ok());
  // Offset+length overflow must not wrap around to "in bounds".
  EXPECT_FALSE(LongFieldManager::BuildReadPlan({{UINT64_MAX - 1, 2}}, size,
                                               ReadPlanOptions{})
                   .ok());
}

TEST(ReadPlannerTest, UnsortedInputIsSortedIntoElevatorOrder) {
  ReadPlan plan = MustPlan({{5 * kPageSize, 10}, {0, 10}, {9 * kPageSize, 10}},
                           10 * kPageSize, 0);
  ASSERT_EQ(plan.extents.size(), 3u);
  EXPECT_EQ(plan.extents[0].first_page, 0u);
  EXPECT_EQ(plan.extents[1].first_page, 5u);
  EXPECT_EQ(plan.extents[2].first_page, 9u);
}

TEST(ReadPlannerTest, ShuffledListPlansLikeTheSortedList) {
  // A sorted list is swept as it is and a shuffled one is sorted first;
  // both must give the same plan. Overlapping and same-page ranges
  // included.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t field_size = 96 * kPageSize;
    std::vector<ByteRange> sorted;
    for (uint64_t cursor = rng.Next() % kPageSize; cursor < field_size;
         cursor += 1 + rng.Next() % (3 * kPageSize)) {
      uint64_t len = rng.Next() % (2 * kPageSize);
      sorted.push_back({cursor, std::min(len, field_size - cursor)});
    }
    std::vector<ByteRange> shuffled = sorted;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Next() % i]);
    }
    for (uint64_t gap : {uint64_t{0}, uint64_t{1}, uint64_t{4}}) {
      ReadPlan a = MustPlan(sorted, field_size, gap);
      ReadPlan b = MustPlan(shuffled, field_size, gap);
      EXPECT_EQ(a.extents, b.extents) << "trial " << trial << " gap " << gap;
      EXPECT_EQ(a.pages_read, b.pages_read);
      EXPECT_EQ(a.pages_touched, b.pages_touched);
      EXPECT_EQ(a.bytes_needed, b.bytes_needed);
    }
  }
}

TEST(ReadPlannerTest, PagesReadNeverExceedsPerRunSum) {
  // Randomized invariant check: for any run list and small gap fill,
  // pages_read <= sum over runs of that run's own page count (the seed
  // path's cost), and pages_touched <= pages_read.
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t field_size = (1 + rng.Next() % 64) * kPageSize;
    std::vector<ByteRange> ranges;
    uint64_t cursor = 0;
    while (cursor < field_size) {
      uint64_t len = 1 + rng.Next() % (2 * kPageSize);
      if (cursor + len > field_size) len = field_size - cursor;
      if (rng.Next() % 2 == 0) ranges.push_back({cursor, len});
      cursor += len + rng.Next() % kPageSize;
    }
    uint64_t per_run_sum = 0;
    for (const ByteRange& r : ranges) {
      if (r.length == 0) continue;
      per_run_sum +=
          (r.offset + r.length - 1) / kPageSize - r.offset / kPageSize + 1;
    }
    for (uint64_t gap : {uint64_t{0}, uint64_t{1}, uint64_t{2}}) {
      ReadPlan plan = MustPlan(ranges, field_size, gap);
      EXPECT_LE(plan.pages_touched, plan.pages_read);
      if (gap == 0) {
        EXPECT_EQ(plan.pages_read, plan.pages_touched);
        EXPECT_LE(plan.pages_read, per_run_sum);
      }
      uint64_t extent_sum = 0;
      for (const PlannedExtent& e : plan.extents) {
        extent_sum += e.page_count;
      }
      EXPECT_EQ(extent_sum, plan.pages_read);
      // Extents ascending and non-adjacent beyond the gap threshold.
      for (size_t i = 1; i < plan.extents.size(); ++i) {
        EXPECT_GT(plan.extents[i].first_page,
                  plan.extents[i - 1].first_page +
                      plan.extents[i - 1].page_count + gap);
      }
    }
  }
}

TEST(ReadPlannerTest, PlanReadChecksFieldBounds) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  std::vector<uint8_t> bytes(2 * kPageSize + 10);
  LongFieldId id = lfm.Create(bytes).MoveValue();
  EXPECT_TRUE(lfm.PlanRead(id, {{0, bytes.size()}}).ok());
  EXPECT_FALSE(lfm.PlanRead(id, {{0, bytes.size() + 1}}).ok());
  EXPECT_FALSE(lfm.PlanRead(LongFieldId{999}, {{0, 1}}).ok());
}

TEST(ReadPlannerTest, ReadExtentsDeliversPlannedBytes) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  Rng rng(7);
  std::vector<uint8_t> bytes(6 * kPageSize);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  LongFieldId id = lfm.Create(bytes).MoveValue();

  std::vector<ByteRange> ranges = {{100, 50}, {3 * kPageSize + 5, 2000}};
  ReadPlan plan = lfm.PlanRead(id, ranges, ReadPlanOptions{0}).MoveValue();
  ASSERT_EQ(plan.extents.size(), 2u);
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<uint8_t*> outs;
  for (const PlannedExtent& e : plan.extents) {
    bufs.emplace_back(e.ByteCount());
    outs.push_back(bufs.back().data());
  }
  ASSERT_TRUE(lfm.ReadExtents(id, plan.extents, outs).ok());
  for (size_t i = 0; i < plan.extents.size(); ++i) {
    for (uint64_t b = 0; b < plan.extents[i].ByteCount(); ++b) {
      ASSERT_EQ(bufs[i][b], bytes[plan.extents[i].ByteOffset() + b]);
    }
  }
  // Mismatched outs and out-of-field extents are rejected.
  EXPECT_FALSE(lfm.ReadExtents(id, plan.extents, {outs[0]}).ok());
  EXPECT_FALSE(
      lfm.ReadExtents(id, {PlannedExtent{100, 1}}, {outs[0]}).ok());
}

}  // namespace
}  // namespace qbism::storage
