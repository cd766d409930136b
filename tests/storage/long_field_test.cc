#include "storage/long_field.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace qbism::storage {
namespace {

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng->Next());
  return bytes;
}

/// Reads byte ranges the one partial-read way: a gap-0 plan (exactly the
/// distinct pages) moved by one ReadExtents, then each range's bytes
/// copied out, in input order.
Result<std::vector<std::vector<uint8_t>>> ReadPlanned(
    const LongFieldManager& lfm, LongFieldId id,
    const std::vector<ByteRange>& ranges) {
  auto plan = lfm.PlanRead(id, ranges, ReadPlanOptions{0});
  if (!plan.ok()) return plan.status();
  std::vector<std::vector<uint8_t>> extents;
  std::vector<uint8_t*> outs;
  for (const PlannedExtent& e : plan->extents) {
    extents.emplace_back(e.ByteCount());
    outs.push_back(extents.back().data());
  }
  Status read = lfm.ReadExtents(id, plan->extents, outs);
  if (!read.ok()) return read;
  std::vector<std::vector<uint8_t>> out;
  for (const ByteRange& r : ranges) {
    std::vector<uint8_t> bytes(r.length);
    for (size_t e = 0; e < plan->extents.size() && r.length > 0; ++e) {
      uint64_t first = plan->extents[e].ByteOffset();
      if (r.offset >= first &&
          r.offset + r.length <= first + plan->extents[e].ByteCount()) {
        std::copy_n(extents[e].begin() + (r.offset - first), r.length,
                    bytes.begin());
      }
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(LongFieldTest, CreateReadRoundTrip) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  Rng rng(1);
  auto bytes = RandomBytes(&rng, 10000);
  auto id = lfm.Create(bytes).MoveValue();
  EXPECT_FALSE(id.IsNull());
  EXPECT_EQ(lfm.Size(id).value(), 10000u);
  EXPECT_EQ(lfm.Read(id).value(), bytes);
}

TEST(LongFieldTest, ReadReturnsExactlySizeBytes) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  Rng rng(21);
  for (size_t size : {size_t{0}, size_t{1}, size_t{4095}, size_t{4096},
                      size_t{4097}}) {
    auto bytes = RandomBytes(&rng, size);
    auto id = lfm.Create(bytes).MoveValue();
    auto read = lfm.Read(id);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->size(), size);
    EXPECT_EQ(*read, bytes);
    // Replaced by a smaller version: the read is the new size, not the
    // old extent's.
    auto smaller = RandomBytes(&rng, size / 2);
    ASSERT_TRUE(lfm.Update(id, smaller).ok());
    read = lfm.Read(id);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, smaller);
    ASSERT_TRUE(lfm.Delete(id).ok());
  }
}

TEST(LongFieldTest, EmptyField) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  auto id = lfm.Create({}).MoveValue();
  EXPECT_EQ(lfm.Size(id).value(), 0u);
  EXPECT_TRUE(lfm.Read(id).value().empty());
}

TEST(LongFieldTest, UnknownIdFails) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  EXPECT_FALSE(lfm.Read(LongFieldId{99}).ok());
  EXPECT_FALSE(lfm.Size(LongFieldId{99}).ok());
  EXPECT_FALSE(lfm.Delete(LongFieldId{99}).ok());
}

TEST(LongFieldTest, ReadRangeExact) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  Rng rng(2);
  auto bytes = RandomBytes(&rng, 3 * kPageSize + 100);
  auto id = lfm.Create(bytes).MoveValue();
  for (auto [offset, length] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 10}, {kPageSize - 5, 10}, {kPageSize, kPageSize}, {100, 0},
           {3 * kPageSize, 100}}) {
    auto range = ReadPlanned(lfm, id, {{offset, length}});
    ASSERT_TRUE(range.ok());
    ASSERT_EQ((*range)[0].size(), length);
    for (uint64_t i = 0; i < length; ++i) {
      EXPECT_EQ((*range)[0][i], bytes[offset + i]);
    }
  }
  EXPECT_FALSE(ReadPlanned(lfm, id, {{bytes.size() - 5, 10}}).ok());
}

TEST(LongFieldTest, ReadRangeTouchesOnlyCoveringPages) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  std::vector<uint8_t> bytes(10 * kPageSize, 7);
  auto id = lfm.Create(bytes).MoveValue();
  device.ResetStats();
  ASSERT_TRUE(ReadPlanned(lfm, id, {{2 * kPageSize + 1, kPageSize}}).ok());
  // The range spans pages 2 and 3 only.
  EXPECT_EQ(device.stats().pages_read, 2u);
}

TEST(LongFieldTest, ReadRangesDedupesPagesAcrossRanges) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  Rng rng(3);
  auto bytes = RandomBytes(&rng, 8 * kPageSize);
  auto id = lfm.Create(bytes).MoveValue();
  device.ResetStats();
  // Three ranges inside the same page + one in another page.
  std::vector<ByteRange> ranges{{10, 50}, {100, 20}, {2000, 100},
                                {5 * kPageSize + 3, 10}};
  auto buffers = ReadPlanned(lfm, id, ranges).MoveValue();
  EXPECT_EQ(device.stats().pages_read, 2u);  // page 0 and page 5 only
  ASSERT_EQ(buffers.size(), 4u);
  for (size_t r = 0; r < ranges.size(); ++r) {
    ASSERT_EQ(buffers[r].size(), ranges[r].length);
    for (uint64_t i = 0; i < ranges[r].length; ++i) {
      EXPECT_EQ(buffers[r][i], bytes[ranges[r].offset + i]);
    }
  }
  EXPECT_EQ(lfm.PlanRead(id, ranges)->pages_touched, 2u);
}

TEST(LongFieldTest, ReadRangesCoalescesSequentialPages) {
  DiskDevice device(1024);
  LongFieldManager lfm(&device);
  std::vector<uint8_t> bytes(100 * kPageSize, 9);
  auto id = lfm.Create(bytes).MoveValue();
  device.ResetStats();
  // One big contiguous range: must be a single sequential transfer.
  ASSERT_TRUE(ReadPlanned(lfm, id, {{0, 50 * kPageSize}}).ok());
  EXPECT_EQ(device.stats().pages_read, 50u);
  EXPECT_EQ(device.stats().seeks, 1u);
}

TEST(LongFieldTest, CrossingRangeBoundariesAssemblesCorrectly) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  Rng rng(4);
  auto bytes = RandomBytes(&rng, 4 * kPageSize);
  auto id = lfm.Create(bytes).MoveValue();
  // Range spanning three pages.
  auto buffers =
      ReadPlanned(lfm, id, {{kPageSize / 2, 2 * kPageSize}}).MoveValue();
  ASSERT_EQ(buffers[0].size(), 2 * kPageSize);
  for (uint64_t i = 0; i < buffers[0].size(); ++i) {
    ASSERT_EQ(buffers[0][i], bytes[kPageSize / 2 + i]);
  }
}

TEST(LongFieldTest, DeleteFreesSpaceForReuse) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  std::vector<uint8_t> big(12 * kPageSize, 1);
  auto id = lfm.Create(big).MoveValue();
  // Device has 16 pages; 12 rounds to 16, so it is now full.
  EXPECT_FALSE(lfm.Create(big).ok());
  ASSERT_TRUE(lfm.Delete(id).ok());
  EXPECT_TRUE(lfm.Create(big).ok());
  EXPECT_FALSE(lfm.Read(id).ok());
}

TEST(LongFieldTest, UpdateSameExtentSizeAndRealloc) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  Rng rng(5);
  auto id = lfm.Create(RandomBytes(&rng, 100)).MoveValue();
  auto small = RandomBytes(&rng, 200);  // still one page
  ASSERT_TRUE(lfm.Update(id, small).ok());
  EXPECT_EQ(lfm.Read(id).value(), small);
  EXPECT_EQ(lfm.allocated_pages(), 1u);  // the old extent freed at publish
  auto large = RandomBytes(&rng, 3 * kPageSize);  // a larger extent
  ASSERT_TRUE(lfm.Update(id, large).ok());
  EXPECT_EQ(lfm.Read(id).value(), large);
  EXPECT_FALSE(lfm.Update(LongFieldId{999}, small).ok());
}

TEST(LongFieldTest, BuddyContiguityMakesVolumeReadsSequential) {
  // A 2 MB "volume" long field must occupy contiguous pages, so a full
  // read is one seek + 512 sequential transfers (the paper's full-study
  // I/O profile: 513 I/Os including the relational lookup).
  DiskDevice device(1024);
  LongFieldManager lfm(&device);
  std::vector<uint8_t> volume(512 * kPageSize, 42);
  auto id = lfm.Create(volume).MoveValue();
  device.ResetStats();
  ASSERT_TRUE(lfm.Read(id).ok());
  EXPECT_EQ(device.stats().pages_read, 512u);
  EXPECT_EQ(device.stats().seeks, 1u);
}

TEST(LongFieldTest, ManyFieldsIndependent) {
  DiskDevice device(256);
  LongFieldManager lfm(&device);
  Rng rng(6);
  std::vector<std::pair<LongFieldId, std::vector<uint8_t>>> fields;
  for (int i = 0; i < 20; ++i) {
    auto bytes = RandomBytes(&rng, 1 + rng.NextBounded(3 * kPageSize));
    auto id = lfm.Create(bytes).MoveValue();
    fields.emplace_back(id, std::move(bytes));
  }
  for (const auto& [id, bytes] : fields) {
    EXPECT_EQ(lfm.Read(id).value(), bytes);
  }
}

}  // namespace
}  // namespace qbism::storage
