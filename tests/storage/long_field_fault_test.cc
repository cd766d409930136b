// LongFieldManager error paths: a failed Create/Update must not leak
// buddy-allocator pages or corrupt the field directory, range and extent
// checks must not wrap on huge offsets, and empty fields are legal.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "storage/disk_device.h"
#include "storage/long_field.h"

namespace qbism::storage {
namespace {

std::vector<uint8_t> Payload(uint64_t bytes, uint8_t fill) {
  return std::vector<uint8_t>(bytes, fill);
}

TEST(LongFieldFaultTest, CreateFailureLeaksNoPages) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  auto first = lfm.Create(Payload(3 * kPageSize, 1)).MoveValue();
  ASSERT_EQ(lfm.allocated_pages(), 4u);  // 3 pages round to a 4-page extent

  device.InstallFaultPlan(FaultPlan::FailAtTransfer(0));
  EXPECT_TRUE(lfm.Create(Payload(2 * kPageSize, 2)).status().IsIOError());
  EXPECT_EQ(lfm.allocated_pages(), 4u);  // the failed extent came back
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());

  // Transient fault: the retried Create succeeds and reuses the extent.
  auto second = lfm.Create(Payload(2 * kPageSize, 2)).MoveValue();
  EXPECT_EQ(lfm.allocated_pages(), 6u);
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
  EXPECT_EQ(lfm.Read(first).value(), Payload(3 * kPageSize, 1));
  EXPECT_EQ(lfm.Read(second).value(), Payload(2 * kPageSize, 2));
}

TEST(LongFieldFaultTest, CreateEmptyFieldIsLegal) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  auto id = lfm.Create({}).MoveValue();  // must not memcpy from nullptr
  EXPECT_EQ(lfm.Size(id).value(), 0u);
  EXPECT_TRUE(lfm.Read(id).value().empty());
  EXPECT_TRUE(lfm.PlanRead(id, {{0, 0}})->extents.empty());
  EXPECT_EQ(lfm.allocated_pages(), 1u);  // minimum one-page extent
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
  ASSERT_TRUE(lfm.Update(id, {}).ok());  // empty update too
  EXPECT_EQ(lfm.allocated_pages(), 1u);
  EXPECT_TRUE(lfm.Delete(id).ok());
  EXPECT_EQ(lfm.allocated_pages(), 0u);
}

TEST(LongFieldFaultTest, UpdateSameExtentSizeFailureKeepsOldContent) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  auto id = lfm.Create(Payload(kPageSize, 1)).MoveValue();
  device.InstallFaultPlan(FaultPlan::FailAtTransfer(0));
  // Same one-page extent size: the fault hits the new extent's write,
  // and the old extent is never touched.
  EXPECT_TRUE(lfm.Update(id, Payload(100, 2)).IsIOError());
  EXPECT_EQ(lfm.Size(id).value(), kPageSize);  // entry untouched
  EXPECT_EQ(lfm.Read(id).value(), Payload(kPageSize, 1));
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
}

TEST(LongFieldFaultTest, UpdateReallocFailureLeaksNothing) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  auto id = lfm.Create(Payload(kPageSize, 3)).MoveValue();
  ASSERT_EQ(lfm.allocated_pages(), 1u);

  device.InstallFaultPlan(FaultPlan::FailAtTransfer(0));
  // Growing to two pages reallocates; the fault hits the new extent's
  // write. Neither the new extent may leak nor the old one vanish.
  EXPECT_TRUE(lfm.Update(id, Payload(2 * kPageSize, 4)).IsIOError());
  EXPECT_EQ(lfm.allocated_pages(), 1u);
  EXPECT_EQ(lfm.Read(id).value(), Payload(kPageSize, 3));
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());

  // The fault was transient: the retry lands the new content.
  ASSERT_TRUE(lfm.Update(id, Payload(2 * kPageSize, 4)).ok());
  EXPECT_EQ(lfm.allocated_pages(), 2u);
  EXPECT_EQ(lfm.Read(id).value(), Payload(2 * kPageSize, 4));
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
}

TEST(LongFieldFaultTest, UpdateReallocFreesOldExtent) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  auto id = lfm.Create(Payload(4 * kPageSize, 5)).MoveValue();
  ASSERT_EQ(lfm.allocated_pages(), 4u);
  ASSERT_TRUE(lfm.Update(id, Payload(100, 6)).ok());
  EXPECT_EQ(lfm.allocated_pages(), 1u);  // shrink returned the 4-page extent
  EXPECT_EQ(lfm.Read(id).value(), Payload(100, 6));
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
}

TEST(LongFieldFaultTest, ReadRangeHugeOffsetDoesNotWrap) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  auto id = lfm.Create(Payload(2 * kPageSize, 7)).MoveValue();
  // offset + length wraps uint64_t to a small in-bounds value; the
  // bounds check must reject it rather than read garbage.
  uint64_t huge = std::numeric_limits<uint64_t>::max() - 4;
  EXPECT_TRUE(lfm.PlanRead(id, {{huge, 16}}).status().IsOutOfRange());
  EXPECT_TRUE(lfm.PlanRead(id, {{huge, huge}}).status().IsOutOfRange());
  std::vector<uint8_t> page(kPageSize);
  EXPECT_TRUE(lfm.ReadExtents(id, {{huge, 1}}, {page.data()}).IsOutOfRange());
  // Ordinary past-end reads still fail, boundary reads still work.
  EXPECT_TRUE(lfm.PlanRead(id, {{2 * kPageSize, 1}}).status().IsOutOfRange());
  EXPECT_TRUE(lfm.PlanRead(id, {{2 * kPageSize, 0}})->extents.empty());
  auto plan = lfm.PlanRead(id, {{kPageSize, kPageSize}}).MoveValue();
  ASSERT_EQ(plan.extents, (std::vector<PlannedExtent>{{1, 1}}));
  ASSERT_TRUE(lfm.ReadExtents(id, plan.extents, {page.data()}).ok());
  EXPECT_EQ(page, Payload(kPageSize, 7));
}

TEST(LongFieldFaultTest, ReadRangesHugeOffsetRejectedBeforeAnyTransfer) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  auto id = lfm.Create(Payload(2 * kPageSize, 8)).MoveValue();
  FaultStats before = device.fault_stats();
  uint64_t huge = std::numeric_limits<uint64_t>::max() - 2;
  std::vector<ByteRange> ranges = {{0, 4}, {huge, 8}};
  EXPECT_TRUE(lfm.PlanRead(id, ranges).status().IsOutOfRange());
  // Validation runs before any I/O: the good first extent must not have
  // been fetched already when the bad one is discovered.
  std::vector<uint8_t> a(kPageSize), b(kPageSize);
  EXPECT_TRUE(lfm.ReadExtents(id, {{0, 1}, {huge, 1}}, {a.data(), b.data()})
                  .IsOutOfRange());
  EXPECT_EQ((device.fault_stats() - before).transfers, 0u);
}

TEST(LongFieldFaultTest, ReadFaultLeavesAccountingClean) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  auto id = lfm.Create(Payload(3 * kPageSize, 9)).MoveValue();
  uint64_t allocated = lfm.allocated_pages();
  device.InstallFaultPlan(FaultPlan::FailAtTransfer(0));
  EXPECT_TRUE(lfm.Read(id).status().IsIOError());
  EXPECT_EQ(lfm.allocated_pages(), allocated);
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
  EXPECT_EQ(lfm.Read(id).value(), Payload(3 * kPageSize, 9));
}

TEST(LongFieldFaultTest, UnknownIdsAreNotFound) {
  DiskDevice device(16);
  LongFieldManager lfm(&device);
  LongFieldId bogus{42};
  EXPECT_TRUE(lfm.Size(bogus).status().IsNotFound());
  EXPECT_TRUE(lfm.Read(bogus).status().IsNotFound());
  EXPECT_TRUE(lfm.PlanRead(bogus, {{0, 1}}).status().IsNotFound());
  std::vector<uint8_t> page(kPageSize);
  EXPECT_TRUE(lfm.ReadExtents(bogus, {{0, 1}}, {page.data()}).IsNotFound());
  EXPECT_TRUE(lfm.Update(bogus, Payload(8, 0)).IsNotFound());
  EXPECT_TRUE(lfm.Delete(bogus).IsNotFound());
}

TEST(LongFieldFaultTest, DeleteReturnsPagesToAllocator) {
  DiskDevice device(64);
  LongFieldManager lfm(&device);
  auto a = lfm.Create(Payload(4 * kPageSize, 1)).MoveValue();
  auto b = lfm.Create(Payload(kPageSize, 2)).MoveValue();
  ASSERT_EQ(lfm.allocated_pages(), 5u);
  ASSERT_TRUE(lfm.Delete(a).ok());
  EXPECT_EQ(lfm.allocated_pages(), 1u);
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
  EXPECT_EQ(lfm.Read(b).value(), Payload(kPageSize, 2));
}

TEST(LongFieldFaultTest, AllocatorExhaustionSurfacesCleanly) {
  DiskDevice device(4);
  LongFieldManager lfm(&device);
  auto id = lfm.Create(Payload(4 * kPageSize, 1)).MoveValue();
  // The device is full: the next Create must fail without touching the
  // existing field or the accounting.
  EXPECT_FALSE(lfm.Create(Payload(kPageSize, 2)).ok());
  EXPECT_EQ(lfm.allocated_pages(), 4u);
  ASSERT_TRUE(lfm.CheckPageAccounting().ok());
  EXPECT_EQ(lfm.Read(id).value(), Payload(4 * kPageSize, 1));
}

}  // namespace
}  // namespace qbism::storage
